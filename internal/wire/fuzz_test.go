package wire

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"runtime/metrics"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// FuzzDecodeFrame holds the decoder to its safety contract on
// arbitrary input, in both reader modes: each must return an error or
// a frame — never panic — while allocating in proportion to the input,
// and whenever the validating mode accepts a frame the trusted mode
// must accept an identical one. Anything accepted must survive an
// encode/decode round trip unchanged (up to buffer materialization).
// The seed corpus is real encoded frames of every type, all three
// buffer encodings included, so the fuzzer starts from deep in the
// valid format.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *Frame) { f.Add(encode(f, []*Frame{fr})) }
	rng := rand.New(rand.NewPCG(7, 7))
	packed := exchange.NewBuffer(3)
	row := make(relation.Tuple, 3)
	for i := 0; i < 200; i++ {
		for j := range row {
			row[j] = rng.IntN(5000)
		}
		packed.Append(row)
	}
	packed.Seal()
	flat := exchange.NewBuffer(2)
	flat.Append(relation.Tuple{1 << 50, 3})
	flat.Append(relation.Tuple{2, 1 << 40})
	flat.Seal()
	wide := exchange.NewBuffer(1)
	for i := 0; i < 64; i++ {
		wide.Append(relation.Tuple{i * i})
	}
	wide.Seal()

	seed(&Frame{Type: TypeHello, Hello: Hello{Version: Version, Worker: 1, P: 4}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Buf: packed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 3, Dest: 0, Rel: "V1_1/S", Buf: flat}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 0, Dest: 3, Rel: "hc!answers", Buf: wide}})
	seed(&Frame{Type: TypeBarrier, Round: 2})
	seed(&Frame{Type: TypeJoin, Join: Join{
		Query:    "q(x,y,z) = R(x,y), S(y,z)",
		View:     "out",
		Strategy: 1,
		Bindings: [][2]string{{"R", "V/R"}},
	}})
	seed(&Frame{Type: TypeGather, View: "out"})
	seed(&Frame{Type: TypeAck, Round: 2})
	seed(&Frame{Type: TypeDone, Count: 3})
	seed(&Frame{Type: TypeError, Msg: "boom"})
	seed(&Frame{Type: TypePing, Round: 41})
	seed(&Frame{Type: TypePong, Round: 41})
	seed(&Frame{Type: TypeEpoch, Round: 3})
	seed(&Frame{Type: TypeCheckpoint, Checkpoint: &Manifest{
		Epoch: 2, Round: 5,
		Entries: []ManifestEntry{
			{Worker: 0, Store: "V1_1/R", Runs: 3, Tuples: 900},
			{Worker: 0, Store: "V1_1/S", Runs: 1, Tuples: 12},
			{Worker: 2, Store: "hc!answers", Runs: 7, Tuples: 1 << 33},
		},
	}})
	seed(&Frame{Type: TypeCheckpoint, Checkpoint: &Manifest{Epoch: 0, Round: 0}})
	seed(&Frame{Type: TypeTrace, Trace: TraceHeader{TraceID: 1 << 40, Span: 3, Round: 2, QueryID: "q-7"}})
	seed(&Frame{Type: TypeTrace, Trace: TraceHeader{}})
	seed(&Frame{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 1, Store: "R", View: "delta!R!7", Buf: packed}})
	seed(&Frame{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 2, Store: "S", Del: true, Buf: flat}})
	// Raw little-endian words for the random buffers, delta varints
	// for a skewed one, so the fuzzer mutates deep inside encRaw and
	// encDelta payloads too.
	seed(&Frame{Type: TypeData, Data: Data{Round: 1, Dest: 2, Rel: "R", Buf: packed}})
	seed(&Frame{Type: TypeData, Data: Data{Round: 0, Dest: 3, Rel: "hc!answers", Buf: wide}})
	skewed := exchange.NewBuffer(2)
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	for i := 0; i < 512; i++ {
		skewed.Append(relation.Tuple{int(z.Uint64()), rng.IntN(64)})
	}
	skewed.Seal()
	seed(&Frame{Type: TypeData, Data: Data{Round: 2, Dest: 1, Rel: "Z", Buf: skewed}})
	seed(&Frame{Type: TypeDelta, Delta: Delta{Round: 5, Dest: 0, Store: "R", View: "delta!R!1", Buf: packed}})
	seed(&Frame{Type: TypeDelta, Delta: Delta{Round: 5, Dest: 1, Store: "Z", Del: true, Buf: skewed}})
	// Hostile shapes: lying lengths, dirty high bits, truncation.
	f.Add([]byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{byte(TypeData), 0, 0, 0, 30, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 3, 0, 0, 0, 0, 2})
	f.Add([]byte{0xEE, 0, 0, 0, 0})
	// Hostile fast shapes: unsorted raw words, a delta payload whose
	// first word sets bits above the packed width, a truncated delta
	// varint, and a lying delta count.
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 34,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 3, encRaw, 0, 0, 0, 2,
		9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 29,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 3, encDelta, 0, 0, 0, 2,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, // 1<<63, +0
	})
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 19,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 3, encDelta, 0, 0, 0, 2,
		0x80,
	})
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 20,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 3, encDelta, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2,
	})
	// Hostile delta frames: a dirty op byte (only 0 and 1 are legal), a
	// lying tuple count with almost no payload behind it, and a
	// truncated delta-varint body — all must reject without
	// over-allocating.
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 21,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 2, 0, 1, encRaw, 0, 0, 0, 0,
	})
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 23,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, encRaw, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2,
	})
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 22,
		0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 1, encDelta, 0, 0, 0, 2,
		0x80,
	})

	// Retired packed encoding (enc 0): a Data and a Delta body as the
	// protocol once defined them, big-endian words (1,2) and (3,4);
	// both must now reject as unknown encodings.
	f.Add([]byte{
		byte(TypeData), 0, 0, 0, 34,
		0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 'R', 0, 2, 0, 0, 0, 0, 2,
		0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4,
	})
	f.Add([]byte{
		byte(TypeDelta), 0, 0, 0, 37,
		0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 'R', 0, 0, 0, 0, 2, 0, 0, 0, 0, 2,
		0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4,
	})
	// A length prefix of exactly MaxPayload over a 3-byte stream: legal
	// to declare, so only bounded payload growth keeps it cheap.
	f.Add(append(appendU32([]byte{byte(TypeData)}, MaxPayload), 1, 2, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeBounded(t, NewReader(bytes.NewReader(data)), len(data))
		ft, terr := decodeBounded(t, NewTrustedReader(bytes.NewReader(data)), len(data))
		if err != nil {
			return
		}
		if terr != nil {
			t.Fatalf("validating mode accepts %s frame, trusted mode rejects it: %v", fr.Type, terr)
		}
		if !reflect.DeepEqual(fr, ft) {
			t.Fatalf("trusted decode %+v differs from validating decode %+v", ft, fr)
		}
		_, bufs, err := AppendFrames(nil, []*Frame{fr})
		if err != nil {
			t.Fatalf("accepted frame %s does not re-encode: %v", fr.Type, err)
		}
		var buf bytes.Buffer
		for _, b := range bufs {
			buf.Write(b)
		}
		stream := buf.Bytes()
		again, err := NewReader(bytes.NewReader(stream)).Next()
		if err != nil {
			t.Fatalf("re-encoded frame %s does not decode: %v", fr.Type, err)
		}
		if again.Type != fr.Type {
			t.Fatalf("round trip changed type %s → %s", fr.Type, again.Type)
		}
		if fr.Type == TypeCheckpoint {
			a, b := fr.Checkpoint, again.Checkpoint
			if a.Epoch != b.Epoch || a.Round != b.Round || len(a.Entries) != len(b.Entries) {
				t.Fatalf("round trip changed manifest %+v → %+v", a, b)
			}
			for i := range a.Entries {
				if a.Entries[i] != b.Entries[i] {
					t.Fatalf("round trip changed manifest entry %d: %+v → %+v", i, a.Entries[i], b.Entries[i])
				}
			}
		}
		if fr.Type == TypeData {
			a := fr.Data.Buf.AppendTuples(nil)
			b := again.Data.Buf.AppendTuples(nil)
			if len(a) != len(b) {
				t.Fatalf("round trip changed tuple count %d → %d", len(a), len(b))
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("round trip changed tuple %d: %v → %v", i, a[i], b[i])
				}
			}
		}
		if fr.Type == TypeDelta {
			if fr.Delta.Store != again.Delta.Store || fr.Delta.View != again.Delta.View || fr.Delta.Del != again.Delta.Del {
				t.Fatalf("round trip changed delta header %+v → %+v", fr.Delta, again.Delta)
			}
			a := fr.Delta.Buf.AppendTuples(nil)
			b := again.Delta.Buf.AppendTuples(nil)
			if len(a) != len(b) {
				t.Fatalf("round trip changed delta tuple count %d → %d", len(a), len(b))
			}
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("round trip changed delta tuple %d: %v → %v", i, a[i], b[i])
				}
			}
		}
		// Differential oracle on the re-encoded bytes: the trusted mode
		// must agree exactly with the validating decode and the
		// original.
		ft, err = NewTrustedReader(bytes.NewReader(stream)).Next()
		if err != nil {
			t.Fatalf("trusted decode of re-encoded %s frame: %v", fr.Type, err)
		}
		fv := again
		if ft.Type != fv.Type {
			t.Fatalf("decode type disagrees: trusted %s, validating %s", ft.Type, fv.Type)
		}
		if fr.Type == TypeData {
			a := ft.Data.Buf.AppendTuples(nil)
			b := fv.Data.Buf.AppendTuples(nil)
			c := fr.Data.Buf.AppendTuples(nil)
			if len(a) != len(b) || len(a) != len(c) {
				t.Fatalf("decode tuple counts diverge: trusted %d, validating %d, original %d", len(a), len(b), len(c))
			}
			for i := range a {
				if !a[i].Equal(b[i]) || !a[i].Equal(c[i]) {
					t.Fatalf("decode tuple %d diverges: trusted %v validating %v original %v", i, a[i], b[i], c[i])
				}
			}
		}
		if fr.Type == TypeDelta {
			if ft.Delta.Store != fr.Delta.Store || ft.Delta.View != fr.Delta.View || ft.Delta.Del != fr.Delta.Del ||
				fv.Delta.Store != fr.Delta.Store || fv.Delta.View != fr.Delta.View || fv.Delta.Del != fr.Delta.Del {
				t.Fatalf("decode delta header diverges: trusted %+v validating %+v original %+v", ft.Delta, fv.Delta, fr.Delta)
			}
			a := ft.Delta.Buf.AppendTuples(nil)
			b := fv.Delta.Buf.AppendTuples(nil)
			c := fr.Delta.Buf.AppendTuples(nil)
			if len(a) != len(b) || len(a) != len(c) {
				t.Fatalf("decode delta tuple counts diverge: trusted %d, validating %d, original %d", len(a), len(b), len(c))
			}
			for i := range a {
				if !a[i].Equal(b[i]) || !a[i].Equal(c[i]) {
					t.Fatalf("decode delta tuple %d diverges: trusted %v validating %v original %v", i, a[i], b[i], c[i])
				}
			}
		}
	})
}

// decodeBounded decodes one frame from rd and fails the test if the
// decode allocated more than a fixed allowance plus a small multiple
// of the input size — a lying length or count must not buy a large
// allocation in either reader mode.
func decodeBounded(t *testing.T, rd *Reader, inputLen int) (*Frame, error) {
	t.Helper()
	// runtime/metrics reads the allocation counter without stopping the
	// world, which keeps the fuzzer's exec rate up. It counts whole
	// cached spans and the fuzz engine's own allocations, hence the
	// 4 MiB allowance — still 32 times below a MaxPayload allocation.
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	f, err := rd.Next()
	metrics.Read(sample)
	if alloc, limit := sample[0].Value.Uint64()-before, uint64(4<<20+64*inputLen); alloc > limit {
		t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", inputLen, alloc, limit)
	}
	return f, err
}

// FuzzDecodeManifest holds the checkpoint-manifest decoder to the
// same contract as the frame decoder: arbitrary bytes yield an error
// or a valid manifest — never a panic, never an allocation larger than
// the input — and anything accepted is in canonical form, so it
// re-encodes to the exact input bytes.
func FuzzDecodeManifest(f *testing.F) {
	seed := func(m *Manifest) {
		// Strip the frame header, keep the payload.
		f.Add(encode(f, []*Frame{{Type: TypeCheckpoint, Checkpoint: m}})[5:])
	}
	seed(&Manifest{Epoch: 1, Round: 2, Entries: []ManifestEntry{
		{Worker: 0, Store: "R", Runs: 1, Tuples: 3},
		{Worker: 1, Store: "R", Runs: 2, Tuples: 5},
		{Worker: 1, Store: "S", Runs: 1, Tuples: 8},
	}})
	seed(&Manifest{Epoch: 0, Round: 0})
	// Lying count with no payload behind it; must reject cheaply.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	// Duplicate (worker, store): non-canonical, must reject.
	f.Add([]byte{
		0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 1, 'R', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		head, _, err := AppendFrames(nil, []*Frame{{Type: TypeCheckpoint, Checkpoint: m}})
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if got := head[5:]; !bytes.Equal(got, data) {
			t.Fatalf("accepted manifest is not canonical: %x re-encodes to %x", data, got)
		}
	})
}
