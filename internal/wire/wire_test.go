package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// buildBuffer packs tuples of the given arity drawn from [0, max).
func buildBuffer(t *testing.T, arity, n, max int, seed uint64) *exchange.Buffer {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 42))
	b := exchange.NewBuffer(arity)
	row := make(relation.Tuple, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.IntN(max)
		}
		b.Append(row)
	}
	b.Seal()
	return b
}

// sampleFrames returns one well-formed frame of every type, with both
// buffer encodings represented.
func sampleFrames(t *testing.T) []*Frame {
	t.Helper()
	packed := buildBuffer(t, 3, 100, 1000, 1)
	// Huge values defeat packing for arity 3 (21 bits per value).
	flat := exchange.NewBuffer(3)
	flat.Append(relation.Tuple{1 << 40, 2, 3})
	flat.Append(relation.Tuple{4, 5 << 30, 6})
	flat.Seal()
	if _, ok := flat.Words(); ok {
		t.Fatal("expected flat buffer")
	}
	return []*Frame{
		{Type: TypeHello, Hello: Hello{Version: Version, Worker: 3, P: 8}},
		{Type: TypeData, Data: Data{Round: 2, Dest: 3, Rel: "R", Buf: packed}},
		{Type: TypeData, Data: Data{Round: 1, Dest: 0, Rel: "views/V1_1", Buf: flat}},
		{Type: TypeBarrier, Round: 7},
		{Type: TypeJoin, Join: Join{
			Query:    "q(x,y,z) = R(x,y), S(y,z)",
			View:     "V1_1!out",
			Strategy: 3,
			Bindings: [][2]string{{"R", "V1_1/R"}, {"S", "V1_1/S"}},
		}},
		{Type: TypeGather, View: "hc!answers"},
		{Type: TypeAck, Round: 7},
		{Type: TypeDone, Count: 4},
		{Type: TypeError, Msg: "worker 3: no such view"},
		{Type: TypePing, Round: 19},
		{Type: TypePong, Round: 19},
		{Type: TypeEpoch, Round: 2},
		{Type: TypeTrace, Trace: TraceHeader{TraceID: 1 << 50, Span: 7, Round: 3, QueryID: "q-12"}},
		{Type: TypeCheckpoint, Checkpoint: &Manifest{
			Epoch: 2, Round: 3,
			Entries: []ManifestEntry{
				{Worker: 0, Store: "V1_1/R", Runs: 2, Tuples: 64},
				{Worker: 1, Store: "V1_1/R", Runs: 1, Tuples: 7},
				{Worker: 1, Store: "V1_1/S", Runs: 3, Tuples: 1 << 40},
			},
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range sampleFrames(t) {
		got, err := NewReader(bytes.NewReader(encode(t, []*Frame{f}))).Next()
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		if f.Type != TypeData {
			if !reflect.DeepEqual(f, got) {
				t.Errorf("%s: roundtrip mismatch:\n got %+v\nwant %+v", f.Type, got, f)
			}
			continue
		}
		// Buffers compare by materialized contents.
		if got.Data.Round != f.Data.Round || got.Data.Dest != f.Data.Dest || got.Data.Rel != f.Data.Rel {
			t.Errorf("data header mismatch: got %+v want %+v", got.Data, f.Data)
		}
		want := f.Data.Buf.AppendTuples(nil)
		have := got.Data.Buf.AppendTuples(nil)
		if !reflect.DeepEqual(want, have) {
			t.Errorf("data tuples mismatch: got %d tuples, want %d", len(have), len(want))
		}
	}
}

func TestRoundTripStream(t *testing.T) {
	frames := sampleFrames(t)
	rd := NewReader(bytes.NewReader(encode(t, frames)))
	for i := 0; ; i++ {
		f, err := rd.Next()
		if errors.Is(err, io.EOF) {
			if i != len(frames) {
				t.Fatalf("stream ended after %d frames, want %d", i, len(frames))
			}
			return
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != frames[i].Type {
			t.Fatalf("frame %d type %s, want %s", i, f.Type, frames[i].Type)
		}
	}
}

// TestDecodeTruncated: in both reader modes, every proper prefix of
// every frame errors without panicking, and a mid-frame cut is
// ErrUnexpectedEOF.
func TestDecodeTruncated(t *testing.T) {
	for _, f := range sampleFrames(t) {
		whole := encode(t, []*Frame{f})
		for cut := 1; cut < len(whole); cut++ {
			for _, rd := range readers(whole[:cut]) {
				_, err := rd.Next()
				if err == nil {
					t.Fatalf("%s: decode of %d/%d bytes succeeded", f.Type, cut, len(whole))
				}
				if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s: truncation at %d reported clean EOF", f.Type, cut)
				}
			}
		}
	}
}

// readers returns a validating and a trusted Reader over b.
func readers(b []byte) []*Reader {
	return []*Reader{NewReader(bytes.NewReader(b)), NewTrustedReader(bytes.NewReader(b))}
}

func TestDecodeMalformed(t *testing.T) {
	packed := buildBuffer(t, 3, 4, 100, 9)
	enc := func(f *Frame) []byte { return encode(t, []*Frame{f}) }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown type", []byte{0xEE, 0, 0, 0, 0}, "unknown frame type"},
		{"oversized length", []byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF}, "exceeds"},
		// A barrier payload is exactly 4 bytes; declaring 6 leaves
		// trailing payload the parser must reject.
		{"trailing bytes", []byte{byte(TypeBarrier), 0, 0, 0, 6, 0, 0, 0, 1, 0xAA, 0xBB}, "trailing"},
		{"zero arity", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			// arity field sits after 5 hdr + 4 round + 4 dest + 2 len + 1 "R".
			b[16], b[17] = 0, 0
		}), "arity"},
		{"bad encoding byte", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[18] = 9
		}), "encoding"},
		{"count overflows payload", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[19], b[20], b[21], b[22] = 0xFF, 0xFF, 0xFF, 0xFF
		}), "truncated payload"},
		// Encoding byte 0 was a big-endian packed word body that no
		// sender emits; it is retired and now an unknown encoding.
		{"retired packed encoding", mutate(enc(&Frame{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}), func(b []byte) {
			b[18] = 0
		}), "unknown buffer encoding 0"},
		{"retired packed delta body", mutate(enc(&Frame{Type: TypeDelta, Delta: Delta{Store: "R", Buf: packed}}), func(b []byte) {
			// enc byte sits after 5 hdr + 8 round/dest + 3 "R" + 2 "" + 1 op + 2 arity.
			b[21] = 0
		}), "unknown buffer encoding 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, rd := range readers(c.data) {
				_, err := rd.Next()
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if c.want != "" && !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error %q does not mention %q", err, c.want)
				}
			}
		})
	}
}

// TestManifestValidation: the manifest codec enforces canonical form
// on both sides — encode refuses out-of-order entries, decode refuses
// lying counts, duplicates, disorder, and truncation.
func TestManifestValidation(t *testing.T) {
	enc := func(m *Manifest) []byte {
		return encode(t, []*Frame{{Type: TypeCheckpoint, Checkpoint: m}})[5:]
	}
	good := &Manifest{Epoch: 1, Round: 2, Entries: []ManifestEntry{
		{Worker: 0, Store: "R", Runs: 1, Tuples: 3},
		{Worker: 1, Store: "R", Runs: 2, Tuples: 9},
	}}
	if _, err := DecodeManifest(enc(good)); err != nil {
		t.Fatalf("canonical manifest rejected: %v", err)
	}

	_, _, err := AppendFrames(nil, []*Frame{{Type: TypeCheckpoint, Checkpoint: &Manifest{
		Entries: []ManifestEntry{{Worker: 1, Store: "R"}, {Worker: 0, Store: "R"}},
	}}})
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("encode of out-of-order entries: %v, want ascending error", err)
	}
	if _, _, err := AppendFrames(nil, []*Frame{{Type: TypeCheckpoint}}); err == nil {
		t.Fatal("encode of checkpoint without manifest succeeded")
	}

	payload := enc(good)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"count exceeds payload", mutate(payload, func(b []byte) {
			b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0xFF
		}), "exceeds payload"},
		{"count below payload leaves trailing bytes", mutate(payload, func(b []byte) {
			b[11] = 1
		}), "trailing"},
		{"duplicate entry", enc2(t, &Manifest{Entries: []ManifestEntry{
			{Worker: 1, Store: "R"}, {Worker: 1, Store: "R"},
		}}), "ascending"},
		{"descending entry", enc2(t, &Manifest{Entries: []ManifestEntry{
			{Worker: 1, Store: "S"}, {Worker: 1, Store: "R"},
		}}), "ascending"},
		{"truncated mid-entry", payload[:len(payload)-1], "truncated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeManifest(c.data)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// enc2 hand-encodes a manifest payload without the encoder's ordering
// check, so decode-side validation can be exercised on shapes the
// encoder refuses to produce.
func enc2(t *testing.T, m *Manifest) []byte {
	t.Helper()
	w := appendU32(nil, m.Epoch)
	w = appendU32(w, m.Round)
	w = appendU32(w, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		w = appendU32(w, e.Worker)
		var err error
		if w, err = appendStrings(w, e.Store); err != nil {
			t.Fatal(err)
		}
		w = appendU32(w, e.Runs)
		w = appendU64(w, e.Tuples)
	}
	return w
}

// mutate copies b, applies f, returns the copy.
func mutate(b []byte, f func([]byte)) []byte {
	out := append([]byte(nil), b...)
	f(out)
	return out
}

// TestDecodeRejectsDirtyHighBits: a packed word with bits above
// arity·shift would break the word-order ⇔ tuple-order invariant and
// must be rejected.
func TestDecodeRejectsDirtyHighBits(t *testing.T) {
	packed := buildBuffer(t, 3, 2, 10, 5)
	b := encode(t, []*Frame{{Type: TypeData, Data: Data{Rel: "R", Buf: packed}}})
	b[len(b)-1] |= 0x80 // arity 3 uses 63 bits; set bit 63 of the last (little-endian) word
	_, err := NewReader(bytes.NewReader(b)).Next()
	if err == nil || !strings.Contains(err.Error(), "bits above") {
		t.Fatalf("want high-bit rejection, got %v", err)
	}
}

// TestDecodedBufferSorted: decoding an unsorted flat payload still
// yields a sealed, sorted buffer (the Column invariant).
func TestDecodedBufferSorted(t *testing.T) {
	// The encoder only ships sealed buffers, so craft the unsorted
	// rows (9,1), (1,2), (5,0) as a flat body by hand.
	body := appendU32(nil, 0) // round
	body = appendU32(body, 0) // dest
	body, _ = appendStrings(body, "R")
	body = appendU16(body, 2)
	body = append(body, encFlat)
	body = appendU32(body, 3)
	for _, v := range []uint64{9, 1, 1, 2, 5, 0} {
		body = appendU64(body, v)
	}
	stream := appendU32([]byte{byte(TypeData)}, uint32(len(body)))
	got, err := NewReader(bytes.NewReader(append(stream, body...))).Next()
	if err != nil {
		t.Fatal(err)
	}
	ts := got.Data.Buf.AppendTuples(nil)
	for i := 1; i < len(ts); i++ {
		if ts[i].Less(ts[i-1]) {
			t.Fatalf("decoded buffer not sorted: %v before %v", ts[i-1], ts[i])
		}
	}
	if !got.Data.Buf.Sealed() {
		t.Fatal("decoded buffer not sealed")
	}
}

// TestLyingLengthBoundedAllocation: a Data header declaring
// MaxPayload, then 3 bytes and EOF, is io.ErrUnexpectedEOF in both
// reader modes and costs well under a MiB — the payload buffer grows
// only as bytes arrive, never to the declared length up front.
func TestLyingLengthBoundedAllocation(t *testing.T) {
	stream := append(appendU32([]byte{byte(TypeData)}, MaxPayload), 1, 2, 3)
	for i, rd := range readers(stream) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := rd.Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("reader %d: %v, want io.ErrUnexpectedEOF", i, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("reader %d: lying length allocated %.1f MiB", i, float64(alloc)/(1<<20))
		}
	}
}
