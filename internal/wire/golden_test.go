package wire

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// TestGoldenWireBytes pins the exact bytes of every frame type, with
// Data and Delta in each buffer encoding, as the protocol-version-4
// encoder produced them, and checks that both reader modes decode
// them back to the original frame. Any change to these bytes is a
// wire-format change and needs a Version bump.
func TestGoldenWireBytes(t *testing.T) {
	for _, c := range goldenFrames() {
		stream := encode(t, []*Frame{c.frame})
		if got := hex.EncodeToString(stream); got != c.hex {
			t.Errorf("%s: encoded\n  %s\nwant\n  %s", c.name, got, c.hex)
			continue
		}
		for _, rd := range readers(stream) {
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("%s: decode: %v", c.name, err)
			}
			if !framesMatch(c.frame, got) {
				t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.frame)
			}
		}
	}
}

// framesMatch compares frames field by field, buffers by their
// materialized tuples.
func framesMatch(want, got *Frame) bool {
	w, g := *want, *got
	if !sameTuples(w.Data.Buf, g.Data.Buf) || !sameTuples(w.Delta.Buf, g.Delta.Buf) {
		return false
	}
	w.Data.Buf, g.Data.Buf, w.Delta.Buf, g.Delta.Buf = nil, nil, nil, nil
	return reflect.DeepEqual(w, g)
}

func sameTuples(a, b *exchange.Buffer) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a.AppendTuples(nil), b.AppendTuples(nil))
}

// goldenCase is one pinned frame encoding.
type goldenCase struct {
	name  string
	hex   string
	frame *Frame
}

// goldenBuffers returns the three buffer bodies the golden table
// pins: a short packed run (raw words), a long run of consecutive
// words (delta-varint), and a run with values too wide to pack (flat).
func goldenBuffers() (raw, delta, flat *exchange.Buffer) {
	raw = exchange.NewBuffer(2)
	raw.Append(relation.Tuple{3, 4})
	raw.Append(relation.Tuple{1, 2})
	raw.Seal()
	delta = exchange.NewBuffer(2)
	for i := 0; i < 40; i++ {
		delta.Append(relation.Tuple{0, i})
	}
	delta.Seal()
	flat = exchange.NewBuffer(2)
	flat.Append(relation.Tuple{1 << 40, 2})
	flat.Append(relation.Tuple{5, 6})
	flat.Seal()
	return raw, delta, flat
}

// goldenFrames returns one frame of every type, with Data and Delta in
// each of the three buffer bodies.
func goldenFrames() []goldenCase {
	raw, delta, flat := goldenBuffers()
	return []goldenCase{
		{
			name:  "hello",
			hex:   "010000000a00040000000300000008",
			frame: &Frame{Type: TypeHello, Hello: Hello{Version: 4, Worker: 3, P: 8}},
		},
		{
			name:  "data-raw",
			hex:   "020000002200000002000000010001520002020000000202000000010000000400000003000000",
			frame: &Frame{Type: TypeData, Data: Data{Round: 2, Dest: 1, Rel: "R", Buf: raw}},
		},
		{
			name:  "data-delta",
			hex:   "020000003a00000001000000000001530002030000002800010101010101010101010101010101010101010101010101010101010101010101010101010101",
			frame: &Frame{Type: TypeData, Data: Data{Round: 1, Dest: 0, Rel: "S", Buf: delta}},
		},
		{
			name:  "data-flat",
			hex:   "020000003400000003000000020003562f54000201000000020000000000000005000000000000000600000100000000000000000000000002",
			frame: &Frame{Type: TypeData, Data: Data{Round: 3, Dest: 2, Rel: "V/T", Buf: flat}},
		},
		{
			name:  "barrier",
			hex:   "030000000400000007",
			frame: &Frame{Type: TypeBarrier, Round: 7},
		},
		{
			name: "join",
			hex:  "040000001f000d7128782c79293d5228782c792900036f75740200010001520003562f52",
			frame: &Frame{Type: TypeJoin, Join: Join{
				Query:    "q(x,y)=R(x,y)",
				View:     "out",
				Strategy: 2,
				Bindings: [][2]string{{"R", "V/R"}},
			}},
		},
		{
			name:  "gather",
			hex:   "050000000c000a686321616e7377657273",
			frame: &Frame{Type: TypeGather, View: "hc!answers"},
		},
		{
			name:  "ack",
			hex:   "060000000400000007",
			frame: &Frame{Type: TypeAck, Round: 7},
		},
		{
			name:  "done",
			hex:   "070000000400000004",
			frame: &Frame{Type: TypeDone, Count: 4},
		},
		{
			name:  "error",
			hex:   "08000000060004626f6f6d",
			frame: &Frame{Type: TypeError, Msg: "boom"},
		},
		{
			name:  "ping",
			hex:   "090000000400000013",
			frame: &Frame{Type: TypePing, Round: 19},
		},
		{
			name:  "pong",
			hex:   "0a0000000400000013",
			frame: &Frame{Type: TypePong, Round: 19},
		},
		{
			name:  "epoch",
			hex:   "0b0000000400000002",
			frame: &Frame{Type: TypeEpoch, Round: 2},
		},
		{
			name: "checkpoint",
			hex:  "0c000000320000000200000003000000020000000000015200000002000000000000004000000001000152000000010000010000000000",
			frame: &Frame{Type: TypeCheckpoint, Checkpoint: &Manifest{
				Epoch: 2, Round: 3,
				Entries: []ManifestEntry{
					{Worker: 0, Store: "R", Runs: 2, Tuples: 64},
					{Worker: 1, Store: "R", Runs: 1, Tuples: 1 << 40},
				},
			}},
		},
		{
			name:  "delta-raw",
			hex:   "0d0000002800000004000000010001520003642152000002020000000202000000010000000400000003000000",
			frame: &Frame{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 1, Store: "R", View: "d!R", Buf: raw}},
		},
		{
			name:  "delta-delta",
			hex:   "0d0000004000000004000000000001530003642153000002030000002800010101010101010101010101010101010101010101010101010101010101010101010101010101",
			frame: &Frame{Type: TypeDelta, Delta: Delta{Round: 4, Dest: 0, Store: "S", View: "d!S", Buf: delta}},
		},
		{
			name:  "delta-flat",
			hex:   "0d000000350000000500000002000154000001000201000000020000000000000005000000000000000600000100000000000000000000000002",
			frame: &Frame{Type: TypeDelta, Delta: Delta{Round: 5, Dest: 2, Store: "T", Del: true, Buf: flat}},
		},
		{
			name:  "trace",
			hex:   "0e0000001a00040000000000000000000000000007000000030004712d3132",
			frame: &Frame{Type: TypeTrace, Trace: TraceHeader{TraceID: 1 << 50, Span: 7, Round: 3, QueryID: "q-12"}},
		},
	}
}
