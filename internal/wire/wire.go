// Package wire defines the length-prefixed frame format spoken
// between the distributed MPC coordinator and its worker processes
// (internal/dist, cmd/mpcworker).
//
// Every frame is
//
//	type   byte   — a Type constant
//	length uint32 — payload size in bytes, big-endian, ≤ MaxPayload
//	payload       — type-specific; integers big-endian except raw words
//
// The payload that matters is the columnar one: a Data or Delta frame
// carries one sealed exchange.Buffer — the unit the exchange layer
// ships between workers — after its round id, destination shard and
// store name, as a buffer body in one of three encodings:
//
//	raw   — packed uint64 words as little-endian memory, sent as a
//	        zero-copy writev segment aliasing the buffer
//	delta — sorted packed words as a uvarint first word plus uvarint
//	        gaps, chosen when a skewed column compresses well
//	flat  — big-endian row-major int64 values, for buffers whose
//	        values are too wide to pack
//
// Control frames (Hello, Barrier, Join, Gather, Ack, Done, Error,
// Ping, Pong, Epoch, Checkpoint, Trace) carry the BSP protocol around
// the data.
//
// The codec has one encoder, AppendFrames, and one decoder, Reader,
// whose mode is fixed by its constructor. NewReader validates every
// buffer body (words sorted and within the packed width) and is the
// path for input from outside the trust boundary. NewTrustedReader
// skips those two checks for streams whose Data payloads come from
// this repo's own encoder. In both modes a malformed or truncated
// frame yields an error, never a panic, and allocation is bounded by
// the bytes that actually arrive (a length prefix larger than the
// available input cannot force a large allocation). FuzzDecodeFrame
// in this package holds both modes to that contract.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/exchange"
)

// Type enumerates the frame kinds of the protocol.
type Type uint8

// Frame types. The coordinator sends Hello, Data, Barrier, Join and
// Gather; a worker replies with Ack, Data, Done and Error.
const (
	// TypeHello opens a session: protocol version, worker id, pool
	// size. The worker replies with an Ack.
	TypeHello Type = 1 + iota
	// TypeData carries one sealed columnar run for one destination
	// shard. Sent coordinator→worker during scatter rounds and
	// worker→coordinator while answering a Gather.
	TypeData
	// TypeBarrier ends a communication round; the worker acks it after
	// it has ingested every preceding Data frame (frames on one
	// connection are processed in order).
	TypeBarrier
	// TypeJoin instructs the worker to evaluate a conjunctive query
	// over its stored relations and store the result under a view name.
	TypeJoin
	// TypeGather asks the worker to stream the runs it holds under a
	// view name back as Data frames, terminated by a Done frame.
	TypeGather
	// TypeAck acknowledges a Hello, Barrier or Join, echoing a tag
	// (the round number for barriers).
	TypeAck
	// TypeDone terminates a Gather stream and reports the number of
	// Data frames that preceded it.
	TypeDone
	// TypeError reports a worker-side failure; the session is dead
	// afterwards.
	TypeError
	// TypePing is a coordinator heartbeat carrying a sequence tag in
	// Round; a live worker echoes it back as a Pong.
	TypePing
	// TypePong answers a Ping, echoing the sequence tag in Round.
	TypePong
	// TypeEpoch announces the coordinator's recovery epoch in Round.
	// Epochs only ever grow: a worker rejects a decreasing epoch as a
	// stale coordinator and acks an accepted one, echoing the epoch.
	TypeEpoch
	// TypeCheckpoint carries a checkpoint Manifest — the coordinator's
	// record of which per-worker sorted runs are durable after a round
	// barrier. The worker validates the manifest's epoch against its
	// session epoch and acks, echoing the manifest round.
	TypeCheckpoint
	// TypeDelta carries one sealed delta run for incremental view
	// maintenance: the tuples of a maintenance batch routed to one
	// worker. A delete delta tombstones the run's tuples in the named
	// store; an append delta registers the run under the store and,
	// when a view name is present, under that view as well (the
	// Δ-relation the maintenance join reads). Like Data, Delta frames
	// are unacknowledged — the round barrier is the ingestion fence.
	TypeDelta
	// TypeTrace carries a distributed-tracing span context
	// coordinator→worker: the trace id, the coordinator-side span the
	// round's work parents under, the round number, and the query id.
	// Trace frames are unacknowledged (the round barrier fences them
	// like Data); a worker simply records the most recent header so its
	// session can attribute work to the query being traced.
	TypeTrace
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeData:
		return "data"
	case TypeBarrier:
		return "barrier"
	case TypeJoin:
		return "join"
	case TypeGather:
		return "gather"
	case TypeAck:
		return "ack"
	case TypeDone:
		return "done"
	case TypeError:
		return "error"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeEpoch:
		return "epoch"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeDelta:
		return "delta"
	case TypeTrace:
		return "trace"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Version is the protocol version carried by Hello frames; a worker
// rejects a coordinator speaking a different version. Version 2 added
// the raw little-endian and delta-varint word encodings that version-1
// decoders would reject; version 3 added the Delta frame of
// incremental view maintenance; version 4 added the Trace frame of
// per-round distributed tracing.
const Version = 4

// MaxPayload bounds a frame's declared payload size (128 MiB). A
// larger length prefix is rejected before any payload is read.
const MaxPayload = 1 << 27

// maxName bounds store/view name and query-text lengths inside
// payloads (they are length-prefixed with uint16, so this is also the
// encoding limit).
const maxName = math.MaxUint16

// Hello is the session-opening payload.
type Hello struct {
	// Version is the sender's protocol version (must equal Version).
	Version uint16
	// Worker is the id this connection plays in the pool, in [0, P).
	Worker uint32
	// P is the worker-pool size.
	P uint32
}

// Data is one sealed columnar run in flight.
type Data struct {
	// Round is the communication round the run belongs to (0 for
	// gather replies).
	Round uint32
	// Dest is the destination shard (worker id). A worker rejects a
	// Data frame whose Dest is not its own id — catching routing bugs
	// at the wire instead of as silently wrong answers.
	Dest uint32
	// Rel is the store name the run lands under.
	Rel string
	// Buf is the run itself.
	Buf *exchange.Buffer
}

// Delta is one sealed maintenance run in flight. Its buffer body uses
// the same encodings as Data.
type Delta struct {
	// Round is the communication round the delta belongs to.
	Round uint32
	// Dest is the destination shard (worker id); workers reject
	// mis-routed deltas like mis-routed Data.
	Dest uint32
	// Store is the resident store the delta applies to.
	Store string
	// View is the Δ-relation view name an append delta also registers
	// its run under; empty for delete deltas (and for appends that no
	// maintenance join will read).
	View string
	// Del discriminates delete (tombstone) from append deltas.
	Del bool
	// Buf is the run itself.
	Buf *exchange.Buffer
}

// TraceHeader is the span context a Trace frame propagates
// coordinator→worker.
type TraceHeader struct {
	// TraceID identifies the trace the coming round belongs to.
	TraceID uint64
	// Span is the coordinator-side span id the round's worker-side
	// work parents under.
	Span uint64
	// Round is the communication round the header announces.
	Round uint32
	// QueryID is the serving-layer query id the trace belongs to.
	QueryID string
}

// Join is the local-evaluation command.
type Join struct {
	// Query is the conjunctive query in query.Parse syntax.
	Query string
	// View is the store name the evaluation result lands under.
	View string
	// Strategy selects the localjoin algorithm (the numeric value of a
	// localjoin.Strategy).
	Strategy uint8
	// Bindings maps atom names to store names when they differ (the
	// multiround executor stores inputs under view-prefixed names).
	// Atoms without an entry read the store of their own name.
	Bindings [][2]string
}

// Manifest is the checkpoint record a coordinator emits after each
// round barrier when recovery is enabled: for every (worker, store)
// pair it names how many sealed runs — and how many tuples across
// them — are durably ingested at that worker as of Round. A recovering
// coordinator replays exactly this state into a replacement worker.
//
// The canonical encoding orders entries strictly ascending by
// (Worker, Store); DecodeManifest rejects anything else, so a manifest
// has exactly one byte representation.
type Manifest struct {
	// Epoch is the recovery epoch the manifest belongs to.
	Epoch uint32
	// Round is the barrier the manifest describes.
	Round uint32
	// Entries lists the durable runs, ordered by (Worker, Store).
	Entries []ManifestEntry
}

// ManifestEntry is one (worker, store) line of a checkpoint manifest.
type ManifestEntry struct {
	// Worker is the worker id holding the runs.
	Worker uint32
	// Store is the store name the runs live under.
	Store string
	// Runs counts the sealed runs delivered to the store.
	Runs uint32
	// Tuples counts the tuples across those runs.
	Tuples uint64
}

// manifestEntryMin is the smallest encoded entry (worker u32, empty
// store u16 prefix, runs u32, tuples u64): the declared entry count is
// checked against the remaining payload at this granularity before any
// entry allocation.
const manifestEntryMin = 4 + 2 + 4 + 8

// Frame is one decoded protocol frame; the field matching Type is
// meaningful, the rest are zero.
type Frame struct {
	// Type discriminates the payload.
	Type Type
	// Hello is set for TypeHello.
	Hello Hello
	// Data is set for TypeData.
	Data Data
	// Delta is set for TypeDelta.
	Delta Delta
	// Join is set for TypeJoin.
	Join Join
	// Round is set for TypeBarrier and TypeAck (the echoed tag), for
	// TypePing and TypePong (the heartbeat sequence), and for TypeEpoch
	// (the announced epoch).
	Round uint32
	// View is set for TypeGather.
	View string
	// Count is set for TypeDone: the number of Data frames streamed.
	Count uint32
	// Msg is set for TypeError.
	Msg string
	// Checkpoint is set for TypeCheckpoint.
	Checkpoint *Manifest
	// Trace is set for TypeTrace.
	Trace TraceHeader
}

// Buffer body encodings inside Data and Delta payloads. Byte 0, a
// big-endian packed word encoding that no sender emits, is retired
// and decodes as an unknown encoding.
const (
	encFlat  = 1
	encRaw   = 2
	encDelta = 3
)

// payloadChunk is the most a Reader allocates ahead of the payload
// bytes read so far; beyond it the buffer grows by doubling.
const payloadChunk = 256 << 10

// Reader decodes a stream of frames. NewReader validates every buffer
// body; NewTrustedReader builds buffers from raw and delta words
// without the sorted and packed-width checks. The payload buffer is
// reused across frames and grows only as payload bytes arrive, so
// decoding allocates little beyond the buffers that outlive the frame,
// and a lying length prefix costs no more than the stream delivers.
//
// A trusted Reader must never be pointed at input from outside this
// process's trust boundary.
type Reader struct {
	r       io.Reader
	buf     []byte
	trusted bool
}

// NewReader returns a validating Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// NewTrustedReader returns a trusting Reader over r, for streams from
// this repo's own coordinator and workers past the handshake. r should
// already be buffered (the dist transports hand in their connection's
// bufio.Reader).
func NewTrustedReader(r io.Reader) *Reader {
	return &Reader{r: r, trusted: true}
}

// Next reads and decodes one frame. It returns io.EOF when the stream
// ends cleanly between frames and io.ErrUnexpectedEOF mid-frame.
func (rd *Reader) Next() (*Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(rd.r, hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rd.r, hdr[1:]); err != nil {
		return nil, unexpected(err)
	}
	typ := Type(hdr[0])
	size := binary.BigEndian.Uint32(hdr[1:])
	if size > MaxPayload {
		return nil, fmt.Errorf("wire: %s payload length %d exceeds %d", typ, size, MaxPayload)
	}
	n := int(size)
	buf := rd.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), payloadChunk)))
		}
		next := min(n, cap(buf))
		if _, err := io.ReadFull(rd.r, buf[len(buf):next]); err != nil {
			return nil, unexpected(err)
		}
		buf = buf[:next]
	}
	rd.buf = buf
	return decodePayload(typ, buf, rd.trusted)
}

// decodePayload parses one frame payload; trusted selects the buffer
// body mode. Decoded frames never alias body.
func decodePayload(typ Type, body []byte, trusted bool) (*Frame, error) {
	p := &payloadReader{b: body}
	f := &Frame{Type: typ}
	switch typ {
	case TypeHello:
		f.Hello.Version = p.u16()
		f.Hello.Worker = p.u32()
		f.Hello.P = p.u32()
	case TypeData:
		f.Data.Round = p.u32()
		f.Data.Dest = p.u32()
		f.Data.Rel = p.str()
		f.Data.Buf = decodeBufferBody(p, trusted)
	case TypeDelta:
		f.Delta.Round = p.u32()
		f.Delta.Dest = p.u32()
		f.Delta.Store = p.str()
		f.Delta.View = p.str()
		op := p.u8()
		if p.err == nil && op > 1 {
			p.fail(fmt.Errorf("delta op %d", op))
		}
		f.Delta.Del = op == 1
		f.Delta.Buf = decodeBufferBody(p, trusted)
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch:
		f.Round = p.u32()
	case TypeCheckpoint:
		f.Checkpoint = decodeManifest(p)
	case TypeTrace:
		f.Trace.TraceID = p.u64()
		f.Trace.Span = p.u64()
		f.Trace.Round = p.u32()
		f.Trace.QueryID = p.str()
	case TypeJoin:
		f.Join.Query = p.str()
		f.Join.View = p.str()
		f.Join.Strategy = p.u8()
		nb := int(p.u16())
		for i := 0; i < nb && p.err == nil; i++ {
			f.Join.Bindings = append(f.Join.Bindings, [2]string{p.str(), p.str()})
		}
	case TypeGather:
		f.View = p.str()
	case TypeDone:
		f.Count = p.u32()
	case TypeError:
		f.Msg = p.str()
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", uint8(typ))
	}
	if p.err != nil {
		return nil, fmt.Errorf("wire: %s frame: %w", typ, p.err)
	}
	if len(p.b) != p.off {
		return nil, fmt.Errorf("wire: %s frame has %d trailing payload bytes", typ, len(p.b)-p.off)
	}
	return f, nil
}

// decodeManifest parses a manifest payload. The declared entry count
// is validated against the remaining payload at minimum-entry
// granularity before any allocation, so a lying count cannot force a
// large allocation; entries are then required to be strictly ascending
// by (worker, store).
func decodeManifest(p *payloadReader) *Manifest {
	m := &Manifest{Epoch: p.u32(), Round: p.u32()}
	count := int(p.u32())
	if p.err != nil {
		return nil
	}
	if count*manifestEntryMin > len(p.b)-p.off {
		p.fail(fmt.Errorf("manifest count %d exceeds payload", count))
		return nil
	}
	m.Entries = make([]ManifestEntry, 0, count)
	for i := 0; i < count && p.err == nil; i++ {
		e := ManifestEntry{Worker: p.u32(), Store: p.str(), Runs: p.u32(), Tuples: p.u64()}
		if p.err != nil {
			return nil
		}
		if i > 0 && !manifestLess(m.Entries[i-1], e) {
			p.fail(fmt.Errorf("manifest entries not strictly ascending at %d", i))
			return nil
		}
		m.Entries = append(m.Entries, e)
	}
	return m
}

// manifestLess orders entries by (worker, store), strictly.
func manifestLess(a, b ManifestEntry) bool {
	if a.Worker != b.Worker {
		return a.Worker < b.Worker
	}
	return a.Store < b.Store
}

// DecodeManifest parses a standalone checkpoint-manifest payload (the
// body of a TypeCheckpoint frame) with the same validation a Reader
// applies: bounded allocation, full consumption, canonical entry
// order. It exists so the manifest codec can be fuzzed directly.
func DecodeManifest(b []byte) (*Manifest, error) {
	p := &payloadReader{b: b}
	m := decodeManifest(p)
	if p.err != nil {
		return nil, fmt.Errorf("wire: manifest: %w", p.err)
	}
	if len(p.b) != p.off {
		return nil, fmt.Errorf("wire: manifest has %d trailing payload bytes", len(p.b)-p.off)
	}
	return m, nil
}

// decodeBufferBody parses one buffer body (arity, encoding, count,
// values) — the shape shared by Data and Delta payloads. Raw words
// decode with a single copy into word memory. Trust decides only how
// the packed buffer is built: trusted bodies go straight into a sealed
// buffer, validated ones must be sorted and pass the packed-width
// check. A lying count cannot force a large allocation: every encoding
// bounds its allocation by the bytes actually present.
func decodeBufferBody(p *payloadReader, trusted bool) *exchange.Buffer {
	arity := int(p.u16())
	enc := p.u8()
	count := int(p.u32())
	if p.err != nil {
		return nil
	}
	if arity < 1 {
		p.fail(fmt.Errorf("arity %d", arity))
		return nil
	}
	var words []uint64
	switch enc {
	case encFlat:
		values := count * arity
		if !p.need(values * 8) {
			return nil
		}
		flat := make([]int, values)
		for i := range flat {
			v := int64(p.u64())
			if v < 0 || v > math.MaxInt {
				p.fail(fmt.Errorf("flat value %d out of range", v))
				return nil
			}
			flat[i] = int(v)
		}
		buf, err := exchange.NewBufferFromFlat(arity, flat)
		if err != nil {
			p.fail(err)
			return nil
		}
		return buf
	case encRaw:
		if !p.need(count * 8) {
			return nil
		}
		raw := p.b[p.off : p.off+count*8]
		p.off += count * 8
		words = make([]uint64, count)
		if mem, ok := wordsLE(words); ok {
			copy(mem, raw)
		} else {
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		}
	case encDelta:
		var err error
		if words, err = exchange.DecodeDeltaWords(p.b[p.off:], count); err != nil {
			p.fail(err)
			return nil
		}
		p.off = len(p.b)
	default:
		p.fail(fmt.Errorf("unknown buffer encoding %d", enc))
		return nil
	}
	var buf *exchange.Buffer
	var err error
	switch {
	case trusted:
		buf, err = exchange.NewBufferFromSortedWords(arity, words)
	case !slices.IsSorted(words):
		err = fmt.Errorf("packed words not sorted")
	default:
		buf, err = exchange.NewBufferFromWords(arity, words)
	}
	if err != nil {
		p.fail(err)
		return nil
	}
	return buf
}

// payloadReader is a bounds-checked cursor over a payload; the first
// failure sticks.
type payloadReader struct {
	b   []byte
	off int
	err error
}

// fail records the first error.
func (p *payloadReader) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// need reports whether n more bytes are available, recording an error
// if not (and on nonsensical sizes).
func (p *payloadReader) need(n int) bool {
	if p.err != nil {
		return false
	}
	if n < 0 || n > len(p.b)-p.off {
		p.fail(fmt.Errorf("truncated payload: need %d bytes, have %d", n, len(p.b)-p.off))
		return false
	}
	return true
}

func (p *payloadReader) u8() uint8 {
	if !p.need(1) {
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

func (p *payloadReader) u16() uint16 {
	if !p.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *payloadReader) u32() uint32 {
	if !p.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) u64() uint64 {
	if !p.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

// str reads a uint16-length-prefixed string.
func (p *payloadReader) str() string {
	n := int(p.u16())
	if !p.need(n) {
		return ""
	}
	v := string(p.b[p.off : p.off+n])
	p.off += n
	return v
}

// unexpected normalizes a short read into io.ErrUnexpectedEOF so
// callers can distinguish "stream ended between frames" (io.EOF from
// a frame's first byte) from "stream died mid-frame".
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
