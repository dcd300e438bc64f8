package wire

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/exchange"
)

// This file is the codec's encoder. Every frame goes out through
// AppendFrames, which appends headers, control payloads and compressed
// buffer bodies to one reusable head buffer and hands raw packed word
// payloads back as separate zero-copy segments, so the transport can
// issue one vectored (writev) send per batch. The raw segment
// reinterprets a sealed buffer's word slice as little-endian bytes (an
// unsafe slice view, no per-word re-encoding); when a sorted column is
// delta-compressible the encoder inlines the smaller uvarint delta
// body instead.

// hostLittleEndian reports whether native uint64 memory order matches
// the encRaw wire order; big-endian hosts fall back to per-word byte
// swaps on both sides.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// deltaMinWords is the smallest packed run the encoder considers
// delta-compressing; below it the size probe costs more than the copy.
const deltaMinWords = 32

// deltaMaxRatio gates delta compression: the encoded payload must be
// at most 3/4 of the raw 8 bytes per word, so nearly-incompressible
// columns keep the zero-copy raw path.
const deltaMaxRatio = 0.75

// wordsLE returns the words' memory as little-endian wire bytes
// without copying when the host is little-endian; ok is false on
// big-endian hosts (callers swap-copy instead).
func wordsLE(words []uint64) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	if len(words) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8), true
}

// appendU16, appendU32 and appendU64 append big-endian integers.
func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// appendStrings appends each string uint16-length-prefixed.
func appendStrings(dst []byte, ss ...string) ([]byte, error) {
	for _, s := range ss {
		if len(s) > maxName {
			return dst, fmt.Errorf("wire: string of %d bytes exceeds %d", len(s), maxName)
		}
		dst = appendU16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// segRef marks a zero-copy word segment to splice into the vectored
// write list after offset start of the head buffer.
type segRef struct {
	start int
	seg   []byte
}

// AppendFrames encodes frames for one connection. Frame headers,
// control payloads and compressed Data payloads are appended to head
// (which may be nil; the grown slice is returned for reuse); raw
// packed Data payloads are returned as separate zero-copy segments
// aliasing the buffers' word memory. The segments slot into the
// returned write list in wire order, ready for a vectored send
// (net.Buffers). Callers must not mutate the frames' buffers until
// the write completes — sealed buffers are immutable, so this holds
// by construction on the dist hot path.
func AppendFrames(head []byte, frames []*Frame) (newHead []byte, bufs [][]byte, err error) {
	var segs []segRef
	for _, f := range frames {
		var seg []byte
		head, seg, err = appendFrame(head, f)
		if err != nil {
			return head, nil, err
		}
		if len(seg) > 0 {
			segs = append(segs, segRef{start: len(head), seg: seg})
		}
	}
	// Build the write list only after head has stopped growing:
	// earlier slices into a still-appending buffer would dangle on
	// reallocation.
	bufs = make([][]byte, 0, 2*len(segs)+1)
	prev := 0
	for _, s := range segs {
		if s.start > prev {
			bufs = append(bufs, head[prev:s.start])
		}
		bufs = append(bufs, s.seg)
		prev = s.start
	}
	if len(head) > prev {
		bufs = append(bufs, head[prev:])
	}
	return head, bufs, nil
}

// appendFrame appends one frame's header and inline bytes to dst and
// returns any zero-copy payload segment that belongs immediately
// after the appended bytes.
func appendFrame(dst []byte, f *Frame) ([]byte, []byte, error) {
	hdrAt := len(dst)
	dst = append(dst, byte(f.Type), 0, 0, 0, 0)
	bodyAt := len(dst)
	var seg []byte
	var err error
	switch f.Type {
	case TypeData:
		dst = appendU32(dst, f.Data.Round)
		dst = appendU32(dst, f.Data.Dest)
		if dst, err = appendStrings(dst, f.Data.Rel); err == nil {
			dst, seg, err = appendBufferBody(dst, f.Data.Buf)
		}
	case TypeDelta:
		dst = appendU32(dst, f.Delta.Round)
		dst = appendU32(dst, f.Delta.Dest)
		if dst, err = appendStrings(dst, f.Delta.Store, f.Delta.View); err == nil {
			op := byte(0)
			if f.Delta.Del {
				op = 1
			}
			dst, seg, err = appendBufferBody(append(dst, op), f.Delta.Buf)
		}
	case TypeHello:
		dst = appendU16(dst, f.Hello.Version)
		dst = appendU32(dst, f.Hello.Worker)
		dst = appendU32(dst, f.Hello.P)
	case TypeBarrier, TypeAck, TypePing, TypePong, TypeEpoch:
		dst = appendU32(dst, f.Round)
	case TypeJoin:
		if len(f.Join.Bindings) > maxName {
			return dst, nil, fmt.Errorf("wire: %d bindings exceed limit", len(f.Join.Bindings))
		}
		if dst, err = appendStrings(dst, f.Join.Query, f.Join.View); err != nil {
			return dst, nil, err
		}
		dst = append(dst, f.Join.Strategy)
		dst = appendU16(dst, uint16(len(f.Join.Bindings)))
		for _, b := range f.Join.Bindings {
			if dst, err = appendStrings(dst, b[0], b[1]); err != nil {
				return dst, nil, err
			}
		}
	case TypeGather:
		dst, err = appendStrings(dst, f.View)
	case TypeDone:
		dst = appendU32(dst, f.Count)
	case TypeError:
		dst, err = appendStrings(dst, f.Msg)
	case TypeCheckpoint:
		dst, err = appendManifest(dst, f.Checkpoint)
	case TypeTrace:
		dst = appendU64(dst, f.Trace.TraceID)
		dst = appendU64(dst, f.Trace.Span)
		dst = appendU32(dst, f.Trace.Round)
		dst, err = appendStrings(dst, f.Trace.QueryID)
	default:
		err = fmt.Errorf("wire: encode unknown frame type %d", f.Type)
	}
	if err != nil {
		return dst, nil, err
	}
	n := len(dst) - bodyAt + len(seg)
	if n > MaxPayload {
		return dst, nil, fmt.Errorf("wire: %s payload %d bytes exceeds %d", f.Type, n, MaxPayload)
	}
	binary.BigEndian.PutUint32(dst[hdrAt+1:], uint32(n))
	return dst, seg, nil
}

// appendManifest appends a checkpoint manifest, enforcing the
// canonical strictly-ascending (worker, store) entry order so every
// manifest has one byte representation.
func appendManifest(dst []byte, m *Manifest) ([]byte, error) {
	if m == nil {
		return dst, fmt.Errorf("wire: checkpoint frame without manifest")
	}
	dst = appendU32(dst, m.Epoch)
	dst = appendU32(dst, m.Round)
	dst = appendU32(dst, uint32(len(m.Entries)))
	var err error
	for i, e := range m.Entries {
		if i > 0 && !manifestLess(m.Entries[i-1], e) {
			return dst, fmt.Errorf("wire: manifest entries not strictly ascending at %d", i)
		}
		dst = appendU32(dst, e.Worker)
		if dst, err = appendStrings(dst, e.Store); err != nil {
			return dst, err
		}
		dst = appendU32(dst, e.Runs)
		dst = appendU64(dst, e.Tuples)
	}
	return dst, nil
}

// appendBufferBody appends one sealed buffer body, choosing the
// encoding: packed buffers ship as zero-copy raw words (returned as
// the segment) unless the column delta-compresses below deltaMaxRatio,
// in which case the smaller delta body is inlined; flat-path buffers
// use the big-endian flat encoding.
func appendBufferBody(dst []byte, buf *exchange.Buffer) ([]byte, []byte, error) {
	if !buf.Sealed() {
		// Both packed encodings assume sorted words (raw is validated as
		// sorted on receive, delta cannot represent disorder), and the
		// dist layer only ever ships sealed runs.
		return dst, nil, fmt.Errorf("wire: encode of unsealed buffer")
	}
	arity := buf.Arity()
	if arity < 1 || arity > maxName {
		return dst, nil, fmt.Errorf("wire: buffer arity %d out of range", arity)
	}
	dst = appendU16(dst, uint16(arity))
	if words, ok := buf.Words(); ok {
		if len(words) >= deltaMinWords {
			if size := exchange.DeltaWordsSize(words); float64(size) <= deltaMaxRatio*float64(len(words)*8) {
				dst = append(dst, encDelta)
				dst = appendU32(dst, uint32(len(words)))
				return exchange.AppendDeltaWords(dst, words), nil, nil
			}
		}
		dst = append(dst, encRaw)
		dst = appendU32(dst, uint32(len(words)))
		if seg, ok := wordsLE(words); ok {
			return dst, seg, nil
		}
		// Big-endian host: swap-copy inline instead of aliasing.
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst, nil, nil
	}
	flat := buf.Flat()
	dst = append(dst, encFlat)
	dst = appendU32(dst, uint32(len(flat)/arity))
	for _, v := range flat {
		dst = appendU64(dst, uint64(int64(v)))
	}
	return dst, nil, nil
}
