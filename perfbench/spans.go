package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one replayed
// query share QID; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	QID    int           `json:"qid"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: a cluster fans transport calls out to goroutines.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[i].ID == i+1
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, qid int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, QID: qid, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent, qid int, fn func() error) error {
	id := r.begin(name, parent, qid)
	defer r.end(id)
	return fn()
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers questions about a finished set of spans.
type spanIndex struct {
	spans    []span
	children map[int][]int // parent id → child ids
}

func (r *recorder) index() *spanIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	ix := &spanIndex{spans: append([]span(nil), r.spans...), children: make(map[int][]int)}
	for i, s := range ix.spans {
		if s.End < 0 { // still open: an execution that failed mid-call
			ix.spans[i].End = s.Start
		}
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

func (ix *spanIndex) get(id int) span { return ix.spans[id-1] }

// duration is a span's wall time.
func (ix *spanIndex) duration(id int) time.Duration {
	s := ix.get(id)
	return s.End - s.Start
}

// covered is the part of span id's interval its children cover;
// overlapping children (concurrent transport calls) count once.
func (ix *spanIndex) covered(id int) time.Duration {
	s := ix.get(id)
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range ix.children[id] {
		cs := ix.get(c)
		lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// self is a span's duration minus the part its children cover.
func (ix *spanIndex) self(id int) time.Duration { return ix.duration(id) - ix.covered(id) }

// perQuery sums, for each query id, the durations of spans named name
// (self times when self is set).
func (ix *spanIndex) perQuery(name string, self bool) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range ix.spans {
		if s.Name != name {
			continue
		}
		if self {
			out[s.QID] += ix.self(s.ID)
		} else {
			out[s.QID] += s.End - s.Start
		}
	}
	return out
}
