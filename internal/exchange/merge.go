package exchange

import "repro/internal/relation"

// MergeRuns k-way merges sealed sorted runs into their deduplicated,
// lexicographically sorted union — the columnar replacement for
// concatenate-then-sort answer gathering. When every run is packed at
// the same arity the merge works directly on uint64 words; otherwise it
// falls back to materializing and relation.DedupSort.
func MergeRuns(runs []*Buffer) []relation.Tuple {
	live := runs[:0:0]
	for _, r := range runs {
		if r != nil && r.Len() > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	arity := live[0].arity
	packed := true
	for _, r := range live {
		if !r.sealed {
			r.Seal()
		}
		if !r.packed || r.arity != arity {
			packed = false
		}
	}
	if !packed {
		var all []relation.Tuple
		for _, r := range live {
			all = r.AppendTuples(all)
		}
		return relation.DedupSort(all)
	}
	words := mergeWords(live)
	// Unpack into tuples over one fresh backing array.
	shift := live[0].shift
	mask := relation.PackedMask(shift)
	backing := make([]int, len(words)*arity)
	out := make([]relation.Tuple, len(words))
	for i, key := range words {
		row := backing[i*arity : (i+1)*arity]
		for j := arity - 1; j >= 0; j-- {
			row[j] = int(key & mask)
			key >>= shift
		}
		out[i] = relation.Tuple(row)
	}
	return out
}

// mergeWords merges the word payloads of packed runs.
func mergeWords(runs []*Buffer) []uint64 {
	words := make([][]uint64, len(runs))
	for i, r := range runs {
		words[i] = r.words
	}
	return MergeWords(words)
}

// MergeWords k-way merges sorted word slices into their deduplicated
// sorted union via a binary min-heap of slice cursors. The inputs are
// only read; the result is always freshly allocated.
func MergeWords(runs [][]uint64) []uint64 {
	type cursor struct {
		words []uint64
		pos   int
	}
	h := make([]cursor, 0, len(runs))
	total := 0
	for _, ws := range runs {
		if len(ws) > 0 {
			h = append(h, cursor{words: ws})
			total += len(ws)
		}
	}
	less := func(a, b cursor) bool { return a.words[a.pos] < b.words[b.pos] }
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]uint64, 0, total)
	for len(h) > 0 {
		c := &h[0]
		w := c.words[c.pos]
		if len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
		c.pos++
		if c.pos == len(c.words) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// FoldRuns streams the deduplicated sorted union of the runs into
// yield, one tuple at a time, without materializing the merged answer
// set — the gather-phase hook grouped aggregation folds through: the
// coordinator keeps one accumulator row per group instead of the full
// answer. On the packed fast path the tuple passed to yield is reused
// between calls; yield must not retain it.
func FoldRuns(runs []*Buffer, yield func(relation.Tuple)) {
	live := runs[:0:0]
	for _, r := range runs {
		if r != nil && r.Len() > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	arity := live[0].arity
	packed := true
	for _, r := range live {
		if !r.sealed {
			r.Seal()
		}
		if !r.packed || r.arity != arity {
			packed = false
		}
	}
	if !packed {
		var all []relation.Tuple
		for _, r := range live {
			all = r.AppendTuples(all)
		}
		for _, t := range relation.DedupSort(all) {
			yield(t)
		}
		return
	}
	words := mergeWords(live)
	shift := live[0].shift
	mask := relation.PackedMask(shift)
	row := make(relation.Tuple, arity)
	for _, key := range words {
		for j := arity - 1; j >= 0; j-- {
			row[j] = int(key & mask)
			key >>= shift
		}
		yield(row)
	}
}
