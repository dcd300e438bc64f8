package localjoin

import (
	"math"
	"slices"
	"sort"

	"repro/internal/exchange"
	"repro/internal/query"
	"repro/internal/relation"
)

// This file implements the worst-case-optimal multiway join (WCOJ), a
// leapfrog-triejoin-style evaluator: every atom's tuples are projected
// onto its distinct variables, sorted lexicographically in the global
// variable order, and exposed as a sorted trie; the join then binds one
// variable at a time by leapfrogging the sorted value lists of every
// atom containing that variable. On cyclic queries (triangles, cycles)
// this runs within the AGM bound instead of materializing the
// super-linear pairwise intermediates the hash-join pipeline builds,
// and it is robust to skew: a heavy join value narrows every
// participating trie at once.
//
// Each trie prefers an integer-packed layout: a tuple of m values
// becomes one uint64 with ⌊64/m⌋ bits per value, so building the trie
// sorts a flat []uint64 (radix-sorted when large) and every seek
// gallops over contiguous integers, comparing whole keys against the
// bound prefix — no field extraction per probe and no comparator
// indirection. When the first level's values are dense, a direct index
// makes its seeks O(1). Tuples that do not fit (huge values, or
// arity > 64) fall back to a sorted []relation.Tuple trie with
// identical semantics.
//
// MPC workers build their tries straight from the sealed runs they
// store (EvaluateRuns): a run packed at the atom's arity already is
// the trie's key layout when the atom's column order matches its trie
// level order, so a lone run is aliased and several are k-way merged;
// other column orders permute each word's fields once and sort. Only
// flat runs and atoms with repeated variables are materialized as
// tuples first, and the answers go into the view's run through one
// reused row: leapfrog binds each answer once, so nothing is
// deduplicated afterwards.

// trieRel is a sorted-trie view of one atom's tuples. Level d of the
// trie is the atom's d-th distinct variable in global variable order;
// lo[d]/hi[d] bound the rows consistent with the currently bound
// prefix.
type trieRel struct {
	levels int
	lo, hi []int // row range per level; level 0 is the whole relation
	cur    []int // per-level cursor: first row of the last sought value

	// Packed layout: row i is keys[i]; level d occupies the bit range
	// [(levels-1-d)·shift, (levels-d)·shift). prefix[d] holds the key
	// bits of the values bound at levels < d, shared by every row in
	// [lo[d], hi[d]).
	packed bool
	keys   []uint64
	shift  uint
	mask   uint64
	prefix []uint64
	// dir, when the level-0 values are dense enough, is a direct index:
	// dir[v] is the first row whose level-0 value is ≥ v, for every
	// v ≤ len(dir)-1, so level-0 seeks and opens cost O(1) instead of a
	// gallop from the start of the relation.
	dir []int32

	// Fallback layout: projected tuples sorted by cols order.
	tuples []relation.Tuple
	cols   []int
}

// newTrie allocates the per-level cursors of an m-level trie.
func newTrie(m int) *trieRel {
	return &trieRel{
		levels: m,
		lo:     make([]int, m+1),
		hi:     make([]int, m+1),
		cur:    make([]int, m),
	}
}

// newPackedTrie wraps sorted level-order keys packed at shift bits
// per value. The keys are only read.
func newPackedTrie(m int, shift uint, keys []uint64) *trieRel {
	tr := newTrie(m)
	tr.packed = true
	tr.keys = keys
	tr.shift = shift
	tr.mask = relation.PackedMask(shift)
	tr.prefix = make([]uint64, m)
	tr.hi[0] = len(keys)
	// The index costs one int32 per possible level-0 value, so it is
	// built only when those values are dense: at most about two per row.
	if n := len(keys); n > 0 && n < math.MaxInt32 {
		low := uint(m-1) * shift
		if top := keys[n-1] >> low; top < uint64(2*n+64) {
			tr.dir = make([]int32, top+2)
			v := 0
			for i, key := range keys {
				for val := int(key >> low); v <= val; v++ {
					tr.dir[v] = int32(i)
				}
			}
			tr.dir[top+1] = int32(n)
		}
	}
	return tr
}

// trieLevels orders an atom's distinct variables by global depth and
// returns, for each trie level d, the atom column supplying it (the
// variable's first occurrence).
func trieLevels(atom query.Atom, depthOf map[string]int) (vars []string, pos []int) {
	vars = atom.DistinctVars()
	sort.Slice(vars, func(i, j int) bool { return depthOf[vars[i]] < depthOf[vars[j]] })
	pos = make([]int, len(vars))
	for d, v := range vars {
		pos[d] = slices.Index(atom.Vars, v)
	}
	return vars, pos
}

// newTrieRel builds the trie for one atom from tuples: project onto
// distinct variables (dropping tuples with inconsistent repeats), order
// the columns by the variables' global depths, and sort.
func newTrieRel(atom query.Atom, tuples []relation.Tuple, depthOf map[string]int) (*trieRel, error) {
	for _, t := range tuples {
		if len(t) != atom.Arity() {
			return nil, arityError(atom, len(t))
		}
	}
	_, pos := trieLevels(atom, depthOf)
	repeats := repeatPairs(atom)
	m := len(pos)
	if shift := relation.PackedShift(m); shift > 0 {
		if keys, ok := packTuples(tuples, pos, repeats, shift); ok {
			sortKeys(keys)
			return newPackedTrie(m, shift, keys), nil
		}
	}
	// Fallback: projected tuples with a comparator-based sort.
	proj, err := atomRelation(atom, tuples, false)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(proj.Attrs))
	for i := range cols {
		cols[i] = i
	}
	sort.Slice(cols, func(i, j int) bool {
		return depthOf[proj.Attrs[cols[i]]] < depthOf[proj.Attrs[cols[j]]]
	})
	sort.Slice(proj.Tuples, func(i, j int) bool {
		a, b := proj.Tuples[i], proj.Tuples[j]
		for _, c := range cols {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
	tr := newTrie(m)
	tr.tuples = proj.Tuples
	tr.cols = cols
	tr.hi[0] = len(proj.Tuples)
	return tr, nil
}

// packTuples packs the tuples consistent with repeats into unsorted
// keys whose fields are the tuple columns pos, most significant first;
// ok is false when a value does not fit in shift bits.
func packTuples(tuples []relation.Tuple, pos []int, repeats [][2]int, shift uint) ([]uint64, bool) {
	keys := make([]uint64, 0, len(tuples))
	for _, t := range tuples {
		if !consistent(t, repeats) {
			continue
		}
		var key uint64
		for _, j := range pos {
			if !relation.FitsPacked(t[j], shift) {
				return nil, false
			}
			key = key<<shift | uint64(t[j])
		}
		keys = append(keys, key)
	}
	return keys, true
}

// newRunsTrie builds the trie for one atom from its sealed runs, all of
// the atom's arity. Packed runs of an atom without repeated variables
// become trie keys directly (runKeys); anything else is materialized
// and built by newTrieRel.
func newRunsTrie(atom query.Atom, runs []*exchange.Buffer, depthOf map[string]int) (*trieRel, error) {
	if len(repeatPairs(atom)) == 0 {
		words := make([][]uint64, 0, len(runs))
		for _, r := range runs {
			ws, ok := r.Words()
			if !ok {
				break
			}
			words = append(words, ws)
		}
		if len(words) == len(runs) {
			_, pos := trieLevels(atom, depthOf)
			shift := relation.PackedShift(len(pos))
			return newPackedTrie(len(pos), shift, runKeys(words, pos, shift)), nil
		}
	}
	return newTrieRel(atom, runTuples(runs), depthOf)
}

// runTuples materializes the tuples of runs.
func runTuples(runs []*exchange.Buffer) []relation.Tuple {
	var tuples []relation.Tuple
	for _, r := range runs {
		tuples = r.AppendTuples(tuples)
	}
	return tuples
}

// runKeys turns sorted runs of packed words, one field per column,
// into sorted trie keys whose level d is column pos[d]. When the
// levels follow the columns the runs already are trie keys: a lone run
// is aliased, several are merged. Otherwise each word's fields are
// permuted once and the keys sorted.
func runKeys(words [][]uint64, pos []int, shift uint) []uint64 {
	if slices.IsSorted(pos) {
		if len(words) == 1 {
			return words[0]
		}
		return exchange.MergeWords(words)
	}
	total := 0
	for _, ws := range words {
		total += len(ws)
	}
	m := len(pos)
	mask := relation.PackedMask(shift)
	keys := make([]uint64, 0, total)
	for _, ws := range words {
		for _, w := range ws {
			var key uint64
			for _, j := range pos {
				key = key<<shift | w>>(uint(m-1-j)*shift)&mask
			}
			keys = append(keys, key)
		}
	}
	sortKeys(keys)
	return keys
}

// sortKeys sorts keys ascending. Large inputs take an LSD radix sort
// that skips every byte position on which all keys agree: packed keys
// of small values vary in few bytes, so a handful of linear passes
// replace a comparison sort.
func sortKeys(keys []uint64) {
	if len(keys) < 256 {
		slices.Sort(keys)
		return
	}
	var or, and uint64 = 0, math.MaxUint64
	for _, k := range keys {
		or |= k
		and &= k
	}
	src, dst := keys, make([]uint64, len(keys))
	for shift := uint(0); shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range src {
			start[k>>shift&0xff]++
		}
		sum := 0
		for b, c := range start {
			start[b] = sum
			sum += c
		}
		for _, k := range src {
			b := k >> shift & 0xff
			dst[start[b]] = k
			start[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// at returns the level-d value of row i of the fallback layout.
func (tr *trieRel) at(d, i int) int { return tr.tuples[i][tr.cols[d]] }

// reset rewinds the level-d cursor to the start of the current prefix
// range; callers do this when they start a fresh intersection pass.
func (tr *trieRel) reset(d int) { tr.cur[d] = tr.lo[d] }

// seek returns the smallest value ≥ v at trie level d within the
// current prefix range, or ok=false when the range is exhausted.
// Successive seeks at one level must use non-decreasing v (the
// leapfrog discipline); the cursor then advances monotonically and a
// full intersection pass costs amortized O(rows) instead of
// O(values · log rows), via galloping from the previous position.
func (tr *trieRel) seek(d, v int) (int, bool) {
	if !tr.packed {
		return tr.seekTuples(d, v)
	}
	v = max(v, 0) // a pass starts at math.MinInt; packed values are ≥ 0
	hi := tr.hi[d]
	if uint64(v) > tr.mask {
		tr.cur[d] = hi
		return 0, false
	}
	low := uint(tr.levels-1-d) * tr.shift
	var i int
	if d == 0 && tr.dir != nil {
		i = hi
		if v < len(tr.dir) {
			i = max(tr.cur[0], int(tr.dir[v]))
		}
	} else {
		i = lowerBound(tr.keys, tr.cur[d], hi, tr.prefix[d]|uint64(v)<<low)
	}
	tr.cur[d] = i
	if i == hi {
		return 0, false
	}
	return int(tr.keys[i] >> low & tr.mask), true
}

// open narrows level d+1 to the rows whose level-d value equals v. It
// must follow a seek that returned v, so the cursor sits on the first
// occurrence. Opening the last level is a no-op: nothing lies below.
func (tr *trieRel) open(d, v int) {
	if d+1 == tr.levels {
		return
	}
	if !tr.packed {
		tr.openTuples(d, v)
		return
	}
	start, hi := tr.cur[d], tr.hi[d]
	low := uint(tr.levels-1-d) * tr.shift
	prefix := tr.prefix[d] | uint64(v)<<low
	// Every row of the range shares prefix[d], so the rows with value v
	// are exactly those ≤ prefix with all lower levels' bits set.
	last := prefix | (1<<low - 1)
	end := hi
	if d == 0 && tr.dir != nil {
		end = int(tr.dir[v+1])
	} else if last != math.MaxUint64 {
		end = lowerBound(tr.keys, start, hi, last+1)
	}
	tr.lo[d+1], tr.hi[d+1] = start, end
	tr.prefix[d+1] = prefix
}

// lowerBound returns the first index in [i, hi) whose key is ≥ target,
// or hi when there is none: a gallop from i brackets it, a binary
// search inside the bracket finds it.
func lowerBound(keys []uint64, i, hi int, target uint64) int {
	if i >= hi || keys[i] >= target {
		return i
	}
	step := 1
	for i+step < hi && keys[i+step] < target {
		i += step
		step <<= 1
	}
	// keys[i] < target, and the answer is at most min(hi, i+step).
	lo, end := i+1, min(hi, i+step)
	for lo < end {
		mid := int(uint(lo+end) >> 1)
		if keys[mid] < target {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	return lo
}

// seekTuples is seek on the fallback tuple layout.
func (tr *trieRel) seekTuples(d, v int) (int, bool) {
	i, hi := tr.cur[d], tr.hi[d]
	if i >= hi {
		return 0, false
	}
	if val := tr.at(d, i); val >= v {
		return val, true
	}
	// Gallop to bracket the first row with value ≥ v, then binary
	// search inside the bracket.
	step := 1
	for i+step < hi && tr.at(d, i+step) < v {
		i += step
		step <<= 1
	}
	bound := min(hi, i+step+1)
	i += sort.Search(bound-i, func(x int) bool { return tr.at(d, i+x) >= v })
	tr.cur[d] = i
	if i == hi {
		return 0, false
	}
	return tr.at(d, i), true
}

// openTuples is open on the fallback tuple layout.
func (tr *trieRel) openTuples(d, v int) {
	start, hi := tr.cur[d], tr.hi[d]
	i, step := start, 1
	for i+step < hi && tr.at(d, i+step) <= v {
		i += step
		step <<= 1
	}
	bound := min(hi, i+step+1)
	end := i + sort.Search(bound-i, func(x int) bool { return tr.at(d, i+x) > v })
	tr.lo[d+1], tr.hi[d+1] = start, end
}

// participant is one atom's trie at the level where a global variable
// is bound.
type participant struct {
	tr *trieRel
	d  int // trie level of the variable inside this atom
}

// leapfrog evaluates q by leapfrog intersection along the global
// variable order, over the trie build returns for each atom. It calls
// emit once per answer with the row in q.Vars() order; the row is
// reused between calls, so emit must not retain it.
func leapfrog(q *query.Query, build func(query.Atom, map[string]int) (*trieRel, error), emit func(relation.Tuple)) error {
	varOrder := variableOrder(q)
	k := len(varOrder)
	depthOf := make(map[string]int, k)
	for d, v := range varOrder {
		depthOf[v] = d
	}
	// parts[g] lists the tries binding the variable at global depth g.
	parts := make([][]participant, k)
	for _, a := range q.Atoms {
		tr, err := build(a, depthOf)
		if err != nil {
			return err
		}
		vars, _ := trieLevels(a, depthOf)
		for d, v := range vars {
			g := depthOf[v]
			parts[g] = append(parts[g], participant{tr: tr, d: d})
		}
	}
	// outCol[i] is the global depth of q.Vars()[i].
	outCol := make([]int, q.NumVars())
	for i, v := range q.Vars() {
		outCol[i] = depthOf[v]
	}
	binding := make([]int, k)
	row := make(relation.Tuple, len(outCol))
	var rec func(g int)
	rec = func(g int) {
		if g == k {
			for i, c := range outCol {
				row[i] = binding[c]
			}
			emit(row)
			return
		}
		ps := parts[g]
		// Leapfrog: cycle through the participants, raising the target
		// value to each one's next feasible value until all agree.
		for _, p := range ps {
			p.tr.reset(p.d)
		}
		v := math.MinInt
		i, agree := 0, 0
		for {
			val, ok := ps[i].tr.seek(ps[i].d, v)
			if !ok {
				return
			}
			if val == v {
				agree++
			} else {
				v, agree = val, 1
			}
			if agree == len(ps) {
				for _, p := range ps {
					p.tr.open(p.d, v)
				}
				binding[g] = v
				rec(g + 1)
				if v == math.MaxInt {
					return
				}
				v, agree = v+1, 0
			}
			i++
			if i == len(ps) {
				i = 0
			}
		}
	}
	rec(0)
	return nil
}

// evalWCOJ evaluates q over tuple bindings with leapfrog.
func evalWCOJ(q *query.Query, b Bindings) ([]relation.Tuple, error) {
	// Answers share one backing array; every query has a variable.
	var flat []int
	err := leapfrog(q, func(a query.Atom, depthOf map[string]int) (*trieRel, error) {
		return newTrieRel(a, b[a.Name], depthOf)
	}, func(row relation.Tuple) { flat = append(flat, row...) })
	if err != nil || len(flat) == 0 {
		return nil, err
	}
	width := q.NumVars()
	out := make([]relation.Tuple, len(flat)/width)
	for i := range out {
		out[i] = relation.Tuple(flat[i*width : (i+1)*width : (i+1)*width])
	}
	return out, nil
}

// EvaluateRuns computes q over sealed runs — runs[a] holds the runs
// bound to the atom named a, a missing or empty entry being an empty
// relation — and returns the answers as one sealed buffer of arity
// q.NumVars(), or nil when there are none. It is the MPC worker's
// local join over its stored runs: the WCOJ strategy builds its tries
// from the packed words directly (see the file comment), and the other
// strategies evaluate the materialized tuples. The runs are only read.
func EvaluateRuns(q *query.Query, runs map[string][]*exchange.Buffer, strategy Strategy) (*exchange.Buffer, error) {
	empty := false
	for _, a := range q.Atoms {
		n := 0
		for _, r := range runs[a.Name] {
			if r.Arity() != a.Arity() {
				return nil, arityError(a, r.Arity())
			}
			n += r.Len()
		}
		empty = empty || n == 0
	}
	if empty {
		return nil, nil
	}
	out := exchange.NewBuffer(q.NumVars())
	if strategy == Default || strategy == WCOJ {
		err := leapfrog(q, func(a query.Atom, depthOf map[string]int) (*trieRel, error) {
			return newRunsTrie(a, runs[a.Name], depthOf)
		}, out.Append)
		if err != nil {
			return nil, err
		}
	} else {
		b := make(Bindings, len(q.Atoms))
		for _, a := range q.Atoms {
			b[a.Name] = runTuples(runs[a.Name])
		}
		rows, err := Evaluate(q, b, strategy)
		if err != nil {
			return nil, err
		}
		for _, t := range rows {
			out.Append(t)
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	out.Seal()
	return out, nil
}
