package localjoin

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/query"
	"repro/internal/relation"
)

// sealRuns splits tuples into n consecutive chunks, each sealed as
// its own run, the way a worker's store holds what several senders
// delivered.
func sealRuns(tuples []relation.Tuple, arity, n int) []*exchange.Buffer {
	runs := make([]*exchange.Buffer, n)
	for i := range runs {
		runs[i] = exchange.NewBuffer(arity)
		for _, t := range tuples[i*len(tuples)/n : (i+1)*len(tuples)/n] {
			runs[i].Append(t)
		}
		runs[i].Seal()
	}
	return runs
}

// checkRuns asserts that EvaluateRuns under every strategy, and the
// tuple-input WCOJ, agree with the hash join on the same instance.
func checkRuns(t *testing.T, name string, q *query.Query, b Bindings, runs map[string][]*exchange.Buffer) {
	t.Helper()
	want, err := Evaluate(q, b, HashJoin)
	if err != nil {
		t.Fatalf("%s: %s: hashjoin: %v", name, q, err)
	}
	same := func(what string, got []relation.Tuple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s: %s returned %d answers, hashjoin %d\n%v\nvs\n%v",
				name, q, what, len(got), len(want), got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: %s: %s answer[%d] = %v, hashjoin %v", name, q, what, i, got[i], want[i])
			}
		}
	}
	tuples, err := Evaluate(q, b, WCOJ)
	if err != nil {
		t.Fatalf("%s: %s: wcoj: %v", name, q, err)
	}
	same("tuple wcoj", tuples)
	for _, strat := range []Strategy{Default, HashJoin, Backtracking, WCOJ} {
		out, err := EvaluateRuns(q, runs, strat)
		if err != nil {
			t.Fatalf("%s: %s: runs %v: %v", name, q, strat, err)
		}
		if out == nil {
			same("runs "+strat.String(), nil)
			continue
		}
		if out.Arity() != q.NumVars() {
			t.Fatalf("%s: %s: runs %v: answer arity %d, want %d", name, q, strat, out.Arity(), q.NumVars())
		}
		same("runs "+strat.String(), out.AppendTuples(nil))
	}
}

// TestEvaluateRunsMatchesHashJoin is the runs-built join's
// differential: on random queries, with each atom's input split into
// 1–3 sealed runs, every strategy over the runs returns exactly the
// hash join's answers over the tuples.
func TestEvaluateRunsMatchesHashJoin(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eed))
		q := randomQuery(rng)
		b := randomBindings(rng, q, 2+rng.IntN(8))
		runs := make(map[string][]*exchange.Buffer, len(b))
		for _, a := range q.Atoms {
			runs[a.Name] = sealRuns(b[a.Name], a.Arity(), 1+rng.IntN(3))
		}
		checkRuns(t, "random", q, b, runs)
	}
}

// TestEvaluateRunsTargeted covers the layouts the random instances
// rarely or never reach: permuted column order, repeated variables,
// flat runs, values at the top of the packed field, a relation bound
// to no runs at all, and a run of the wrong arity.
func TestEvaluateRunsTargeted(t *testing.T) {
	const top2 = 1<<32 - 1 // packed field mask at arity 2
	const top3 = 1<<21 - 1 // packed field mask at arity 3
	rng := rand.New(rand.NewPCG(9, 0x70b))
	draw := func(n, arity int, domain []int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = domain[rng.IntN(len(domain))]
			}
			out[i] = t
		}
		return out
	}
	small := []int{0, 1, 2, 3, 4, 5}
	dense := make([]int, 300)
	for i := range dense {
		dense[i] = i
	}
	sparse := []int{0, 1, 1 << 8, 1 << 15, 1 << 20, top3}
	cases := []struct {
		name   string
		q      *query.Query
		domain []int
		runs   int
		n      int // tuples per atom
	}{
		{"triangle permuted T(z,x)", query.MustParse("q(x,y,z) = R(x,y), S(y,z), T(z,x)"), small, 2, 40},
		{"triangle at top value", query.MustParse("q(x,y,z) = R(x,y), S(y,z), T(z,x)"), []int{0, 1, top2 - 1, top2}, 3, 40},
		{"arity 3 at top value", query.MustParse("q(x,y,z) = A(x,y,z), B(z,y)"), []int{0, 7, top3 - 1, top3}, 2, 40},
		{"reversed levels", query.MustParse("q(x,y,z) = A(z,y,x), B(x,y)"), small, 2, 40},
		{"repeated variables", query.MustParse("q(x,y) = R(x,x,y), S(y,x), U(y,y)"), []int{1, 2, 3}, 2, 40},
		{"flat runs", query.MustParse("q(x,y,z) = R(x,y), S(y,z), T(z,x)"), []int{1, 2, 1 << 32, 1<<32 + 1}, 2, 40},
		{"single atom", query.MustParse("q(x,y) = R(y,x)"), small, 3, 40},
		// Enough tuples that the keys take the radix sort.
		{"large triangle", query.MustParse("q(x,y,z) = R(x,y), S(y,z), T(z,x)"), dense, 2, 3000},
		{"large arity 3", query.MustParse("q(x,y,z) = A(x,y,z), B(z,x)"), sparse, 3, 2000},
	}
	for _, tc := range cases {
		b := make(Bindings)
		runs := make(map[string][]*exchange.Buffer)
		for _, a := range tc.q.Atoms {
			b[a.Name] = draw(tc.n, a.Arity(), tc.domain)
			runs[a.Name] = sealRuns(b[a.Name], a.Arity(), tc.runs)
		}
		checkRuns(t, tc.name, tc.q, b, runs)
	}

	// An atom whose runs mix the packed and flat layouts.
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z)")
	b := Bindings{
		"R": {{1, 2}, {3, 2}, {1 << 40, 5}},
		"S": {{2, 7}, {5, 1 << 33}, {2, 8}},
	}
	runs := map[string][]*exchange.Buffer{
		"R": {sealRuns(b["R"][:2], 2, 1)[0], sealRuns(b["R"][2:], 2, 1)[0]},
		"S": sealRuns(b["S"], 2, 1),
	}
	checkRuns(t, "mixed layouts", q, b, runs)

	// A relation bound to no runs is empty: no answers, no error.
	delete(runs, "S")
	if out, err := EvaluateRuns(q, runs, Default); out != nil || err != nil {
		t.Fatalf("missing relation: %v, %v; want no answers", out, err)
	}

	// A run whose arity differs from the atom's is an error.
	runs["S"] = sealRuns([]relation.Tuple{{1, 2, 3}}, 3, 1)
	if _, err := EvaluateRuns(q, runs, Default); err == nil {
		t.Fatal("arity-3 run bound to a binary atom: want error")
	}
}

// TestSortKeys checks the radix sort against slices.Sort on inputs
// whose keys vary in every number of byte positions, odd and even, and
// on sizes either side of the comparison-sort cutoff.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0x50f7))
	for trial := 0; trial < 60; trial++ {
		// A random subset of bits varies; the rest stay fixed.
		vary := rng.Uint64() >> rng.IntN(64)
		fixed := rng.Uint64() &^ vary
		keys := make([]uint64, []int{0, 1, 255, 256, 1000, 5000}[trial%6])
		for i := range keys {
			keys[i] = fixed | rng.Uint64()&vary
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		sortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: %d keys varying in %#x: radix order differs from slices.Sort", trial, len(keys), vary)
		}
	}
}
