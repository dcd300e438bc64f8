package dist

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
)

// triangleWorkerStore builds one worker's share of a tri-bulk-shaped
// instance: a random directed graph with 20 000 edges over 2 000
// vertices, uploaded as R, S and T, routed by a 2×2×2 HyperCube whose
// per-variable hash is the vertex parity. Worker (0,0,0) keeps the
// edges whose endpoints are both even — about 5 000 per relation —
// and, like a worker fed by two senders, holds each relation as two
// sealed runs.
func triangleWorkerStore() *workerStore {
	rng := rand.New(rand.NewPCG(1, 0x7121))
	seen := make(map[[2]int]bool)
	var edges []relation.Tuple
	for len(seen) < 20000 {
		a, b := rng.IntN(2000)+1, rng.IntN(2000)+1
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		if a%2 == 0 && b%2 == 0 {
			edges = append(edges, relation.Tuple{a, b})
		}
	}
	w := newWorkerStore()
	for _, rel := range []string{"R", "S", "T"} {
		for half := range 2 {
			run := exchange.NewBuffer(2)
			for _, e := range edges[half*len(edges)/2 : (half+1)*len(edges)/2] {
				run.Append(e)
			}
			run.Seal()
			w.add(rel, run)
		}
	}
	return w
}

// sealed packs tuples into one sealed run.
func sealed(arity int, tuples ...relation.Tuple) *exchange.Buffer {
	run := exchange.NewBuffer(arity)
	for _, t := range tuples {
		run.Append(t)
	}
	run.Seal()
	return run
}

// viewTuples reads back what a join stored under view, as stored:
// one sealed run, so sorted, and free of duplicates if the join is.
func viewTuples(w *workerStore, view string) []relation.Tuple {
	var out []relation.Tuple
	for _, run := range w.runs(view) {
		out = run.AppendTuples(out)
	}
	return out
}

// TestWorkerJoinFromRuns checks the worker's runs-built join against
// the hash join over the same tuples on the store layouts only a worker
// has: one store bound to two atoms, a store with tombstoned tuples,
// and an empty store.
func TestWorkerJoinFromRuns(t *testing.T) {
	edges := []relation.Tuple{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 2}, {3, 4}, {4, 1}}
	cases := []struct {
		name     string
		query    string
		bindings map[string]string
		// live are the tuples each atom sees after tombstones.
		live  func(atom string) []relation.Tuple
		setup func(w *workerStore)
	}{
		{
			name:     "one store bound to two atoms",
			query:    "q(x,y,z) = A(x,y), B(y,z), T(z,x)",
			bindings: map[string]string{"A": "E", "B": "E"},
			live:     func(string) []relation.Tuple { return edges },
			setup: func(w *workerStore) {
				w.add("E", sealed(2, edges[:4]...))
				w.add("E", sealed(2, edges[4:]...))
				w.add("T", sealed(2, edges...))
			},
		},
		{
			name:  "tombstoned store",
			query: "q(x,y,z) = R(x,y), S(y,z), T(z,x)",
			live: func(atom string) []relation.Tuple {
				if atom == "S" {
					return []relation.Tuple{{1, 2}, {3, 1}, {2, 4}, {4, 2}, {4, 1}}
				}
				return edges
			},
			setup: func(w *workerStore) {
				for _, rel := range []string{"R", "S", "T"} {
					w.add(rel, sealed(2, edges...))
				}
				w.applyDelta("S", "", true, sealed(2, relation.Tuple{2, 3}, relation.Tuple{3, 4}))
			},
		},
		{
			name:  "empty store",
			query: "q(x,y,z) = R(x,y), S(y,z)",
			live: func(atom string) []relation.Tuple {
				if atom == "S" {
					return nil
				}
				return edges
			},
			setup: func(w *workerStore) {
				w.add("R", sealed(2, edges...))
				w.add("S", sealed(2))
			},
		},
	}
	for _, tc := range cases {
		q := query.MustParse(tc.query)
		b := localjoin.Bindings{}
		for _, a := range q.Atoms {
			b[a.Name] = tc.live(a.Name)
		}
		want, err := localjoin.Evaluate(q, b, localjoin.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []localjoin.Strategy{localjoin.Default, localjoin.HashJoin, localjoin.Backtracking} {
			w := newWorkerStore()
			tc.setup(w)
			if err := w.join(q, tc.bindings, "out", strat); err != nil {
				t.Fatalf("%s: %v: %v", tc.name, strat, err)
			}
			got := viewTuples(w, "out")
			if !slices.EqualFunc(got, want, relation.Tuple.Equal) {
				t.Fatalf("%s: %v: view holds %v, want %v", tc.name, strat, got, want)
			}
		}
	}
}

// BenchmarkWorkerJoinTriangle times one worker's local triangle join
// straight off its stored runs: the work a tri-bulk query asks of
// each TCP worker between the round barrier and the gather.
func BenchmarkWorkerJoinTriangle(b *testing.B) {
	w := triangleWorkerStore()
	q := query.MustParse("q(x,y,z) = R(x,y), S(y,z), T(z,x)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.join(q, nil, "out", localjoin.Default); err != nil {
			b.Fatal(err)
		}
		delete(w.store, "out")
	}
}
