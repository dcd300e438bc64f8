package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/mpc"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/skew"
	"repro/internal/wire"
)

// benchSchema versions the BENCH.json layout; bump on incompatible
// changes so the CI gate can refuse to compare across schemas.
const benchSchema = 1

// BenchRecord is one measured benchmark in a BenchReport.
type BenchRecord struct {
	// Name identifies the benchmark across runs.
	Name string `json:"name"`
	// NsPerOp is the measured wall time per operation.
	NsPerOp float64 `json:"nsPerOp"`
	// Normalized is NsPerOp divided by the run's calibration NsPerOp —
	// a machine-speed-independent number, the value the regression
	// gate compares (two machines that differ only by clock speed
	// produce the same Normalized values).
	Normalized float64 `json:"normalized"`
	// Iterations is the b.N the testing harness settled on.
	Iterations int `json:"iterations"`
	// TuplesPerSec is set on throughput records (one op routes a fixed,
	// seed-determined tuple count): the experiment-facing view of the
	// same measurement. The gate compares Normalized, which is
	// proportional to 1/TuplesPerSec, so a throughput regression is a
	// normalized-time regression.
	TuplesPerSec float64 `json:"tuplesPerSec,omitempty"`
}

// BenchReport is the machine-readable BENCH.json the CI pipeline
// uploads and gates on.
type BenchReport struct {
	// Schema is the layout version (benchSchema).
	Schema int `json:"schema"`
	// GoVersion, GoOS and GoArch record the build environment.
	GoVersion string `json:"goVersion"`
	// GoOS is runtime.GOOS.
	GoOS string `json:"goos"`
	// GoArch is runtime.GOARCH.
	GoArch string `json:"goarch"`
	// CalibrationNsPerOp is the fixed CPU-bound reference loop's
	// per-op time on this machine — the normalization denominator.
	CalibrationNsPerOp float64 `json:"calibrationNsPerOp"`
	// Benchmarks holds the measured suite.
	Benchmarks []BenchRecord `json:"benchmarks"`
}

// calibrationLoop is the fixed reference work the suite normalizes
// by: one op allocates a 4096-word buffer, fills it from a 64-bit
// xorshift, and sorts it. The mix — allocation, pointer-free memory
// traffic, comparison sorting — mirrors what dominates the suite's
// hot paths (packed buffers, sorted runs, tries), so its per-op time
// co-varies with the benchmarks across machines far better than a
// pure-ALU loop would.
func calibrationLoop(b *testing.B) {
	var x uint64 = 88172645463325252
	for i := 0; i < b.N; i++ {
		buf := make([]uint64, 1<<12)
		for j := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[j] = x
		}
		sort.Slice(buf, func(a, c int) bool { return buf[a] < buf[c] })
		if buf[0] == 0 && buf[len(buf)-1] == 0 {
			b.Fatal("xorshift collapsed")
		}
	}
}

// benchReps is how many times measureNormalized repeats each
// benchmark; the minimum normalized ratio is kept. GC pauses,
// scheduler noise, and neighbouring load only ever make a run slower,
// so min-of-N is the noise-resistant estimator the regression gate
// needs.
const benchReps = 3

// measureNormalized interleaves the benchmark with the calibration
// loop: each rep measures the calibration immediately before the
// benchmark and normalizes by it, and the smallest ratio across reps
// wins. Interleaving matters on shared machines — background load
// slows both measurements of a rep together, so the ratio stays
// stable where a once-per-run calibration would drift.
func measureNormalized(fn func(b *testing.B)) (ns, normalized float64, iters int) {
	for r := 0; r < benchReps; r++ {
		cal := testing.Benchmark(calibrationLoop)
		res := testing.Benchmark(fn)
		if cal.NsPerOp() <= 0 {
			continue
		}
		ratio := float64(res.NsPerOp()) / float64(cal.NsPerOp())
		if normalized == 0 || ratio < normalized {
			ns, normalized, iters = float64(res.NsPerOp()), ratio, res.N
		}
	}
	return ns, normalized, iters
}

// runBenchSuite measures the key-experiment suite with the testing
// harness and returns the normalized report. The suite runs pinned to
// GOMAXPROCS(1): several hot paths fan out goroutines (per-shard
// partitioning, per-worker joins), so unpinned timings would scale
// with the host's core count and normalized values would not compare
// across machines — exactly what the CI regression gate needs them to
// do.
func runBenchSuite(w io.Writer, seed uint64) (*BenchReport, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	report := &BenchReport{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
	}
	cal := testing.Benchmark(calibrationLoop)
	report.CalibrationNsPerOp = float64(cal.NsPerOp())
	if report.CalibrationNsPerOp <= 0 {
		return nil, fmt.Errorf("calibration benchmark measured %v ns/op", report.CalibrationNsPerOp)
	}
	fmt.Fprintf(w, "calibration: %.0f ns/op (%d iterations; re-measured per benchmark)\n",
		report.CalibrationNsPerOp, cal.N)

	tri := query.Triangle()
	rng := rand.New(rand.NewPCG(seed, 0xbe7c))
	triDB := relation.MatchingDatabase(rng, tri, 2000)
	zr, zs := skew.ZipfJoinInput(rand.New(rand.NewPCG(seed, 0x21f)), 1000, 1.1)
	joinQ := skew.JoinQuery()

	// reach-powerlaw input: a 200-edge graph whose target vertices
	// follow Zipf(1.2) — the hub structure that makes semi-naive
	// reachability converge in few, fat iterations.
	reachDB := relation.NewDatabase(200)
	reachDB.AddRelation(relation.SkewedZipf(rand.New(rand.NewPCG(seed, 0x9e11)), "e", []string{"y", "x"}, 200, 1.2))
	reachProg := datalog.MustParse("tc(x,y) :- e(x,y).\ntc(x,z) :- tc(x,y), e(y,z).")

	// agg-star input: a 3-spoke star schema, the shape whose grouped
	// aggregate folds entirely inside the gather merge.
	starQ := query.Star(3)
	starDB := relation.MatchingDatabase(rand.New(rand.NewPCG(seed, 0x57a1)), starQ, 1000)

	// E-SHUF's suite record times the experiment's exact measured
	// region — BeginRound + grid scatter + EndRound through the
	// columnar exchange, cluster construction excluded — so the
	// regression gate covers the tuples/s number the experiment
	// reports. The routed-tuple count per op is deterministic for a
	// fixed seed; dividing it by the per-op time yields tuples/s.
	eshufShares, err := hypercube.SharesForQuery(tri, 64, hypercube.GreedyRounding)
	if err != nil {
		return nil, err
	}
	eshufTuples, err := eshufRoutedTuples(tri, triDB, eshufShares, seed)
	if err != nil {
		return nil, err
	}

	// throughput maps a record name to its routed-tuple count per op;
	// listed records also report TuplesPerSec.
	throughput := map[string]int64{
		"eshuf-scatter-triangle-n2000-p64": eshufTuples,
	}

	suite := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"eshuf-scatter-triangle-n2000-p64", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cluster, err := mpc.NewCluster(mpc.Config{
					Workers: 64, Epsilon: 1, InputBits: triDB.InputBits(), DomainN: triDB.N,
				})
				if err != nil {
					b.Fatal(err)
				}
				hasher := hypercube.NewHasher(eshufShares, seed)
				b.StartTimer()
				cluster.BeginRound()
				for _, a := range tri.Atoms {
					rel, _ := triDB.Relation(a.Name)
					if err := cluster.ScatterPart(rel, hypercube.NewGridPartitioner(eshufShares, hasher, a)); err != nil {
						b.Fatal(err)
					}
				}
				if err := cluster.EndRound(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"shuffle-triangle-n2000-p64", func(b *testing.B) {
			shares, err := hypercube.SharesForQuery(tri, 64, hypercube.GreedyRounding)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				cluster, err := mpc.NewCluster(mpc.Config{
					Workers: 64, Epsilon: 1, InputBits: triDB.InputBits(), DomainN: triDB.N,
				})
				if err != nil {
					b.Fatal(err)
				}
				hasher := hypercube.NewHasher(shares, seed)
				cluster.BeginRound()
				for _, a := range tri.Atoms {
					rel, _ := triDB.Relation(a.Name)
					if err := cluster.ScatterPart(rel, hypercube.NewGridPartitioner(shares, hasher, a)); err != nil {
						b.Fatal(err)
					}
				}
				if err := cluster.EndRound(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"join-wcoj-triangle-n2000", func(b *testing.B) {
			bindings := localjoin.Bindings{}
			for _, a := range tri.Atoms {
				rel, _ := triDB.Relation(a.Name)
				bindings[a.Name] = rel.Tuples
			}
			for i := 0; i < b.N; i++ {
				if _, err := localjoin.Evaluate(tri, bindings, localjoin.WCOJ); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"join-hash-zipf-n1000", func(b *testing.B) {
			bindings := localjoin.Bindings{joinQ.Atoms[0].Name: zr.Tuples, joinQ.Atoms[1].Name: zs.Tuples}
			for i := 0; i < b.N; i++ {
				if _, err := localjoin.Evaluate(joinQ, bindings, localjoin.HashJoin); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-build-triangle-p64", func(b *testing.B) {
			stats := relation.CollectStats(triDB)
			for i := 0; i < b.N; i++ {
				if _, err := plan.Build(tri, stats, plan.Options{P: 64}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-execute-triangle-n2000-p16", func(b *testing.B) {
			pl, err := plan.Build(tri, relation.CollectStats(triDB), plan.Options{P: 16})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := pl.Execute(triDB, plan.ExecOptions{Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"delta-maintain-triangle-n512-p16", func(b *testing.B) {
			// Warm-path maintenance: one append batch plus the
			// deletion anti-join that undoes it, so the distribution
			// returns to its base state every iteration.
			db := relation.IdentityDatabase(tri, 512)
			m, err := hypercube.NewMaintainer(tri, db, 16, hypercube.Options{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			add := map[string]relation.Effect{"S1": {Added: []relation.Tuple{{1, 2}}}}
			del := map[string]relation.Effect{"S1": {Removed: []relation.Tuple{{1, 2}}}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ApplyDelta(add); err != nil {
					b.Fatal(err)
				}
				if _, err := m.ApplyDelta(del); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"reach-powerlaw", func(b *testing.B) {
			// Full semi-naive reachability per op: cold hypercube run
			// plus every warm delta iteration to the fixpoint.
			for i := 0; i < b.N; i++ {
				if _, err := datalog.Eval(reachProg, reachDB, datalog.Options{P: 8, Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"agg-star", func(b *testing.B) {
			pl, err := plan.Build(starQ, relation.CollectStats(starDB), plan.Options{P: 16})
			if err != nil {
				b.Fatal(err)
			}
			pl, err = pl.WithAggregate(relation.GroupSpec{
				GroupBy: []int{0},
				Aggs: []relation.Aggregate{
					{Func: relation.AggCount, Col: 1},
					{Func: relation.AggMax, Col: 3},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := pl.Execute(starDB, plan.ExecOptions{Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stats-collect-n2000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relation.CollectStats(triDB)
			}
		}},
		{"wire-fastpath-encode-n16384", func(b *testing.B) {
			frames := []*wire.Frame{wireBenchFrame(seed, 1<<14)}
			var head []byte
			for i := 0; i < b.N; i++ {
				var err error
				head, _, err = wire.AppendFrames(head[:0], frames)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"wire-fastpath-decode-n16384", func(b *testing.B) {
			head, bufs, err := wire.AppendFrames(nil, []*wire.Frame{wireBenchFrame(seed, 1<<14)})
			if err != nil {
				b.Fatal(err)
			}
			_ = head
			var buf bytes.Buffer
			for _, seg := range bufs {
				buf.Write(seg)
			}
			data := buf.Bytes()
			for i := 0; i < b.N; i++ {
				if _, err := wire.NewTrustedReader(bytes.NewReader(data)).Next(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, s := range suite {
		ns, normalized, iters := measureNormalized(s.fn)
		if normalized == 0 {
			return nil, fmt.Errorf("benchmark %s: calibration collapsed", s.name)
		}
		rec := BenchRecord{
			Name:       s.name,
			NsPerOp:    ns,
			Normalized: normalized,
			Iterations: iters,
		}
		if tuples := throughput[s.name]; tuples > 0 && ns > 0 {
			rec.TuplesPerSec = float64(tuples) / (ns * 1e-9)
		}
		report.Benchmarks = append(report.Benchmarks, rec)
		fmt.Fprintf(w, "%-36s %12.0f ns/op  normalized %8.3f  (%d iterations)",
			rec.Name, rec.NsPerOp, rec.Normalized, rec.Iterations)
		if rec.TuplesPerSec > 0 {
			fmt.Fprintf(w, "  %.3g tuples/s", rec.TuplesPerSec)
		}
		fmt.Fprintln(w)
	}
	return report, nil
}

// eshufRoutedTuples runs the E-SHUF scatter once and returns how many
// tuples one benchmark op routes — deterministic for a fixed seed, so
// tuples/s derived from it is reproducible.
func eshufRoutedTuples(q *query.Query, db *relation.Database, shares *hypercube.Shares, seed uint64) (int64, error) {
	cluster, err := mpc.NewCluster(mpc.Config{
		Workers: 64, Epsilon: 1, InputBits: db.InputBits(), DomainN: db.N,
	})
	if err != nil {
		return 0, err
	}
	hasher := hypercube.NewHasher(shares, seed)
	cluster.BeginRound()
	for _, a := range q.Atoms {
		rel, ok := db.Relation(a.Name)
		if !ok {
			return 0, fmt.Errorf("eshuf: missing relation %s", a.Name)
		}
		if err := cluster.ScatterPart(rel, hypercube.NewGridPartitioner(shares, hasher, a)); err != nil {
			return 0, err
		}
	}
	if err := cluster.EndRound(); err != nil {
		return 0, err
	}
	return cluster.Stats().Rounds[0].TotalTuples, nil
}

// wireBenchFrame builds the packed 3-ary data frame the wire suite
// benchmarks serialize (the shape a triangle scatter ships).
func wireBenchFrame(seed uint64, n int) *wire.Frame {
	rng := rand.New(rand.NewPCG(seed, 0x117e))
	b := exchange.NewBuffer(3)
	row := make(relation.Tuple, 3)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.IntN(1 << 20)
		}
		b.Append(row)
	}
	b.Seal()
	return &wire.Frame{Type: wire.TypeData, Data: wire.Data{Round: 1, Rel: "R", Buf: b}}
}

// writeBenchJSON writes the report to path.
func writeBenchJSON(path string, report *BenchReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBenchJSON loads a report from path.
func readBenchJSON(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report BenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &report, nil
}

// compareBenchReports gates the current run against the baseline: a
// benchmark regresses when its normalized per-op time exceeds the
// baseline's by more than maxRegress (0.25 = 25%). Benchmarks present
// on only one side are reported but never fail the gate, so the suite
// can grow. The returned error lists every regression.
func compareBenchReports(w io.Writer, baseline, current *BenchReport, maxRegress float64) error {
	if baseline.Schema != current.Schema {
		return fmt.Errorf("baseline schema %d != current %d; regenerate the baseline", baseline.Schema, current.Schema)
	}
	base := make(map[string]BenchRecord, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	var regressions []string
	for _, cur := range current.Benchmarks {
		b, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(w, "NEW      %-36s normalized %.3f (no baseline)\n", cur.Name, cur.Normalized)
			continue
		}
		delete(base, cur.Name)
		if b.Normalized <= 0 {
			fmt.Fprintf(w, "SKIP     %-36s baseline normalized %.3f unusable\n", cur.Name, b.Normalized)
			continue
		}
		ratio := cur.Normalized / b.Normalized
		verdict := "ok"
		if ratio > 1+maxRegress {
			verdict = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: normalized %.3f vs baseline %.3f (%.0f%% slower, budget %.0f%%)",
					cur.Name, cur.Normalized, b.Normalized, (ratio-1)*100, maxRegress*100))
		}
		fmt.Fprintf(w, "%-8s %-36s %.3f vs %.3f (x%.2f)\n", verdict, cur.Name, cur.Normalized, b.Normalized, ratio)
	}
	for name := range base {
		fmt.Fprintf(w, "GONE     %-36s in baseline only\n", name)
	}
	if len(regressions) > 0 {
		msg := "benchmark regression gate failed:"
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
