// Command perfbench is the repository's end-to-end benchmark. It serves
// one workload through POST /query (and POST /datasets/{name}/delta) of
// an in-process serve.Server, whose queries run on eight dist.Serve
// workers listening on 127.0.0.1 sockets, and checks every reply
// against a single-node ground truth.
//
//	perfbench --workload tri-bulk --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// repeats the workload with outside-in wrappers and replays it through
// each layer's public functions, and reports the per-layer split. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md describes
// the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/query"
)

// setupRuns is how many times a run sets the system up; setup_s is the
// median over the half of the setups with the least CPU steal.
const setupRuns = 15

// window is the length of the slices a load period is cut into. The
// wall-clock metrics are taken over the quietest third of the windows,
// ranked by the CPU steal measured in each, so a burst of steal on a
// shared machine does not move them.
const window = time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansDir string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input generator seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: none)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.workload == "" || o.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.print()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	env       string
	firstErr  error
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one line per metric, the run environment, and the JSON
// result as the last line.
func (r *report) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Println(r.env)
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", r.firstErr)
	}
	b, _ := json.Marshal(r) // only numbers, strings and bools
	fmt.Println(string(b))
}

// run sets the workload up setupRuns times, keeps the last stack, and
// measures on it.
func run(o options) (*report, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	var s *stack
	var setups, steals []float64
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		var pr *probe
		if o.trace {
			pr = newProbe()
		}
		ticks := readCPUTicks()
		start := time.Now()
		if s, err = startStack(pr); err != nil {
			return nil, err
		}
		if err := s.setup(w); err != nil {
			s.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		steals = append(steals, stealShare(ticks, readCPUTicks()))
	}
	defer s.close()
	if err := learnCosts(s, w); err != nil {
		return nil, fmt.Errorf("loopback oracle: %w", err)
	}
	rep := &report{Metrics: map[string]metric{}}
	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		endToEnd(rep, s, w, d)
		rep.set("setup_s", "s", median(quietest(setups, steals, (setupRuns+1)/2)))
		rep.set("rss_mb", "MB", peakRSSMB())
	} else if err := perLayer(rep, s, w, d, o); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// learnCosts completes the oracle of a conjunctive workload: for each
// dataset state, the bits, L and rounds of a loopback run of the very
// plan the service cached for it. A writer's states are visited by
// writing; the stack ends in state 0.
func learnCosts(s *stack, w *workload) error {
	if w.program != "" {
		return nil // datalog.Eval on loopback already gave them
	}
	q, err := query.Parse(w.queryText)
	if err != nil {
		return err
	}
	for st := range w.states {
		if st > 0 {
			if _, err := s.write(w); err != nil {
				return err
			}
		}
		_, rep, got, err := s.read(w)
		if err != nil {
			return err
		}
		if got != st {
			return fmt.Errorf("read matched state %d, want %d", got, st)
		}
		pl, ok := s.srv.PlanCache().Get(rep.Fingerprint)
		if !ok {
			return fmt.Errorf("served plan %s is not in the plan cache", rep.Fingerprint)
		}
		ds, _ := s.srv.Registry().Get(w.dataset)
		view, err := ds.Snapshot().Bind(q)
		if err != nil {
			return err
		}
		costs := make([]cost, 0, hashSeeds)
		for seed := uint64(1); seed <= hashSeeds; seed++ {
			res, err := pl.Execute(view, plan.ExecOptions{Seed: seed})
			if err != nil {
				return err
			}
			if len(res.Answers) != w.states[st].count || answerHash(res.Answers) != w.states[st].hash {
				return fmt.Errorf("loopback run of the plan gives %d answers, ground truth %d", len(res.Answers), w.states[st].count)
			}
			costs = append(costs, cost{res.Stats.TotalBits(), res.Stats.MaxLoadTuples(), res.Rounds})
		}
		w.states[st].costs = costs
	}
	if len(w.states) > 1 {
		if _, err := s.write(w); err != nil {
			return err
		}
		if _, _, got, err := s.read(w); err != nil || got != 0 {
			return fmt.Errorf("read after the delete: state %d, %v", got, err)
		}
	}
	return nil
}

// loadResult is one closed-loop load period.
type loadResult struct {
	wall, cpu  time.Duration
	steal      float64
	marks      []mark          // at start and at every window boundary
	reads      []time.Duration // latencies of correct reads
	doneAt     []time.Duration // when each correct read completed, since start
	writes     []time.Duration // latencies of correct writes
	overhead   []float64       // traced: client latency minus handler time, ms
	handler    []float64       // traced: handler time, ms
	replyBytes int64
	attempted  int64
	failed     int64
	firstErr   error
}

// runLoad drives the workload's closed-loop clients for d: its readers
// and, if it has one, its writer. A request started before the deadline
// is waited for and counted.
func runLoad(s *stack, w *workload, d time.Duration) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	res.marks = []mark{takeMark()}
	start := time.Now()
	deadline := start.Add(d)
	stop := make(chan struct{})
	var wg, sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				res.marks = append(res.marks, takeMark())
			case <-stop:
				return
			}
		}
	}()
	for i := 0; i < w.readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c, _, _, err := s.read(w)
				mu.Lock()
				res.attempted++
				mu.Unlock()
				if err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				res.reads = append(res.reads, c.lat)
				res.doneAt = append(res.doneAt, time.Since(start))
				res.replyBytes += int64(len(c.body))
				if s.probe != nil && s.probe.on.Load() {
					if h, ok := s.probe.handlerTime(c.id); ok {
						res.handler = append(res.handler, ms(h))
						res.overhead = append(res.overhead, ms(c.lat-h))
					}
				}
				mu.Unlock()
			}
		}()
	}
	if w.writes() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c, err := s.write(w)
				mu.Lock()
				res.attempted++
				mu.Unlock()
				if err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				res.writes = append(res.writes, c.lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - res.marks[0].cpu
	close(stop)
	sampler.Wait()
	res.steal = stealShare(res.marks[0].ticks, readCPUTicks())
	return res
}

// mark is the machine's and the process's CPU counters at one instant.
type mark struct {
	ticks cpuTicks
	cpu   time.Duration
}

func takeMark() mark { return mark{readCPUTicks(), cpuTime()} }

// quiet is what the quieter windows of a load period measured.
type quiet struct {
	qps, p50, p90 float64
	cpuPerRead    float64 // ms
	steal         float64
}

// windowed cuts the load period into whole windows by read completion
// time, keeps the third of them with the least CPU steal, and returns
// over the kept windows the completed-read rate, the p50 and p90 read
// latencies, the process CPU per read, and the mean steal.
func windowed(lr *loadResult) quiet {
	n := max(len(lr.marks)-1, 1)
	lats := make([][]float64, n)
	for i, at := range lr.doneAt {
		if k := int(at / window); k < n {
			lats[k] = append(lats[k], ms(lr.reads[i]))
		}
	}
	steals := make([]float64, n)
	for k := range steals {
		if k+1 < len(lr.marks) {
			steals[k] = stealShare(lr.marks[k].ticks, lr.marks[k+1].ticks)
		}
	}
	kept := leastSteal(steals)[:(n+2)/3]
	var pooled []float64
	var q quiet
	var cpu time.Duration
	for _, k := range kept {
		pooled = append(pooled, lats[k]...)
		q.steal += steals[k] / float64(len(kept))
		if k+1 < len(lr.marks) {
			cpu += lr.marks[k+1].cpu - lr.marks[k].cpu
		}
	}
	q.qps = float64(len(pooled)) / (float64(len(kept)) * window.Seconds())
	q.p50, q.p90 = quantile(pooled, 0.5), quantile(pooled, 0.9)
	if len(pooled) > 0 {
		q.cpuPerRead = ms(cpu) / float64(len(pooled))
	}
	return q
}

// leastSteal returns the indices of steals ordered from the least to
// the most steal.
func leastSteal(steals []float64) []int {
	order := make([]int, len(steals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return steals[order[i]] < steals[order[j]] })
	return order
}

// quietest returns the n values whose measurement saw the least CPU
// steal.
func quietest(vals, steals []float64, n int) []float64 {
	out := make([]float64, 0, n)
	for _, i := range leastSteal(steals)[:n] {
		out = append(out, vals[i])
	}
	return out
}

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// baseCost is the mean over the hash seeds of the base state's bits
// and L: the loopback runs every served reply of that state and seed
// was checked to equal.
func baseCost(w *workload) (bits, load float64) {
	for _, c := range w.states[0].costs {
		bits += float64(c.bits)
		load += float64(c.load)
	}
	n := float64(len(w.states[0].costs))
	return bits / n, load / n
}

// perRead divides a total by the number of correct reads.
func perRead(total float64, lr *loadResult) float64 {
	if len(lr.reads) == 0 {
		return 0
	}
	return total / float64(len(lr.reads))
}

// endToEnd measures the untraced run.
func endToEnd(rep *report, s *stack, w *workload, d time.Duration) {
	lr := runLoad(s, w, d)
	rep.Attempted, rep.Failed, rep.firstErr = lr.attempted, lr.failed, lr.firstErr
	q := windowed(lr)
	rep.set("qps", "1/s", q.qps)
	rep.set("lat_p50_ms", "ms", q.p50)
	rep.set("cpu_ms_per_query", "ms", q.cpuPerRead)
	bits, load := baseCost(w)
	rep.set("bits_per_query", "count", bits)
	rep.set("max_load_tuples", "count", load)
	rep.env = fmt.Sprintf("%s kept_windows_steal=%.3f reads=%d writes=%d wall=%.2fs",
		runEnv(lr.steal), q.steal, len(lr.reads), len(lr.writes), lr.wall.Seconds())
}

// perLayer measures the traced run in three equal periods: the served
// load untraced (the base for trace.overhead and the runtime and write
// figures), the served load with the wrappers recording, and the
// replay through public calls.
func perLayer(rep *report, s *stack, w *workload, d time.Duration, o options) error {
	pr := s.probe
	period := d / 3

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := runLoad(s, w, period)
	runtime.ReadMemStats(&m1)

	counters0, err := scrapeCounters(s)
	if err != nil {
		return err
	}
	pr.reset()
	pr.on.Store(true)
	traced := runLoad(s, w, period)
	pr.on.Store(false)
	counters1, err := scrapeCounters(s)
	if err != nil {
		return err
	}
	accepted, sockBytes := pr.accepted.Load(), pr.sockBytes.Load()

	rec := newRecorder()
	rp, err := newReplayer(w, s, rec)
	if err != nil {
		return err
	}
	defer rp.close()
	if !s.nextAdd {
		rp.state = 1
	}
	pr.reset()
	pr.on.Store(true)
	ctx := context.Background()
	var replayErr error
	replays, replayFailed := int64(0), int64(0)
	tick := readCPUTicks()
	for end := time.Now().Add(period); replays == 0 || time.Now().Before(end); {
		replays++
		if err := rp.one(ctx); err != nil {
			replayFailed++
			if replayErr == nil {
				replayErr = err
			}
			if replayFailed > 3 {
				break
			}
		}
	}
	pr.on.Store(false)
	steal := stealShare(tick, readCPUTicks())

	rep.Attempted = base.attempted + traced.attempted + replays
	rep.Failed = base.failed + traced.failed + replayFailed
	for _, e := range []error{base.firstErr, traced.firstErr, replayErr} {
		if rep.firstErr == nil {
			rep.firstErr = e
		}
	}

	reads := float64(len(traced.reads))
	rep.set("serve.handler_ms", "ms", median(traced.handler))
	rep.set("serve.client_overhead_ms", "ms", median(traced.overhead))
	rep.set("serve.reply_kb", "kB", perRead(float64(traced.replyBytes)/1000, traced))
	rep.set("serve.plan_cache_hit_rate", "ratio", hitRate(counters0, counters1, "mpcserve_plan_cache"))
	rep.set("serve.stats_cache_hit_rate", "ratio", hitRate(counters0, counters1, "mpcserve_stats_cache"))
	rep.set("lat_p90_ms", "ms", windowed(base).p90)
	rep.set("write_p50_ms", "ms", quantile(msList(base.writes), 0.5))
	rep.set("write_p90_ms", "ms", quantile(msList(base.writes), 0.9))
	rep.set("error_rate", "ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	rep.set("dist.sessions_per_query", "count", float64(accepted)/max(reads, 1))
	rep.set("wire.socket_kb_per_query", "kB", float64(sockBytes)/1000/max(reads, 1))
	bits, _ := baseCost(w)
	rep.set("wire.bytes_per_model_bit", "ratio", float64(sockBytes)/max(reads, 1)/bits)
	rep.set("runtime.alloc_mb_per_query", "MB", perRead(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), base))
	rep.set("runtime.gc_per_query", "count", perRead(float64(m1.NumGC-m0.NumGC), base))
	cpuBase, cpuTraced := perRead(ms(base.cpu), base), perRead(ms(traced.cpu), traced)
	if cpuBase > 0 {
		rep.set("trace.overhead", "ratio", cpuTraced/cpuBase)
	} else {
		rep.set("trace.overhead", "ratio", 0)
	}
	layerSplit(rep, rec.index(), rp, pr)
	rep.env = fmt.Sprintf("%s served_reads=%d/%d replays=%d replay_steal=%.3f",
		runEnv(traced.steal), len(base.reads), len(traced.reads), replays, steal)
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rep.env += " spans=" + path
	}
	return nil
}

// layerSplit reports the replay's per-layer medians over replayed
// queries.
func layerSplit(rep *report, ix *spanIndex, rp *replayer, pr *probe) {
	qids := make([]int, 0, rp.qid)
	for q := 1; q <= rp.qid; q++ {
		qids = append(qids, q)
	}
	// med is the median over replayed queries of a per-query figure.
	med := func(per func(q int) float64) float64 {
		xs := make([]float64, 0, len(qids))
		for _, q := range qids {
			xs = append(xs, per(q))
		}
		return median(xs)
	}
	spanMS := func(name string, self bool) float64 {
		m := ix.perQuery(name, self)
		return med(func(q int) float64 { return ms(m[q]) })
	}
	rep.set("query.parse_us", "us", spanMS("query.parse", false)*1000)
	rep.set("datalog.parse_us", "us", spanMS("datalog.parse", false)*1000)
	rep.set("plan.build_ms", "ms", spanMS("plan.build", false))
	rep.set("relation.apply_delta_ms", "ms", spanMS("relation.apply_delta", false))
	rep.set("hypercube.maintain_ms", "ms", spanMS("hypercube.maintain", false))
	rep.set("exchange.partition_ms", "ms", spanMS("exchange.partition", false))
	rep.set("exchange.merge_ms", "ms", spanMS("exchange.merge", false))
	rep.set("wire.encode_ms", "ms", spanMS("wire.encode", false))
	rep.set("wire.decode_ms", "ms", spanMS("wire.decode", false))
	rep.set("datalog.eval_ms", "ms", spanMS("datalog.eval", false))
	for _, op := range []string{"dial", "deliver", "barrier", "join", "gather", "close"} {
		rep.set("dist."+op+"_ms", "ms", spanMS("dist."+op, false))
	}
	selfMS := ix.perQuery("plan.execute", true)
	for q, d := range ix.perQuery("datalog.eval", true) {
		selfMS[q] += d
	}
	rep.set("dist.coordinator_self_ms", "ms", med(func(q int) float64 { return ms(selfMS[q]) }))
	rep.set("hypercube.replication", "ratio", med(func(q int) float64 { return rp.replication[q] }))
	rep.set("localjoin.worker_eval_max_ms", "ms", med(func(q int) float64 { return ms(rp.ljMax[q]) }))
	rep.set("localjoin.worker_eval_sum_ms", "ms", med(func(q int) float64 { return ms(rp.ljSum[q]) }))
	rep.set("multiround.rounds", "count", med(func(q int) float64 { return float64(rp.rounds[q]) }))
	rep.set("datalog.iterations", "count", med(func(q int) float64 { return float64(rp.iterations[q]) }))

	// Worker sessions of the replay, charged to the query that opened
	// them: busy is a session's life minus its time blocked in Read.
	busy := map[int][]time.Duration{}
	wait := map[int]time.Duration{}
	pr.mu.Lock()
	for _, ss := range pr.sessions {
		if busy[ss.qid] == nil {
			busy[ss.qid] = make([]time.Duration, poolSize)
		}
		busy[ss.qid][ss.worker] += ss.busy()
		wait[ss.qid] += ss.readWait
	}
	pr.mu.Unlock()
	rep.set("dist.worker_busy_ms", "ms", med(func(q int) float64 {
		var sum time.Duration
		for _, b := range busy[q] {
			sum += b
		}
		return ms(sum)
	}))
	rep.set("dist.worker_busy_max_ms", "ms", med(func(q int) float64 {
		var mx time.Duration
		for _, b := range busy[q] {
			mx = max(mx, b)
		}
		return ms(mx)
	}))
	rep.set("dist.worker_wait_ms", "ms", med(func(q int) float64 { return ms(wait[q]) }))

	// Coverage: the part of each replayed query that its top-level
	// layer spans account for.
	cover := map[int]float64{}
	for _, sp := range ix.spans {
		if sp.Name == "replay.query" && sp.End > sp.Start {
			cover[sp.QID] = float64(ix.covered(sp.ID)) / float64(sp.End-sp.Start)
		}
	}
	rep.set("trace.coverage", "ratio", med(func(q int) float64 { return cover[q] }))
}

// scrapeCounters reads the service's counters from GET /metrics.
func scrapeCounters(s *stack) (map[string]float64, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// hitRate is hits over lookups of a cache between two scrapes; 0 when
// the period made no lookups.
func hitRate(a, b map[string]float64, prefix string) float64 {
	hits := b[prefix+"_hits_total"] - a[prefix+"_hits_total"]
	misses := b[prefix+"_misses_total"] - a[prefix+"_misses_total"]
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
