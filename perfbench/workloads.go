package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/datalog"
	"repro/internal/localjoin"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/serve"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"tri-bulk", "reach", "ingest-mix"}

const (
	// poolSize is p: the number of TCP workers every query runs on.
	poolSize = 8
	// allAnswers is the maxAnswers every read sends, so the whole answer
	// set comes back and can be checked.
	allAnswers = 1 << 30

	triVertices = 2000
	triEdges    = 20000
	reachN      = 400
	reachSkew   = 1.2
	chainN      = 4000
	chainBatch  = 32

	// hashSeeds is how many hash-function seeds the reads cycle
	// through (request seeds 1..hashSeeds), so the reported L is a
	// median over hash functions rather than one draw.
	hashSeeds = 32

	reachProgram = "tc(x,y) :- e(x,y). tc(x,z) :- tc(x,y), e(y,z). ?- tc(x,y)."
)

// expect is what every correct read of one dataset state carries. The
// answer count and hash come from a single-node ground truth; the costs
// per hash seed from a loopback run of the same plan with that seed
// (nil until those runs have been made).
type expect struct {
	count int
	hash  uint64
	costs []cost // indexed by request seed − 1
}

// cost is a run's communication record: the paper's bits, L and rounds.
type cost struct {
	bits   int64
	load   int64
	rounds int
}

// workload is one traffic mix: its generated inputs, the requests its
// clients send, and the oracle every reply is checked against.
type workload struct {
	name    string
	readers int
	dataset string
	// csv is the generated input exactly as uploaded; db is the same
	// input parsed the way the server parses it.
	csv map[string]string
	db  *relation.Database

	// queryText is the conjunctive query of a CQ workload; program is
	// the Datalog program of a recursive one. Exactly one is set.
	queryText string
	program   string
	eps       string
	// readBodies[i] is the read request with hash seed i+1.
	readBodies [][]byte

	// cqBody registers the continuous query (nil: none). A writer
	// alternates appendBody and deleteBody, moving the dataset between
	// states[0] and states[1].
	cqBody     []byte
	appendBody []byte
	deleteBody []byte
	batch      relation.Delta

	states []expect
}

// newWorkload generates the named workload's inputs from seed and
// computes its ground truth.
func newWorkload(name string, seed uint64) (*workload, error) {
	var w *workload
	switch name {
	case "tri-bulk":
		w = triBulk(seed)
	case "reach":
		w = reach(seed)
	case "ingest-mix":
		w = ingestMix(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	db, err := serve.DatabaseFromCSV(w.csv)
	if err != nil {
		return nil, fmt.Errorf("%s: generated input does not parse: %w", name, err)
	}
	w.db = db
	for seed := uint64(1); seed <= hashSeeds; seed++ {
		req := serve.QueryRequest{Dataset: w.dataset, Query: w.queryText, Program: w.program, Epsilon: w.eps, Seed: seed, MaxAnswers: allAnswers}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		w.readBodies = append(w.readBodies, body)
	}
	if err := w.groundTruth(); err != nil {
		return nil, fmt.Errorf("%s: ground truth: %w", name, err)
	}
	return w, nil
}

// rngFor derives a workload's input generator from the run seed.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// triBulk is the paper's triangle query on a random directed graph,
// uploaded three times as R, S and T.
func triBulk(seed uint64) *workload {
	rng := rngFor(seed, 0x7121)
	seen := make(map[[2]int]bool, triEdges)
	edges := relation.New("E", "src", "dst")
	for len(edges.Tuples) < triEdges {
		a, b := rng.IntN(triVertices)+1, rng.IntN(triVertices)+1
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		edges.Tuples = append(edges.Tuples, relation.Tuple{a, b})
	}
	text := csvText(edges)
	return &workload{
		name:      "tri-bulk",
		readers:   1,
		dataset:   "tri",
		csv:       map[string]string{"R": text, "S": text, "T": text},
		queryText: "q(x,y,z) = R(x,y), S(y,z), T(z,x)",
	}
}

// reach is Datalog transitive closure over a Zipf edge relation. The
// graph's shape is fixed and the seed relabels its vertices: every seed
// then has the same closure size, iteration count and communication,
// so runs on different seeds measure the same work, while the labels
// still decide which worker each tuple hashes to.
func reach(seed uint64) *workload {
	e := relation.SkewedZipf(rngFor(1, 0x4eac), "e", []string{"x", "y"}, reachN, reachSkew)
	perm := rngFor(seed, 0x4eac).Perm(reachN)
	for _, t := range e.Tuples {
		t[0], t[1] = perm[t[0]-1]+1, perm[t[1]-1]+1
	}
	return &workload{
		name:    "reach",
		readers: 2,
		dataset: "graph",
		csv:     map[string]string{"e": csvText(e)},
		program: reachProgram,
	}
}

// ingestMix reads the L4 chain at ε = 0 while a writer appends and
// deletes one fixed batch of S1 tuples absent from the base relation.
func ingestMix(seed uint64) *workload {
	rng := rngFor(seed, 0x1a9e)
	q := query.Chain(4)
	base := relation.MatchingDatabase(rng, q, chainN)
	csv := make(map[string]string, len(q.Atoms))
	for _, a := range q.Atoms {
		rel, _ := base.Relation(a.Name)
		csv[a.Name] = csvText(rel)
	}
	first := q.Atoms[0].Name
	s1, _ := base.Relation(first)
	present := make(map[[2]int]bool, len(s1.Tuples))
	for _, t := range s1.Tuples {
		present[[2]int{t[0], t[1]}] = true
	}
	var batch [][]int
	for len(batch) < chainBatch {
		t := [2]int{rng.IntN(chainN) + 1, rng.IntN(chainN) + 1}
		if present[t] {
			continue
		}
		present[t] = true
		batch = append(batch, []int{t[0], t[1]})
	}
	appendBody, _ := json.Marshal(serve.DeltaRequest{Appends: map[string][][]int{first: batch}})
	deleteBody, _ := json.Marshal(serve.DeltaRequest{Deletes: map[string][][]int{first: batch}})
	cqBody, _ := json.Marshal(serve.ContinuousRequest{Name: "chain-l4", Dataset: "chain", Query: q.String()})
	tuples := make([]relation.Tuple, len(batch))
	for i, t := range batch {
		tuples[i] = relation.Tuple(t)
	}
	return &workload{
		name:       "ingest-mix",
		readers:    1,
		dataset:    "chain",
		csv:        csv,
		queryText:  q.String(),
		eps:        "0",
		cqBody:     cqBody,
		appendBody: appendBody,
		deleteBody: deleteBody,
		batch:      relation.Delta{Appends: map[string][]relation.Tuple{first: tuples}},
	}
}

// csvText renders a relation as the CSV the server ingests.
func csvText(rel *relation.Relation) string {
	var b strings.Builder
	_ = relation.WriteCSV(&b, rel) // a strings.Builder write cannot fail
	return b.String()
}

// writes reports whether the workload has a writer.
func (w *workload) writes() bool { return w.appendBody != nil }

// groundTruth fills states from single-node evaluations: localjoin for
// a conjunctive query (on both dataset states when there is a writer),
// Datalog on the in-process loopback for a program.
func (w *workload) groundTruth() error {
	if w.program != "" {
		prog, err := datalog.Parse(w.program)
		if err != nil {
			return err
		}
		st := expect{}
		for seed := uint64(1); seed <= hashSeeds; seed++ {
			res, err := datalog.Eval(prog, w.db, datalog.Options{P: poolSize, Seed: seed})
			if err != nil {
				return err
			}
			h := answerHash(res.Answers)
			if seed == 1 {
				st.count, st.hash = len(res.Answers), h
			} else if len(res.Answers) != st.count || h != st.hash {
				return fmt.Errorf("hash seed %d gives another answer set (%d answers, seed 1 gives %d)", seed, len(res.Answers), st.count)
			}
			st.costs = append(st.costs, cost{res.Stats.TotalBits(), res.Stats.MaxLoadTuples(), res.Stats.NumRounds()})
		}
		w.states = []expect{st}
		return nil
	}
	q, err := query.Parse(w.queryText)
	if err != nil {
		return err
	}
	dbs := []*relation.Database{w.db}
	if w.writes() {
		next, _, err := relation.ApplyDelta(w.db, w.batch)
		if err != nil {
			return err
		}
		dbs = append(dbs, next)
	}
	for _, db := range dbs {
		b, err := localjoin.FromDatabase(q, db)
		if err != nil {
			return err
		}
		ans, err := localjoin.Evaluate(q, b, localjoin.Default)
		if err != nil {
			return err
		}
		ans = relation.DedupSort(ans)
		w.states = append(w.states, expect{count: len(ans), hash: answerHash(ans)})
	}
	if len(w.states) == 2 && w.states[0].count == w.states[1].count {
		return fmt.Errorf("the write batch does not change the answer count")
	}
	return nil
}

// answerHash is an order-independent hash of an answer set: the sum of
// a per-tuple mix, so the same set hashes alike in any order.
func answerHash[T ~[]int](ts []T) uint64 {
	var sum uint64
	for _, t := range ts {
		h := uint64(len(t))
		for _, v := range t {
			h = mix64(h ^ uint64(v))
		}
		sum += h
	}
	return sum
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkRead matches a /query reply, sent with hash seed seed, to a
// dataset state and checks it against that state's oracle. It returns
// the state index.
func (w *workload) checkRead(rep *serve.QueryResponse, seed uint64) (int, error) {
	if rep.Truncated || len(rep.Answers) != rep.AnswerCount {
		return -1, fmt.Errorf("reply holds %d of %d answers", len(rep.Answers), rep.AnswerCount)
	}
	return w.match(rep.AnswerCount, answerHash(rep.Answers), cost{rep.TotalBits, rep.MaxLoadTuples, rep.Rounds}, seed)
}

// match finds the dataset state whose answer count and hash equal
// count and h, and checks the run's cost against that state's loopback
// cost for the hash seed.
func (w *workload) match(count int, h uint64, c cost, seed uint64) (int, error) {
	for i, st := range w.states {
		if count != st.count || h != st.hash {
			continue
		}
		if st.costs != nil && c != st.costs[seed-1] {
			want := st.costs[seed-1]
			return i, fmt.Errorf("state %d, seed %d: bits/L/rounds %d/%d/%d, loopback run of the plan gives %d/%d/%d",
				i, seed, c.bits, c.load, c.rounds, want.bits, want.load, want.rounds)
		}
		return i, nil
	}
	counts := make([]int, len(w.states))
	for i, st := range w.states {
		counts[i] = st.count
	}
	return -1, fmt.Errorf("answer set (%d answers) matches no ground truth (counts %v)", count, counts)
}

// checkWrite checks a delta reply: the whole batch applied and the
// continuous query maintained by exactly the answer difference of the
// two states.
func (w *workload) checkWrite(rep *serve.DeltaResponse, appended bool) error {
	diff := w.states[1].count - w.states[0].count
	n := chainBatch
	if appended && rep.Appended != n || !appended && rep.Deleted != n {
		return fmt.Errorf("delta applied %d appends, %d deletes; batch has %d", rep.Appended, rep.Deleted, n)
	}
	if len(rep.Maintained) != 1 {
		return fmt.Errorf("delta maintained %d continuous queries, want 1", len(rep.Maintained))
	}
	m := rep.Maintained[0]
	if m.Error != "" {
		return fmt.Errorf("continuous query: %s", m.Error)
	}
	if appended && (m.AnswersAdded != diff || m.AnswersRemoved != 0) ||
		!appended && (m.AnswersRemoved != diff || m.AnswersAdded != 0) {
		return fmt.Errorf("continuous query changed by +%d/-%d, ground truth differs by %d", m.AnswersAdded, m.AnswersRemoved, diff)
	}
	return nil
}
