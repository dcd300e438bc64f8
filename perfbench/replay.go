package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/hypercube"
	"repro/internal/localjoin"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/wire"
)

// replayer repeats a workload's requests through each layer's public
// functions, against the same workers and the same dataset snapshot
// the service reads, with every layer call inside a span.
type replayer struct {
	w     *workload
	s     *stack
	rec   *recorder
	qid   int
	state int // the dataset state the replayed reads must match

	// Per replayed query, keyed by query id.
	ljMax, ljSum map[int]time.Duration
	replication  map[int]float64
	rounds       map[int]int
	iterations   map[int]int

	// Write replay (ingest-mix): a maintainer of its own, fed the same
	// batch, on the replayer's copy of the dataset.
	maint  *hypercube.Maintainer
	wdb    [2]*relation.Database
	wstate int
}

func newReplayer(w *workload, s *stack, rec *recorder) (*replayer, error) {
	r := &replayer{
		w: w, s: s, rec: rec,
		ljMax: map[int]time.Duration{}, ljSum: map[int]time.Duration{},
		replication: map[int]float64{}, rounds: map[int]int{}, iterations: map[int]int{},
	}
	if !w.writes() {
		return r, nil
	}
	q, err := query.Parse(w.queryText)
	if err != nil {
		return nil, err
	}
	r.wdb[0] = w.db
	if r.wdb[1], _, err = relation.ApplyDelta(w.db, w.batch); err != nil {
		return nil, err
	}
	view, err := bindDB(r.wdb[0], q)
	if err != nil {
		return nil, err
	}
	if r.maint, err = hypercube.NewMaintainer(q, view, poolSize, hypercube.Options{Seed: 1}); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replayer) close() {
	if r.maint != nil {
		r.maint.Close()
	}
}

// bindDB is serve.Snapshot.Bind over a plain database: the query's
// relations, with the atoms' variables as schema.
func bindDB(db *relation.Database, q *query.Query) (*relation.Database, error) {
	view := relation.NewDatabase(db.N)
	for _, a := range q.Atoms {
		rel, ok := db.Relation(a.Name)
		if !ok {
			return nil, fmt.Errorf("no relation %s", a.Name)
		}
		view.AddRelation(&relation.Relation{Name: a.Name, Attrs: append([]string(nil), a.Vars...), Tuples: rel.Tuples})
	}
	return view, nil
}

// scopeStats restricts a catalog to the query's atoms, as the service
// does before planning.
func scopeStats(stats *relation.Stats, q *query.Query) *relation.Stats {
	scoped := &relation.Stats{Relations: make(map[string]*relation.RelationStats, q.NumAtoms())}
	for _, a := range q.Atoms {
		if rs := stats.Relation(a.Name); rs != nil {
			scoped.Relations[a.Name] = rs
		}
	}
	return scoped
}

// one replays one request (and, with a writer, one write) and the
// post-hoc layer replays over what it shipped. It returns an error when
// the replayed answers, bits, L or rounds differ from the oracle the
// served replies are checked against.
func (r *replayer) one(ctx context.Context) error {
	r.qid++
	qid := r.qid
	pr := r.s.probe
	pr.tag.Store(int64(qid))
	log := &opLog{}
	var res *result
	var err error
	if r.w.program != "" {
		res, err = r.datalog(ctx, qid, log)
	} else {
		res, err = r.conjunctive(ctx, qid, log)
	}
	if !pr.waitIdle(5 * time.Second) {
		return fmt.Errorf("replay %d: worker sessions did not close", qid)
	}
	if err != nil {
		return fmt.Errorf("replay %d: %w", qid, err)
	}
	if st, err := r.w.match(len(res.answers), answerHash(res.answers), res.cost, r.seed(qid)); err != nil || st != r.state {
		return fmt.Errorf("replay %d: state %d (want %d): %v", qid, st, r.state, err)
	}
	r.rounds[qid] = res.cost.rounds
	r.iterations[qid] = res.iterations
	if err := r.posthoc(qid, log, res.input); err != nil {
		return fmt.Errorf("replay %d: %w", qid, err)
	}
	if r.maint != nil {
		return r.write(qid)
	}
	return nil
}

// result is what a replayed read produced.
type result struct {
	answers    []relation.Tuple
	cost       cost
	iterations int
	input      int // input tuples the execution read
}

// seed is the hash seed replayed query qid uses; the replay cycles
// through the seeds as the served reads do.
func (r *replayer) seed(qid int) uint64 { return uint64(qid-1)%hashSeeds + 1 }

// conjunctive is the served /query path of a conjunctive query, called
// layer by layer: query.Parse, plan.Build over the snapshot's
// statistics, dist.DialTCP, plan.Execute over the decorated transport,
// and the session close.
func (r *replayer) conjunctive(ctx context.Context, qid int, log *opLog) (*result, error) {
	rec := r.rec
	root := rec.begin("replay.query", 0, qid)
	rootOpen := true
	endRoot := func() {
		if rootOpen {
			rec.end(root)
			rootOpen = false
		}
	}
	defer endRoot()
	var q *query.Query
	err := rec.timed("query.parse", root, qid, func() (err error) {
		q, err = query.Parse(r.w.queryText)
		return err
	})
	if err != nil {
		return nil, err
	}
	ds, ok := r.s.srv.Registry().Get(r.w.dataset)
	if !ok {
		return nil, fmt.Errorf("dataset %s is not registered", r.w.dataset)
	}
	sn := ds.Snapshot()
	view, err := sn.Bind(q)
	if err != nil {
		return nil, err
	}
	var eps *big.Rat
	if r.w.eps != "" {
		eps, _ = new(big.Rat).SetString(r.w.eps)
	}
	var pl *plan.Plan
	err = rec.timed("plan.build", root, qid, func() (err error) {
		stats, _ := sn.Stats()
		pl, err = plan.Build(q, scopeStats(stats, q), plan.Options{P: poolSize, Epsilon: eps})
		return err
	})
	if err != nil {
		return nil, err
	}
	var tcp *dist.TCP
	err = rec.timed("dist.dial", root, qid, func() (err error) {
		tcp, err = dist.DialTCP(ctx, r.s.addrs)
		return err
	})
	if err != nil {
		return nil, err
	}
	exec := rec.begin("plan.execute", root, qid)
	tr := wrapTransport(tcp, rec, exec, qid, log)
	res, err := pl.Execute(view, plan.ExecOptions{
		Seed:      r.seed(qid),
		Trace:     trace.New(fmt.Sprintf("replay-%d", qid), uint64(qid)),
		Transport: tr,
		Context:   ctx,
		Recovery:  dist.RecoveryOptions{Enabled: true, Spares: r.s.srv.Pool().Spares()},
	})
	rec.end(exec)
	closeErr := rec.timed("dist.close", root, qid, tcp.Close)
	endRoot()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	out := &result{answers: res.Answers, cost: cost{res.Stats.TotalBits(), res.Stats.MaxLoadTuples(), res.Rounds}, input: view.TotalTuples()}
	if pl.Engine == plan.OneRound && pl.Shares != nil {
		err = rec.timed("exchange.partition", 0, qid, func() error { return partitionAll(q, view, pl.Shares, r.seed(qid)) })
	}
	return out, err
}

// partitionAll routes every atom's relation through the plan's grid
// partitioner, as the one-round engine's scatter does.
func partitionAll(q *query.Query, view *relation.Database, shares *hypercube.Shares, seed uint64) error {
	hasher := hypercube.NewHasher(shares, seed)
	for _, a := range q.Atoms {
		rel, _ := view.Relation(a.Name)
		if _, err := exchange.Partition(a.Name, rel.Tuples, rel.Arity(), poolSize, hypercube.NewGridPartitioner(shares, hasher, a)); err != nil {
			return err
		}
	}
	return nil
}

// datalog is the served /query path of a Datalog program: datalog.Parse
// and datalog.Eval with a Dial that hands out decorated TCP sessions.
func (r *replayer) datalog(ctx context.Context, qid int, log *opLog) (*result, error) {
	rec := r.rec
	root := rec.begin("replay.query", 0, qid)
	var prog *datalog.Program
	err := rec.timed("datalog.parse", root, qid, func() (err error) {
		prog, err = datalog.Parse(r.w.program)
		return err
	})
	if err != nil {
		rec.end(root)
		return nil, err
	}
	ds, ok := r.s.srv.Registry().Get(r.w.dataset)
	if !ok {
		rec.end(root)
		return nil, fmt.Errorf("dataset %s is not registered", r.w.dataset)
	}
	db := ds.Snapshot().DB
	eval := rec.begin("datalog.eval", root, qid)
	dial := func(int) (dist.Transport, error) {
		var tcp *dist.TCP
		err := rec.timed("dist.dial", eval, qid, func() (err error) {
			tcp, err = dist.DialTCP(ctx, r.s.addrs)
			return err
		})
		if err != nil {
			return nil, err
		}
		return wrapTransport(tcp, rec, eval, qid, log), nil
	}
	res, err := datalog.Eval(prog, db, datalog.Options{P: poolSize, Seed: r.seed(qid), Context: ctx, Dial: dial})
	rec.end(eval)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	// Eval plans every rule body internally; time those plan.Build
	// calls on their own, over the input plus the derived facts.
	if err := rec.timed("plan.build", 0, qid, func() error { return buildRules(prog, db, res.Facts) }); err != nil {
		return nil, err
	}
	return &result{
		answers: res.Answers, cost: cost{res.Stats.TotalBits(), res.Stats.MaxLoadTuples(), res.Stats.NumRounds()},
		iterations: res.Iterations, input: db.TotalTuples(),
	}, nil
}

// buildRules plans every rule body of prog once over the input
// relations and the derived facts.
func buildRules(prog *datalog.Program, db *relation.Database, facts map[string][]relation.Tuple) error {
	full := relation.NewDatabase(db.N)
	for _, name := range db.Names() {
		rel, _ := db.Relation(name)
		full.AddRelation(rel)
	}
	for pred, ts := range facts {
		arity, _ := prog.Arity(pred)
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i)
		}
		full.AddRelation(&relation.Relation{Name: pred, Attrs: attrs, Tuples: ts})
	}
	stats := relation.CollectStats(full)
	for i := range prog.Rules {
		q, err := prog.Rules[i].BodyQuery()
		if err != nil {
			return err
		}
		if _, err := plan.Build(q, scopeStats(stats, q), plan.Options{P: poolSize}); err != nil {
			return err
		}
	}
	return nil
}

// posthoc replays, over what one execution shipped, the layers that
// run inside the engine and the workers: the wire codec on the
// delivered runs, the gather merge on the gathered runs, and each
// worker's local join on its delivered inputs.
func (r *replayer) posthoc(qid int, log *opLog, input int) error {
	rec := r.rec
	delivered := 0
	for _, op := range log.ops {
		for _, d := range op.ds {
			delivered += d.Buf.Len()
		}
	}
	if input > 0 {
		r.replication[qid] = float64(delivered) / float64(input)
	}
	streams, nframes, err := encodeAll(rec, qid, log)
	if err != nil {
		return err
	}
	if err := rec.timed("wire.decode", 0, qid, func() error { return decodeAll(streams, nframes) }); err != nil {
		return err
	}
	for _, op := range log.ops {
		if op.kind == opGather {
			_ = rec.timed("exchange.merge", 0, qid, func() error { exchange.MergeRuns(op.runs); return nil })
		}
	}
	return r.localJoins(qid, log)
}

// encodeAll fast-frames every delivery and delta run, one frame batch
// per worker per call as the TCP transport sends them, inside one
// wire.encode span. It returns the encoded streams.
func encodeAll(rec *recorder, qid int, log *opLog) ([][]byte, int, error) {
	var batches [][]*wire.Frame
	for _, op := range log.ops {
		byWorker := make(map[int][]*wire.Frame)
		for _, d := range op.ds {
			byWorker[d.To] = append(byWorker[d.To], &wire.Frame{Type: wire.TypeData, Data: wire.Data{
				Round: uint32(op.round), Dest: uint32(d.To), Rel: d.Rel, Buf: d.Buf,
			}})
		}
		for _, d := range op.deltas {
			byWorker[d.To] = append(byWorker[d.To], &wire.Frame{Type: wire.TypeDelta, Delta: wire.Delta{
				Round: uint32(op.round), Dest: uint32(d.To), Store: d.Store, View: d.View, Del: d.Del, Buf: d.Buf,
			}})
		}
		for w := 0; w < poolSize; w++ {
			if fs := byWorker[w]; len(fs) > 0 {
				batches = append(batches, fs)
			}
		}
	}
	segs := make([][][]byte, len(batches))
	nframes := 0
	err := rec.timed("wire.encode", 0, qid, func() error {
		for i, fs := range batches {
			_, bufs, err := wire.AppendFrames(nil, fs)
			if err != nil {
				return err
			}
			segs[i] = bufs
			nframes += len(fs)
		}
		return nil
	})
	streams := make([][]byte, len(segs))
	for i, bufs := range segs {
		streams[i] = bytes.Join(bufs, nil)
	}
	return streams, nframes, err
}

// decodeAll reads every stream back with the workers' trusted decoder.
func decodeAll(streams [][]byte, want int) error {
	got := 0
	for _, s := range streams {
		rd := wire.NewTrustedReader(bytes.NewReader(s))
		for {
			_, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			got++
		}
	}
	if got != want {
		return fmt.Errorf("decoded %d frames, encoded %d", got, want)
	}
	return nil
}

// shadowWorker rebuilds one worker's store from the logged calls, with
// the worker's semantics: runs accumulate per store name, retractions
// tombstone, extensions clear tombstones and may register a Δ view.
type shadowWorker struct {
	store map[string]*exchange.Column
	dead  map[string]*relation.TupleSet
}

func (sw *shadowWorker) add(name string, run *exchange.Buffer) {
	col := sw.store[name]
	if col == nil {
		col = &exchange.Column{}
		sw.store[name] = col
	}
	col.Add(run)
}

func (sw *shadowWorker) delta(d dist.DeltaDelivery) {
	ts := d.Buf.AppendTuples(nil)
	set := sw.dead[d.Store]
	if d.Del {
		if set == nil {
			set = relation.NewTupleSet(d.Buf.Arity(), len(ts))
			sw.dead[d.Store] = set
		}
		for _, t := range ts {
			set.Add(t)
		}
		return
	}
	if set != nil {
		for _, t := range ts {
			set.Remove(t)
		}
	}
	sw.add(d.Store, d.Buf)
	if d.View != "" {
		sw.add(d.View, d.Buf)
	}
}

func (sw *shadowWorker) tuples(name string) []relation.Tuple {
	col := sw.store[name]
	if col == nil {
		return nil
	}
	all := col.Tuples()
	set := sw.dead[name]
	if set == nil || set.Len() == 0 {
		return all
	}
	live := all[:0]
	for _, t := range all {
		if !set.Contains(t) {
			live = append(live, t)
		}
	}
	return live
}

// localJoins runs localjoin.Evaluate for every logged Join on every
// worker's rebuilt inputs, one span per worker evaluation, and records
// the slowest worker's and the summed evaluation time.
func (r *replayer) localJoins(qid int, log *opLog) error {
	workers := make([]*shadowWorker, poolSize)
	for i := range workers {
		workers[i] = &shadowWorker{store: map[string]*exchange.Column{}, dead: map[string]*relation.TupleSet{}}
	}
	perWorker := make([]time.Duration, poolSize)
	for _, op := range log.ops {
		switch op.kind {
		case opDeliver:
			for _, d := range op.ds {
				workers[d.To].add(d.Rel, d.Buf)
			}
		case opDelta:
			for _, d := range op.deltas {
				workers[d.To].delta(d)
			}
		case opJoin:
			q, err := query.Parse(op.spec.Query)
			if err != nil {
				return err
			}
			for w, sw := range workers {
				b := localjoin.Bindings{}
				for _, a := range q.Atoms {
					src := a.Name
					if mapped, ok := op.spec.Bindings[a.Name]; ok {
						src = mapped
					}
					b[a.Name] = sw.tuples(src)
				}
				var rows []relation.Tuple
				id := r.rec.begin("localjoin.evaluate", 0, qid)
				start := time.Now()
				rows, err = localjoin.Evaluate(q, b, localjoin.Strategy(op.spec.Strategy))
				perWorker[w] += time.Since(start)
				r.rec.end(id)
				if err != nil {
					return err
				}
				if len(rows) > 0 {
					out := exchange.NewBuffer(q.NumVars())
					for _, t := range rows {
						out.Append(t)
					}
					out.Seal()
					sw.add(op.spec.View, out)
				}
			}
		}
	}
	for _, d := range perWorker {
		r.ljSum[qid] += d
		r.ljMax[qid] = max(r.ljMax[qid], d)
	}
	return nil
}

// write replays one delta of the writer: relation.ApplyDelta on the
// replayer's copy of the dataset and Maintainer.ApplyDelta on its
// effects, checked against the answer difference of the two states.
func (r *replayer) write(qid int) error {
	from := r.wstate
	d := r.w.batch
	if from == 1 {
		d = relation.Delta{Deletes: r.w.batch.Appends}
	}
	var effects map[string]relation.Effect
	err := r.rec.timed("relation.apply_delta", 0, qid, func() (err error) {
		_, effects, err = relation.ApplyDelta(r.wdb[from], d)
		return err
	})
	if err != nil {
		return err
	}
	scoped := make(map[string]relation.Effect, len(effects))
	for name, eff := range effects {
		if r.maint.Fanout(name) > 0 && (len(eff.Added) > 0 || len(eff.Removed) > 0) {
			scoped[name] = eff
		}
	}
	var rep *hypercube.Report
	err = r.rec.timed("hypercube.maintain", 0, qid, func() (err error) {
		rep, err = r.maint.ApplyDelta(scoped)
		return err
	})
	if err != nil {
		return err
	}
	diff := r.w.states[1].count - r.w.states[0].count
	if from == 0 && rep.AnswersAdded != diff || from == 1 && rep.AnswersRemoved != diff {
		return fmt.Errorf("replayed maintenance changed +%d/-%d answers, ground truth differs by %d", rep.AnswersAdded, rep.AnswersRemoved, diff)
	}
	r.wstate = 1 - from
	return nil
}
