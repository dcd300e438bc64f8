package main

import (
	"context"
	"math/big"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/trace"
)

// startWorkers serves poolSize in-process TCP workers until the test
// ends.
func startWorkers(t *testing.T) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var addrs []string
	for i := 0; i < poolSize; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = dist.Serve(ctx, ln)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return addrs
}

// pool is one of the two worker pools a test runs on; dial returns a
// fresh session of it.
type pool struct {
	name string
	dial func(t *testing.T) dist.Transport
}

func pools(t *testing.T) []pool {
	addrs := startWorkers(t)
	return []pool{
		{"loopback", func(*testing.T) dist.Transport { return dist.NewLoopback(poolSize) }},
		{"tcp", func(t *testing.T) dist.Transport {
			tcp, err := dist.DialTCP(context.Background(), addrs)
			if err != nil {
				t.Fatal(err)
			}
			return tcp
		}},
	}
}

// TestDecoratedExecutionIsIdentical runs a one-round and a multiround
// plan with and without the timing decorator, on loopback and TCP, and
// requires identical answers and round statistics, with every span
// closed under the execution's parent.
func TestDecoratedExecutionIsIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	cases := []struct {
		family string
		eps    *big.Rat
		engine plan.Engine
	}{
		{"C3", nil, plan.OneRound},
		{"L4", new(big.Rat), plan.MultiRound},
	}
	for _, pl := range pools(t) {
		for _, c := range cases {
			q, err := query.ParseFamily(c.family)
			if err != nil {
				t.Fatal(err)
			}
			db := relation.MatchingDatabase(rng, q, 300)
			p, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: poolSize, Epsilon: c.eps})
			if err != nil {
				t.Fatal(err)
			}
			if p.Engine != c.engine {
				t.Fatalf("%s: planned %v, want %v", c.family, p.Engine, c.engine)
			}
			exec := func(tr dist.Transport) *plan.Result {
				defer tr.Close()
				res, err := p.Execute(db, plan.ExecOptions{
					Seed:      3,
					Transport: tr,
					Trace:     trace.New("t", 1),
					Recovery:  dist.RecoveryOptions{Enabled: true},
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", pl.name, c.family, err)
				}
				return res
			}
			plain := exec(pl.dial(t))
			rec := newRecorder()
			root := rec.begin("plan.execute", 0, 1)
			log := &opLog{}
			decorated := exec(wrapTransport(pl.dial(t), rec, root, 1, log))
			rec.end(root)

			if !reflect.DeepEqual(plain.Answers, decorated.Answers) {
				t.Errorf("%s/%s: decorated answers differ (%d vs %d)", pl.name, c.family, len(decorated.Answers), len(plain.Answers))
			}
			if !reflect.DeepEqual(plain.Stats, decorated.Stats) || plain.Rounds != decorated.Rounds {
				t.Errorf("%s/%s: decorated round stats differ:\n%+v\n%+v", pl.name, c.family, decorated.Stats, plain.Stats)
			}
			ix := rec.index()
			if len(ix.children[root]) == 0 || len(log.ops) == 0 {
				t.Errorf("%s/%s: decorator recorded %d spans, %d ops", pl.name, c.family, len(ix.children[root]), len(log.ops))
			}
			for _, s := range ix.spans {
				if s.ID != root && s.Parent != root {
					t.Errorf("%s/%s: span %s has parent %d, want %d", pl.name, c.family, s.Name, s.Parent, root)
				}
			}
		}
	}
}

// TestDecoratedDatalogIsIdentical evaluates transitive closure with
// plain and decorated Dial functions on both pools.
func TestDecoratedDatalogIsIdentical(t *testing.T) {
	prog, err := datalog.Parse(reachProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase(120)
	db.AddRelation(relation.SkewedZipf(rand.New(rand.NewPCG(5, 0)), "e", []string{"x", "y"}, 120, reachSkew))
	for _, pl := range pools(t) {
		eval := func(wrap bool) *datalog.Result {
			rec := newRecorder()
			dial := func(int) (dist.Transport, error) {
				tr := pl.dial(t)
				if wrap {
					tr = wrapTransport(tr, rec, 0, 1, &opLog{})
				}
				return tr, nil
			}
			res, err := datalog.Eval(prog, db, datalog.Options{P: poolSize, Seed: 2, Dial: dial})
			if err != nil {
				t.Fatalf("%s: %v", pl.name, err)
			}
			if wrap && len(rec.index().spans) == 0 {
				t.Errorf("%s: decorated evaluation recorded no spans", pl.name)
			}
			return res
		}
		plain, decorated := eval(false), eval(true)
		if !reflect.DeepEqual(plain.Answers, decorated.Answers) || plain.Iterations != decorated.Iterations {
			t.Errorf("%s: decorated answers differ (%d vs %d)", pl.name, len(decorated.Answers), len(plain.Answers))
		}
		if !reflect.DeepEqual(plain.Stats, decorated.Stats) {
			t.Errorf("%s: decorated round stats differ", pl.name)
		}
	}
}

// TestWrapTransportForwardsOptionalInterfaces checks the decorator
// offers Replaceable and SendTrace exactly when the inner transport
// does, so the cluster takes the same branches decorated or not.
func TestWrapTransportForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	full := wrapTransport(dist.NewLoopback(2), rec, 0, 1, &opLog{})
	if _, ok := full.(dist.Replaceable); !ok {
		t.Error("decorated loopback is not Replaceable")
	}
	if _, ok := full.(traceSender); !ok {
		t.Error("decorated loopback does not forward SendTrace")
	}
	bare := wrapTransport(struct{ dist.Transport }{dist.NewLoopback(2)}, rec, 0, 1, &opLog{})
	if _, ok := bare.(dist.Replaceable); ok {
		t.Error("decorated bare transport claims Replaceable")
	}
	if _, ok := bare.(traceSender); ok {
		t.Error("decorated bare transport claims SendTrace")
	}
}

// TestSelfTime checks that overlapping children count once.
func TestSelfTime(t *testing.T) {
	ix := &spanIndex{
		spans: []span{
			{ID: 1, Name: "root", Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 40},
			{ID: 3, Parent: 1, Start: 30, End: 50},
			{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped at the parent's end
		},
		children: map[int][]int{1: {2, 3, 4}},
	}
	if got, want := ix.self(1), time.Duration(100-40-10); got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
}
