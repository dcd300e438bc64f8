package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/exchange"
	"repro/internal/wire"
)

// probe collects what the outside-in wrappers around the worker
// listeners and the service handler observe. Recording is off until
// enabled, so one stack can be measured with and without tracing.
type probe struct {
	on atomic.Bool
	// tag is the replayed query id new worker sessions are charged to.
	tag atomic.Int64

	accepted  atomic.Int64 // worker sessions accepted while on
	sockBytes atomic.Int64 // bytes read and written on them
	open      atomic.Int64 // recorded sessions not yet closed

	mu       sync.Mutex
	handler  map[string]time.Duration // request id → handler time
	sessions []sessionRec
}

func newProbe() *probe { return &probe{handler: make(map[string]time.Duration)} }

// sessionRec is one worker session seen from the worker's side.
type sessionRec struct {
	worker   int
	qid      int
	life     time.Duration // accept to close
	readWait time.Duration // blocked in Read
}

// busy is the session's time not blocked waiting for the coordinator.
func (s sessionRec) busy() time.Duration { return s.life - s.readWait }

// reset drops everything recorded so far.
func (p *probe) reset() {
	p.accepted.Store(0)
	p.sockBytes.Store(0)
	p.mu.Lock()
	p.handler = make(map[string]time.Duration)
	p.sessions = nil
	p.mu.Unlock()
}

// waitIdle waits until every recorded worker session has closed, so
// the sessions of one replayed query are complete before the next one
// starts. It gives up after limit.
func (p *probe) waitIdle(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for p.open.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// listener wraps worker w's listener so that its sessions are counted
// and timed while the probe is on.
func (p *probe) listener(ln net.Listener, w int) net.Listener {
	return &probeListener{Listener: ln, p: p, worker: w}
}

type probeListener struct {
	net.Listener
	p      *probe
	worker int
}

func (l *probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.p.on.Load() {
		return c, err
	}
	l.p.accepted.Add(1)
	l.p.open.Add(1)
	return &probeConn{Conn: c, p: l.p, rec: sessionRec{worker: l.worker, qid: int(l.p.tag.Load())}, start: time.Now()}, nil
}

// probeConn times one worker session. A session's reads, writes and
// close all run on its own goroutine, so the fields need no lock.
type probeConn struct {
	net.Conn
	p      *probe
	rec    sessionRec
	start  time.Time
	closed bool
}

func (c *probeConn) Read(b []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(b)
	c.rec.readWait += time.Since(t)
	c.p.sockBytes.Add(int64(n))
	return n, err
}

func (c *probeConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.sockBytes.Add(int64(n))
	return n, err
}

func (c *probeConn) Close() error {
	err := c.Conn.Close()
	if !c.closed {
		c.closed = true
		c.rec.life = time.Since(c.start)
		c.p.mu.Lock()
		c.p.sessions = append(c.p.sessions, c.rec)
		c.p.mu.Unlock()
		c.p.open.Add(-1)
	}
	return err
}

// reqIDHeader carries the client's request id, so the handler time of
// a request can be matched with its client-observed latency.
const reqIDHeader = "X-Bench-Request"

// handlerWrap times every request the service handler serves while the
// probe is on.
func (p *probe) handlerWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		if id := r.Header.Get(reqIDHeader); id != "" {
			p.mu.Lock()
			p.handler[id] = d
			p.mu.Unlock()
		}
	})
}

// handlerTime returns the recorded handler time of request id.
func (p *probe) handlerTime(id string) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.handler[id]
	return d, ok
}

// opKind names a recorded transport call.
type opKind int

const (
	opDeliver opKind = iota
	opDelta
	opJoin
	opGather
)

// transportOp is one data-carrying transport call, kept for the
// post-hoc layer replays. Sealed runs are immutable, so keeping them
// by reference is safe.
type transportOp struct {
	kind   opKind
	round  int
	ds     []exchange.Delivery  // opDeliver
	spec   dist.JoinSpec        // opJoin
	runs   []*exchange.Buffer   // opGather: the gathered runs
	deltas []dist.DeltaDelivery // opDelta
}

// opLog is the ordered record of one execution's transport calls.
type opLog struct {
	mu  sync.Mutex
	ops []transportOp
}

func (l *opLog) add(op transportOp) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// timedTransport decorates a dist.Transport: every call becomes a span
// under parent, and the data-carrying calls are logged. wrapTransport
// adds the Replaceable and SendTrace forwards exactly when the inner
// transport has them, so the cluster takes the same recovery and
// tracing branches as it would undecorated.
type timedTransport struct {
	inner  dist.Transport
	rec    *recorder
	parent int
	qid    int
	log    *opLog
}

func (t *timedTransport) span(name string, fn func() error) error {
	return t.rec.timed(name, t.parent, t.qid, fn)
}

func (t *timedTransport) Workers() int { return t.inner.Workers() }

func (t *timedTransport) Deliver(ctx context.Context, round int, ds []exchange.Delivery) error {
	t.log.add(transportOp{kind: opDeliver, round: round, ds: ds})
	return t.span("dist.deliver", func() error { return t.inner.Deliver(ctx, round, ds) })
}

func (t *timedTransport) ApplyDelta(ctx context.Context, round int, ds []dist.DeltaDelivery) error {
	t.log.add(transportOp{kind: opDelta, round: round, deltas: ds})
	return t.span("dist.apply_delta", func() error { return t.inner.ApplyDelta(ctx, round, ds) })
}

func (t *timedTransport) Barrier(ctx context.Context, round int) error {
	return t.span("dist.barrier", func() error { return t.inner.Barrier(ctx, round) })
}

func (t *timedTransport) Join(ctx context.Context, spec dist.JoinSpec) error {
	t.log.add(transportOp{kind: opJoin, spec: spec})
	return t.span("dist.join", func() error { return t.inner.Join(ctx, spec) })
}

func (t *timedTransport) Gather(ctx context.Context, view string) ([]*exchange.Buffer, error) {
	var runs []*exchange.Buffer
	err := t.span("dist.gather", func() error {
		var err error
		runs, err = t.inner.Gather(ctx, view)
		return err
	})
	if err == nil {
		t.log.add(transportOp{kind: opGather, runs: runs})
	}
	return runs, err
}

func (t *timedTransport) Close() error {
	return t.span("dist.close", t.inner.Close)
}

// traceSender mirrors the optional interface a dist.Cluster probes for
// to propagate span context to workers.
type traceSender interface {
	SendTrace(ctx context.Context, h wire.TraceHeader) error
}

type traceForward struct {
	t     *timedTransport
	inner traceSender
}

func (f traceForward) SendTrace(ctx context.Context, h wire.TraceHeader) error {
	return f.t.span("dist.send_trace", func() error { return f.inner.SendTrace(ctx, h) })
}

type replaceForward struct {
	t     *timedTransport
	inner dist.Replaceable
}

func (f replaceForward) ReplaceWorker(ctx context.Context, w int) error {
	return f.t.span("dist.replace_worker", func() error { return f.inner.ReplaceWorker(ctx, w) })
}

func (f replaceForward) JoinWorker(ctx context.Context, w int, spec dist.JoinSpec) error {
	return f.t.span("dist.join_worker", func() error { return f.inner.JoinWorker(ctx, w, spec) })
}

func (f replaceForward) Ping(ctx context.Context, w int, seq uint32) error {
	return f.t.span("dist.ping", func() error { return f.inner.Ping(ctx, w, seq) })
}

func (f replaceForward) Announce(ctx context.Context, epoch uint32) error {
	return f.t.span("dist.announce", func() error { return f.inner.Announce(ctx, epoch) })
}

func (f replaceForward) Checkpoint(ctx context.Context, m *wire.Manifest) error {
	return f.t.span("dist.checkpoint", func() error { return f.inner.Checkpoint(ctx, m) })
}

// wrapTransport decorates inner with spans under parent for query qid,
// logging its data-carrying calls to log.
func wrapTransport(inner dist.Transport, rec *recorder, parent, qid int, log *opLog) dist.Transport {
	t := &timedTransport{inner: inner, rec: rec, parent: parent, qid: qid, log: log}
	rp, isRp := inner.(dist.Replaceable)
	ts, isTs := inner.(traceSender)
	switch {
	case isRp && isTs:
		return struct {
			*timedTransport
			replaceForward
			traceForward
		}{t, replaceForward{t, rp}, traceForward{t, ts}}
	case isRp:
		return struct {
			*timedTransport
			replaceForward
		}{t, replaceForward{t, rp}}
	case isTs:
		return struct {
			*timedTransport
			traceForward
		}{t, traceForward{t, ts}}
	default:
		return t
	}
}
