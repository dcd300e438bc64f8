package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
)

// stack is one running system under test: poolSize dist.Serve workers
// on 127.0.0.1 sockets and a serve.Server whose Handler is mounted on
// an HTTP server, all inside this process.
type stack struct {
	addrs   []string
	srv     *serve.Server
	http    *http.Server
	base    string
	client  *http.Client
	cancel  context.CancelFunc
	done    sync.WaitGroup
	probe   *probe // nil when the stack is not traced
	reqID   atomic.Int64
	readSeq atomic.Uint64
	nextAdd bool // the writer's next delta appends (else deletes)
}

// startStack starts the workers and the service. With a probe, the
// worker listeners and the handler are wrapped.
func startStack(pr *probe) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{cancel: cancel, probe: pr, nextAdd: true}
	for i := 0; i < poolSize; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("worker listener: %w", err)
		}
		s.addrs = append(s.addrs, ln.Addr().String())
		if pr != nil {
			ln = pr.listener(ln, i)
		}
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			_ = dist.Serve(ctx, ln) // returns once ctx is cancelled
		}()
	}
	s.srv = serve.New(serve.Config{WorkerAddrs: s.addrs})
	var h http.Handler = s.srv.Handler()
	if pr != nil {
		h = pr.handlerWrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("service listener: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
	return s, nil
}

// close stops the service and the workers and waits for them.
func (s *stack) close() {
	if s.http != nil {
		_ = s.http.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.cancel()
	s.done.Wait()
}

// call is one completed HTTP exchange.
type call struct {
	id     string
	status int
	body   []byte
	lat    time.Duration // request sent to full reply received
}

// post sends body to path and reads the whole reply.
func (s *stack) post(path string, body []byte) (call, error) {
	c := call{id: strconv.FormatInt(s.reqID.Add(1), 10)}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return c, err
	}
	req.Header.Set(reqIDHeader, c.id)
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return c, err
	}
	c.body, err = io.ReadAll(resp.Body)
	c.lat = time.Since(t)
	resp.Body.Close()
	c.status = resp.StatusCode
	return c, err
}

// get fetches path.
func (s *stack) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// expectStatus posts and checks the reply status.
func (s *stack) expectStatus(path string, body []byte, want int) (call, error) {
	c, err := s.post(path, body)
	if err != nil {
		return c, fmt.Errorf("POST %s: %w", path, err)
	}
	if c.status != want {
		return c, fmt.Errorf("POST %s: status %d, want %d: %s", path, c.status, want, bytes.TrimSpace(c.body))
	}
	return c, nil
}

// read sends the workload's query with the next hash seed in turn and
// checks the reply. It returns the decoded reply and the dataset state
// it matched.
func (s *stack) read(w *workload) (call, *serve.QueryResponse, int, error) {
	seed := (s.readSeq.Add(1)-1)%hashSeeds + 1
	c, err := s.expectStatus("/query", w.readBodies[seed-1], http.StatusOK)
	if err != nil {
		return c, nil, -1, err
	}
	var rep serve.QueryResponse
	if err := json.Unmarshal(c.body, &rep); err != nil {
		return c, nil, -1, fmt.Errorf("query reply: %w", err)
	}
	st, err := w.checkRead(&rep, seed)
	return c, &rep, st, err
}

// write sends the workload's next delta (append or delete, in turn)
// and checks the reply.
func (s *stack) write(w *workload) (call, error) {
	add := s.nextAdd
	body := w.deleteBody
	if add {
		body = w.appendBody
	}
	c, err := s.expectStatus("/datasets/"+w.dataset+"/delta", body, http.StatusOK)
	if err != nil {
		return c, err
	}
	s.nextAdd = !add
	var rep serve.DeltaResponse
	if err := json.Unmarshal(c.body, &rep); err != nil {
		return c, fmt.Errorf("delta reply: %w", err)
	}
	return c, w.checkWrite(&rep, add)
}

// setup registers the workload's dataset (and continuous query) and
// reads until the first correct answer.
func (s *stack) setup(w *workload) error {
	up, err := json.Marshal(serve.DatasetRequest{Name: w.dataset, CSV: w.csv})
	if err != nil {
		return err
	}
	if _, err := s.expectStatus("/datasets", up, http.StatusCreated); err != nil {
		return err
	}
	if w.cqBody != nil {
		if _, err := s.expectStatus("/continuous", w.cqBody, http.StatusCreated); err != nil {
			return err
		}
	}
	_, _, _, err = s.read(w)
	return err
}
