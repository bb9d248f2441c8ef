package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"comparisondiag/internal/serve"
)

// idHeader carries a traced request's index to the span-recording
// handler. Untraced requests carry none.
const idHeader = "X-Servebench-Id"

// harness is one diagnosis service under load: serve.New with shipped
// defaults behind the benchmark's own http.Server on a loopback
// listener, and one client whose single TCP connection carries HTTP/2
// cleartext, so concurrent requests multiplex and the coalescer can
// build batches wider than the connection count.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed once hs.Serve returns
	tr     *http.Transport
	client *http.Client
	base   string
	conns  atomic.Int64 // TCP connections the server accepted
}

func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// setupTimes are the costs of one harness start.
type setupTimes struct {
	total   time.Duration // serve.New → Preload → /healthz answers
	preload time.Duration // Server.Preload alone
}

// startHarness brings a service up with the workload's engine bound
// and returns once /healthz answers.
func startHarness(key string, spans *spanLog) (*harness, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	srv := serve.New(serve.Config{})
	tp := time.Now()
	if err := srv.Preload(key); err != nil {
		srv.Close()
		return nil, st, fmt.Errorf("preload %s: %w", key, err)
	}
	st.preload = time.Since(tp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, st, fmt.Errorf("listen: %w", err)
	}
	h := &harness{srv: srv, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	var handler http.Handler = srv
	if spans != nil {
		handler = spans.wrap(srv)
	}
	h.hs = &http.Server{
		Handler:   handler,
		Protocols: h2c(),
		// Far above any backlog a run builds, so the client never
		// needs a second connection.
		HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 1 << 16},
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				h.conns.Add(1)
			}
		},
	}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	h.tr = &http.Transport{Protocols: h2c()}
	h.client = &http.Client{Transport: h.tr, Timeout: time.Minute}
	for {
		if h.healthy() {
			break
		}
		if time.Since(t0) > 30*time.Second {
			h.close()
			return nil, st, fmt.Errorf("/healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	st.total = time.Since(t0)
	return h, st, nil
}

func (h *harness) healthy() bool {
	resp, err := h.client.Get(h.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK && resp.ProtoMajor == 2
}

// close stops the listener and connections, waits for the serve loop,
// then drains the service.
func (h *harness) close() {
	h.hs.Close()
	<-h.served
	h.srv.Close()
	h.tr.CloseIdleConnections()
}

// result is one request as the client saw it.
type result struct {
	late   time.Duration // how late the generator sent it, past its due time
	lat    time.Duration // due time → response fully read
	client time.Duration // send → response fully read (the client span)
	status int
	err    error
	body   []byte
}

func (r *result) failed() bool { return r.err != nil || r.status != http.StatusOK }

// openLoop sends items[i] at start+due[i] whatever the server's state,
// and times each from its due time, so a stall is charged to every
// request it delays. ids, when non-nil, tags each request for the span
// log.
func (h *harness) openLoop(items []item, due []time.Duration, ids []int) []result {
	res := make([]result, len(items))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range items {
		target := start.Add(due[i])
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		id := -1
		if ids != nil {
			id = ids[i]
		}
		wg.Add(1)
		go func(r *result, body []byte, id int, target time.Time) {
			defer wg.Done()
			h.send(r, body, id, target)
		}(&res[i], items[i].body, id, target)
	}
	wg.Wait()
	return res
}

func (h *harness) send(r *result, body []byte, id int, due time.Time) {
	sent := time.Now()
	r.late = sent.Sub(due)
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/diagnose", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(idHeader, strconv.Itoa(id))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		r.err = err
		r.lat = time.Since(due)
		return
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	r.status = resp.StatusCode
	r.lat = end.Sub(due)
	r.client = end.Sub(sent)
}

// spanLog records the handler span of every traced request: the time
// Server.ServeHTTP took, measured by a wrapper around it.
type spanLog struct {
	handler []atomic.Int64 // nanoseconds, by request id
}

func newSpanLog(n int) *spanLog { return &spanLog{handler: make([]atomic.Int64, n)} }

func (s *spanLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(idHeader)
		if tag == "" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		if id, err := strconv.Atoi(tag); err == nil && id >= 0 && id < len(s.handler) {
			s.handler[id].Store(int64(d))
		}
	})
}

// phase is one fixed-rate stretch of load and what it measured.
type phase struct {
	rate     float64
	items    []item
	results  []result
	ids      []int
	before   serve.Snapshot
	after    serve.Snapshot
	lateGrow time.Duration // mean lateness of the last quarter minus the first
	pendMax  int64         // sampled Snapshot().PendingRequests maximum (traced only)
}

// latencies are the due-time latencies, failures counting as +Inf: a
// failed request misses any latency limit.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.results))
	for i := range p.results {
		if p.results[i].failed() {
			out[i] = math.Inf(1)
		} else {
			out[i] = ms(p.results[i].lat)
		}
	}
	sort.Float64s(out)
	return out
}

func (p *phase) failures() int {
	n := 0
	for i := range p.results {
		if p.results[i].failed() {
			n++
		}
	}
	return n
}

func (p *phase) lateMax() time.Duration {
	var m time.Duration
	for i := range p.results {
		m = max(m, p.results[i].late)
	}
	return m
}

// lookupsPerReq is the server's SyndromeLookups over the phase per
// request sent.
func (p *phase) lookupsPerReq() float64 {
	return ratio(float64(p.after.SyndromeLookups-p.before.SyndromeLookups), float64(len(p.items)))
}

// runPhase drives one open-loop phase at rate for d and waits until
// every response is in. sample, when set, polls the pending-request
// gauge while the phase runs.
func (h *harness) runPhase(gen *generator, rate float64, d time.Duration, ids func(n int) []int, sample bool) *phase {
	due := arrivals(rate, d)
	p := &phase{rate: rate, items: gen.take(len(due))}
	if ids != nil {
		p.ids = ids(len(due))
	}
	runtime.GC() // start every phase from the same heap state
	p.before = h.srv.Snapshot()
	var stop func() int64
	if sample {
		stop = h.samplePending()
	}
	p.results = h.openLoop(p.items, due, p.ids)
	if stop != nil {
		p.pendMax = stop()
	}
	p.after = h.srv.Snapshot()
	if q := len(p.results) / 4; q > 0 {
		first, last := 0.0, 0.0
		for i := 0; i < q; i++ {
			first += float64(p.results[i].late)
			last += float64(p.results[len(p.results)-1-i].late)
		}
		p.lateGrow = time.Duration((last - first) / float64(q))
	}
	return p
}

// samplePending polls Snapshot().PendingRequests every millisecond
// until the returned stop function is called; stop waits for the
// poller to exit and returns the maximum seen.
func (h *harness) samplePending() func() int64 {
	ctx, cancel := context.WithCancel(context.Background())
	var peak atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if p := h.srv.Snapshot().PendingRequests; p > peak.Load() {
					peak.Store(p)
				}
			}
		}
	}()
	return func() int64 {
		cancel()
		<-done
		return peak.Load()
	}
}

// decodeResponse parses a /v1/diagnose response body.
func decodeResponse(body []byte) (serve.DiagnoseResponse, error) {
	var dr serve.DiagnoseResponse
	err := json.Unmarshal(body, &dr)
	return dr, err
}
