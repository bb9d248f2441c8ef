package serve

import (
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// gatedPool is a BatchPool that holds every call at its entry until
// the test opens the gate, so flights can be kept busy while requests
// queue behind them. It records how many calls run at once; a flight
// makes its pool calls one after another, so that is the number of
// concurrent flights.
type gatedPool struct {
	inner   core.BatchPool
	open    chan struct{} // closed by the test to release every call
	entered chan struct{} // one send per call as it arrives
	running atomic.Int64
	peak    atomic.Int64
}

func newGatedPool(inner core.BatchPool) *gatedPool {
	// entered is buffered past any call count a test makes, so a call
	// never blocks on reporting itself.
	return &gatedPool{inner: inner, open: make(chan struct{}), entered: make(chan struct{}, 1024)}
}

func (p *gatedPool) RunScratch(n int, fn func(sc *core.Scratch, i int)) {
	cur := p.running.Add(1)
	for pk := p.peak.Load(); cur > pk && !p.peak.CompareAndSwap(pk, cur); pk = p.peak.Load() {
	}
	p.entered <- struct{}{}
	<-p.open
	p.inner.RunScratch(n, fn)
	p.running.Add(-1)
}

// testCoalescer binds q:6 on a two-worker runtime behind a gated pool
// and builds a default-mode coalescer (no linger) allowing two flights.
func testCoalescer(t *testing.T, maxBatch int) (*coalescer, *gatedPool, *metrics) {
	t.Helper()
	nw, err := topology.Parse("q:6")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(nw)
	rt := campaign.NewRuntime(eng, 2)
	t.Cleanup(rt.Close)
	pool := newGatedPool(rt)
	met := &metrics{}
	return newCoalescer(eng, pool, nil, 0, maxBatch, rt.Workers(), true, true, met), pool, met
}

// distinctHyps draws n distinct fault hypotheses on q:6.
func distinctHyps(n int) []*bitset.Set {
	rng := rand.New(rand.NewSource(5))
	seen := make(map[string]bool)
	var hs []*bitset.Set
	for len(hs) < n {
		F := syndrome.RandomFaults(64, 3, rng)
		if k := requestKey(F, "mimic", 0, 0); !seen[k] {
			seen[k] = true
			hs = append(hs, F)
		}
	}
	return hs
}

// fillFlights starts one request per flight, each from its own
// goroutine (a dispatching Submit runs the first batch itself), and
// waits until every one of them is held at the gate.
func fillFlights(t *testing.T, c *coalescer, pool *gatedPool, hyps []*bitset.Set) []<-chan Outcome {
	t.Helper()
	var outs []<-chan Outcome
	for _, F := range hyps[:c.maxFlights] {
		out := make(chan Outcome, 1)
		go func() {
			ch, err := c.Submit(requestKey(F, "mimic", 0, 0), F, syndrome.Mimic{}, 0)
			if err != nil {
				t.Error("submit:", err)
				close(out)
				return
			}
			out <- <-ch
		}()
		<-pool.entered
		outs = append(outs, out)
	}
	return outs
}

// queue submits while every flight is held; each Submit must return
// at once, leaving its request pending.
func queue(t *testing.T, c *coalescer, hyps []*bitset.Set) []<-chan Outcome {
	t.Helper()
	var chs []<-chan Outcome
	for _, F := range hyps {
		got := make(chan (<-chan Outcome), 1)
		go func() {
			ch, err := c.Submit(requestKey(F, "mimic", 0, 0), F, syndrome.Mimic{}, 0)
			if err != nil {
				t.Error("submit:", err)
			}
			got <- ch
		}()
		select {
		case ch := <-got:
			chs = append(chs, ch)
		case <-time.After(5 * time.Second):
			t.Fatal("Submit blocked while every flight was busy")
		}
	}
	return chs
}

func checkFaults(t *testing.T, label string, out Outcome, F *bitset.Set) {
	t.Helper()
	if out.Err != nil || out.Faults == nil {
		t.Fatalf("%s: no diagnosis (err %v)", label, out.Err)
	}
	if !equalInts(out.Faults.Members(), F.Members()) {
		t.Errorf("%s: faults %v, want %v", label, out.Faults.Members(), F.Members())
	}
}

// TestIdleRequestDispatchesAtOnce: on an idle engine a lone request is
// diagnosed by Submit itself as a width-1 batch, and no linger timer
// is ever armed.
func TestIdleRequestDispatchesAtOnce(t *testing.T) {
	c, pool, met := testCoalescer(t, 64)
	close(pool.open)
	F := distinctHyps(1)[0]
	ch, err := c.Submit(requestKey(F, "mimic", 0, 0), F, syndrome.Mimic{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ch:
		checkFaults(t, "lone", out, F)
		if out.BatchWidth != 1 || out.Waiters != 1 {
			t.Errorf("width %d waiters %d, want 1 and 1", out.BatchWidth, out.Waiters)
		}
	default:
		t.Fatal("Submit returned before diagnosing the idle request")
	}
	c.mu.Lock()
	timer, flights := c.timer, c.flights
	c.mu.Unlock()
	if timer != nil || flights != 0 {
		t.Errorf("after the lone request: timer %v, flights %d; want none", timer, flights)
	}
	if got := met.snapshotCounters().Flushes; got != (FlushCounts{Idle: 1}) {
		t.Errorf("flushes = %+v, want one idle flush", got)
	}
}

// TestBusyFlightsGroupQueuedRequests: requests that arrive while every
// flight is held are taken by the next flight to land, as batches of
// at most maxBatch, oldest first.
func TestBusyFlightsGroupQueuedRequests(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBatch int
		queued   int
		widths   []int // queued requests' batch widths, in submit order
	}{
		{"one batch", 64, 5, []int{5, 5, 5, 5, 5}},
		{"capped", 3, 5, []int{3, 3, 3, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pool, met := testCoalescer(t, tc.maxBatch)
			hyps := distinctHyps(c.maxFlights + tc.queued)
			busy := fillFlights(t, c, pool, hyps)
			queued := queue(t, c, hyps[c.maxFlights:])
			if n := c.pendingCount(); n != tc.queued {
				t.Fatalf("pending = %d, want %d", n, tc.queued)
			}
			close(pool.open)
			for i, ch := range busy {
				if out := <-ch; out.BatchWidth != 1 {
					t.Errorf("busy request %d: width %d, want 1", i, out.BatchWidth)
				}
			}
			for i, ch := range queued {
				out := <-ch
				checkFaults(t, "queued", out, hyps[c.maxFlights+i])
				if out.BatchWidth != tc.widths[i] {
					t.Errorf("queued request %d: width %d, want %d", i, out.BatchWidth, tc.widths[i])
				}
			}
			c.close()
			f := met.snapshotCounters().Flushes
			wantDrains := int64((tc.queued + tc.maxBatch - 1) / tc.maxBatch)
			if f.Idle != int64(c.maxFlights) || f.Drain != wantDrains || f.Linger != 0 || f.Full != 0 {
				t.Errorf("flushes = %+v, want %d idle and %d drain", f, c.maxFlights, wantDrains)
			}
		})
	}
}

// TestFlightsNeverExceedWorkers: with the flights held, concurrent
// requests beyond the worker count wait in the pending set instead of
// starting more DiagnoseBatch calls; released, every one is answered.
// A free-running hammer then drives the dispatch and drain paths from
// many goroutines (run under -race), and the pool must never have seen
// more concurrent calls than the engine has workers.
func TestFlightsNeverExceedWorkers(t *testing.T) {
	c, pool, _ := testCoalescer(t, 64)
	hyps := distinctHyps(32)
	const held = 8
	outs := make([]chan Outcome, held)
	for i, F := range hyps[:held] {
		outs[i] = make(chan Outcome, 1)
		go func() {
			ch, err := c.Submit(requestKey(F, "mimic", 0, 0), F, syndrome.Mimic{}, 0)
			if err != nil {
				t.Error("submit:", err)
				close(outs[i])
				return
			}
			outs[i] <- <-ch
		}()
	}
	// Every request ends up either in a held flight or pending.
	entered := 0
	deadline := time.After(5 * time.Second)
	for entered+c.pendingCount() < held {
		select {
		case <-pool.entered:
			entered++
		case <-time.After(time.Millisecond):
		case <-deadline:
			t.Fatalf("%d flights and %d pending of %d requests", entered, c.pendingCount(), held)
		}
	}
	if r := pool.running.Load(); r > int64(c.maxFlights) {
		t.Errorf("%d concurrent flights with the gate closed, want ≤ %d workers", r, c.maxFlights)
	}
	close(pool.open)
	for i, ch := range outs {
		checkFaults(t, "held", <-ch, hyps[i])
	}

	go func() {
		for range pool.entered {
		}
	}()
	defer close(pool.entered)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				F := hyps[(g*7+i)%len(hyps)]
				ch, err := c.Submit(requestKey(F, "mimic", 0, 0), F, syndrome.Mimic{}, 0)
				if err != nil {
					t.Error("submit:", err)
					return
				}
				out := <-ch
				if out.Err != nil || !equalInts(out.Faults.Members(), F.Members()) {
					t.Errorf("goroutine %d request %d: wrong outcome", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.close()
	if peak := pool.peak.Load(); peak > int64(c.maxFlights) {
		t.Errorf("peak concurrent flights %d > %d workers", peak, c.maxFlights)
	}
}

// TestCloseDrainsQueuedRequests: Close waits for busy flights, which
// take the requests queued behind them, so every accepted request is
// answered; later submissions are refused.
func TestCloseDrainsQueuedRequests(t *testing.T) {
	c, pool, _ := testCoalescer(t, 64)
	hyps := distinctHyps(c.maxFlights + 3)
	busy := fillFlights(t, c, pool, hyps)
	queued := queue(t, c, hyps[c.maxFlights:])

	closed := make(chan struct{})
	go func() {
		c.close()
		close(closed)
	}()
	// close refuses new work at once but keeps waiting for the held
	// flights.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		closing := c.closed
		c.mu.Unlock()
		if closing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("close never started")
		}
		time.Sleep(time.Millisecond)
	}
	F := hyps[0]
	if _, err := c.Submit(requestKey(F, "allzero", 0, 0), F, syndrome.AllZero{}, 0); err != ErrClosing {
		t.Fatalf("Submit during close: err %v, want ErrClosing", err)
	}
	select {
	case <-closed:
		t.Fatal("close returned while flights were held")
	default:
	}
	close(pool.open)
	<-closed
	all := append(busy, queued...)
	widths := make([]int, len(all))
	for i, ch := range all {
		out := <-ch
		checkFaults(t, "drained", out, hyps[i])
		widths[i] = out.BatchWidth
	}
	sort.Ints(widths)
	if want := []int{1, 1, 3, 3, 3}; !equalInts(widths, want) {
		t.Errorf("widths = %v, want %v", widths, want)
	}
}

// TestDefaultConfigDispatchesAtOnce: the zero Config lingers for
// nothing — a lone request over HTTP is one idle flush of width 1.
func TestDefaultConfigDispatchesAtOnce(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: "q:6", Faults: []int{3, 9}})
	if status != 200 || dr.BatchWidth != 1 {
		t.Fatalf("status %d width %d, want 200 and 1", status, dr.BatchWidth)
	}
	if f := srv.Snapshot().Flushes; f != (FlushCounts{Idle: 1}) {
		t.Errorf("flushes = %+v, want one idle flush", f)
	}
}
