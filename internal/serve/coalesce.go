package serve

import (
	"errors"
	"sort"
	"sync"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
)

// ErrClosing is returned by Submit while the server (or one engine
// entry) is shutting down: requests already accepted are flushed and
// answered, new ones are refused.
var ErrClosing = errors.New("serve: shutting down")

// Outcome is one request's diagnosis as delivered by the coalescer.
type Outcome struct {
	// Faults is read-only and may be shared with every other waiter of
	// the same deduplicated request.
	Faults *bitset.Set
	Stats  core.Stats
	Err    error
	// BatchWidth is the number of distinct syndromes in the
	// DiagnoseBatch call that produced this outcome (1 = solo).
	BatchWidth int
	// Waiters is the number of identical concurrent requests this
	// outcome was fanned out to (≥ 1).
	Waiters int
}

// request is one distinct pending diagnosis; identical concurrent
// submissions append their channel instead of a second syndrome (the
// grouped batch path requires the syndromes of a batch to be distinct
// objects, and one diagnosis answers them all anyway).
type request struct {
	key   string
	syn   *syndrome.Lazy
	bound int
	out   []chan Outcome
}

// trigger records why a flush ran; it labels diagnosed_flushes_total.
type trigger int

const (
	triggerIdle   trigger = iota // a worker was free when the request arrived
	triggerDrain                 // a finishing flight, or Close, took requests queued behind busy workers
	triggerLinger                // the opt-in linger window expired
	triggerFull                  // maxBatch distinct requests were pending while a worker was free
	numTriggers
)

var triggerNames = [numTriggers]string{"idle", "drain", "linger", "full"}

// coalescer batches the concurrent diagnose requests of one engine by
// group commit. A flight is one Engine.DiagnoseBatch call, and at most
// maxFlights — the engine pool's worker count — run at once. While a
// worker is free, a request dispatches the moment it arrives, so a
// quiet engine answers without delay. While every worker is busy,
// requests pile into the pending set, and the next flight to finish
// takes them (up to maxBatch at a time) as one grouped batch, looping
// until the set is empty. Requests sharing a fault hypothesis land in
// one certification group (ShareCertification) and inherit the
// behaviour-independent final prefix (ShareFinalPrefix), so the
// per-batch look-up bill shrinks the more the traffic overlaps;
// answers are bit-identical to solo Diagnose calls by the
// DiagnoseBatch contract. Batches mixing fault bounds are split per
// bound, since Options.FaultBound is batch-wide.
//
// A positive window adds an opt-in linger: a request that finds a
// worker free arms a timer instead of dispatching, and the pending set
// flushes when it fires or when maxBatch distinct requests are
// pending, whichever is first.
type coalescer struct {
	eng        *core.Engine
	pool       core.BatchPool
	cache      *core.ResultCache
	window     time.Duration // ≤ 0: no linger
	maxBatch   int
	maxFlights int
	shareCert  bool
	shareFinal bool
	met        *metrics

	mu      sync.Mutex
	pending map[string]*request
	order   []*request // arrival order, the flush order
	timer   *time.Timer
	closed  bool
	flights int       // flights in progress, ≤ maxFlights
	landed  sync.Cond // on mu; broadcast when flights drops to 0
}

func newCoalescer(eng *core.Engine, pool core.BatchPool, cache *core.ResultCache, window time.Duration, maxBatch, maxFlights int, shareCert, shareFinal bool, met *metrics) *coalescer {
	c := &coalescer{
		eng: eng, pool: pool, cache: cache,
		window: window, maxBatch: maxBatch, maxFlights: maxFlights,
		shareCert: shareCert, shareFinal: shareFinal,
		met:     met,
		pending: make(map[string]*request),
	}
	c.landed.L = &c.mu
	return c
}

// Submit enqueues one diagnosis. key identifies the request up to
// bit-identical outcome (hypothesis + behaviour + bound); identical
// concurrent requests share one diagnosis. The returned channel
// (buffered, capacity 1) delivers exactly one Outcome once the batch
// holding the request has been diagnosed. When the request dispatches
// at once, Submit runs that first batch itself: the caller is about to
// block on the channel anyway.
func (c *coalescer) Submit(key string, faults *bitset.Set, behavior syndrome.Behavior, bound int) (<-chan Outcome, error) {
	ch := make(chan Outcome, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosing
	}
	if r, ok := c.pending[key]; ok {
		r.out = append(r.out, ch)
		c.met.dedup.Add(1)
		c.mu.Unlock()
		return ch, nil
	}
	r := &request{key: key, syn: syndrome.NewLazy(faults, behavior), bound: bound, out: []chan Outcome{ch}}
	c.pending[key] = r
	c.order = append(c.order, r)
	var trig trigger
	switch {
	case c.flights >= c.maxFlights:
		// Every worker is busy: a finishing flight takes this request.
		c.mu.Unlock()
		return ch, nil
	case len(c.order) >= c.maxBatch:
		trig = triggerFull
	case c.window <= 0:
		trig = triggerIdle
	default:
		if c.timer == nil {
			c.timer = time.AfterFunc(c.window, c.lingerExpired)
		}
		c.mu.Unlock()
		return ch, nil
	}
	batch := c.take()
	c.flights++
	c.mu.Unlock()
	c.flush(batch, trig)
	if next := c.next(); next != nil {
		go c.fly(next, triggerDrain)
	}
	return ch, nil
}

// pendingCount reports how many requests are lingering or queued
// behind busy workers.
func (c *coalescer) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.order {
		n += len(r.out)
	}
	return n
}

// take claims up to maxBatch pending requests, oldest first, for a
// flight. The flight also owns whatever it leaves behind, so any
// linger timer is disarmed. Caller holds mu.
func (c *coalescer) take() []*request {
	n := min(len(c.order), c.maxBatch)
	batch := c.order[:n:n]
	c.order = c.order[n:]
	if len(c.order) == 0 {
		c.order = nil
	}
	for _, r := range batch {
		delete(c.pending, r.key)
	}
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// next is a flight's landing: it claims the requests that queued while
// the flight ran, or, when none did, ends the flight.
func (c *coalescer) next() []*request {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) > 0 {
		return c.take()
	}
	c.flights--
	if c.flights == 0 {
		c.landed.Broadcast()
	}
	return nil
}

// fly runs a flight until the pending set is empty.
func (c *coalescer) fly(batch []*request, trig trigger) {
	for batch != nil {
		c.flush(batch, trig)
		batch, trig = c.next(), triggerDrain
	}
}

// lingerExpired is the linger window's timer. If every worker has
// become busy meanwhile, a finishing flight takes the pending set.
func (c *coalescer) lingerExpired() {
	c.mu.Lock()
	if len(c.order) == 0 || c.flights >= c.maxFlights {
		c.mu.Unlock()
		return
	}
	batch := c.take()
	c.flights++
	c.mu.Unlock()
	c.fly(batch, triggerLinger)
}

// flush diagnoses one claimed batch and fans the outcomes out. Batches
// mixing fault bounds split into one DiagnoseBatch call per bound
// (ascending, for determinism) because Options.FaultBound applies to a
// whole batch.
func (c *coalescer) flush(batch []*request, trig trigger) {
	c.met.flushes[trig].Add(1)
	byBound := make(map[int][]*request)
	var bounds []int
	for _, r := range batch {
		if _, ok := byBound[r.bound]; !ok {
			bounds = append(bounds, r.bound)
		}
		byBound[r.bound] = append(byBound[r.bound], r)
	}
	sort.Ints(bounds)
	for _, bound := range bounds {
		c.flushBound(bound, byBound[bound])
	}
}

func (c *coalescer) flushBound(bound int, reqs []*request) {
	syns := make([]syndrome.Syndrome, len(reqs))
	for i, r := range reqs {
		syns[i] = r.syn
	}
	opt := core.BatchOptions{
		ShareCertification: c.shareCert,
		ShareFinalPrefix:   c.shareFinal,
		Pool:               c.pool,
		Options:            core.Options{FaultBound: bound, ResultCache: c.cache},
	}
	results := c.eng.DiagnoseBatch(syns, opt)
	width := len(reqs)
	var lookups, shared int64
	for i, r := range reqs {
		res := results[i]
		lookups += r.syn.Lookups()
		shared += res.Stats.SharedFinalLookups
		out := Outcome{
			Faults: res.Faults, Stats: res.Stats, Err: res.Err,
			BatchWidth: width, Waiters: len(r.out),
		}
		for _, ch := range r.out {
			ch <- out
		}
	}
	c.met.noteBatch(width, lookups, shared)
}

// close drains the coalescer: later Submits refuse with ErrClosing,
// a lingering pending set flushes at once, requests queued behind busy
// workers are taken by those flights as usual, so every accepted
// request still receives its Outcome, and close returns once the last
// flight has landed. Idempotent.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	if len(c.order) > 0 && c.flights < c.maxFlights {
		batch := c.take()
		c.flights++
		c.mu.Unlock()
		c.fly(batch, triggerDrain)
		c.mu.Lock()
	}
	for c.flights > 0 {
		c.landed.Wait()
	}
	c.mu.Unlock()
}
