// Package serve is the diagnosis-as-a-service front end: an HTTP/JSON
// server over the engine stack (core.Engine, campaign.Runtime,
// core.ResultCache) that turns concurrent point requests into the
// grouped batches the shared-certification and shared-final-prefix
// machinery was built for.
//
// The request path is: an engine registry keyed by topology spec
// (lazy bind, CSR or implicit Cayley, bounded LRU of bound engines) →
// a per-engine request coalescer (a request dispatches at once while a
// pool worker is free; requests that arrive while every worker is busy
// become one Engine.DiagnoseBatch call, grouped by fault hypothesis)
// → the engine's persistent worker pool. Answers are bit-identical to
// solo Engine.Diagnose calls by the DiagnoseBatch contract; coalescing
// changes the look-up bill, not the verdicts. /v1/campaign streams
// sweep points as they finish, and /metrics exports the whole stack's
// counters in Prometheus text.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Config tunes a Server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// RegistryCap bounds the LRU of bound engines (default 8). The
	// least recently used engine is evicted — its worker pool shuts
	// down once in-flight requests drain — when a new spec binds past
	// the cap.
	RegistryCap int
	// Window is an opt-in linger (default 0, none). By default a
	// diagnose request dispatches at once while the engine's pool has a
	// free worker, and requests that arrive while every worker is busy
	// are taken as one grouped batch by the next flight to finish
	// (group commit). With Window > 0, a request that finds a worker
	// free waits up to Window for company before its batch flushes.
	Window time.Duration
	// MaxBatch caps the distinct requests in one batch (default 64); a
	// lingering batch flushes early once this many are pending.
	// MaxBatch 1 turns coalescing off: every request is diagnosed alone.
	MaxBatch int
	// Workers sizes each engine's persistent worker pool; ≤ 0 means
	// GOMAXPROCS (see campaign.NewRuntime). It also caps the engine's
	// concurrent DiagnoseBatch calls.
	Workers int
	// CacheCap is the per-engine result-cache capacity: 0 means the
	// default (1024 outcomes), negative disables caching.
	CacheCap int
	// NoShareCert and NoShareFinal switch the batch sharing flags off
	// (ablation/debugging; both default on — engaging them is the
	// point of coalescing).
	NoShareCert  bool
	NoShareFinal bool
}

const (
	defaultRegistryCap = 8
	defaultMaxBatch    = 64
	defaultCacheCap    = 1024
)

// Server is the HTTP front end. Create with New, serve via any
// http.Server (it implements http.Handler), stop with Close.
type Server struct {
	cfg Config
	met metrics
	reg *registry

	mux      *http.ServeMux
	closed   atomic.Bool
	inflight sync.WaitGroup
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	if cfg.RegistryCap <= 0 {
		cfg.RegistryCap = defaultRegistryCap
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = defaultCacheCap
	}
	s := &Server{cfg: cfg}
	s.met.start = time.Now()
	s.reg = newRegistry(cfg.RegistryCap, s.buildEntry)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/diagnose", s.handleDiagnose)
	mux.HandleFunc("/v1/campaign", s.handleCampaign)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close gracefully drains the server: new requests are refused with
// 503, pending requests flush (lingering ones at once, queued ones as
// busy workers free up) so every accepted request still receives its
// response, in-flight handlers (diagnoses and campaign streams) run to
// completion, and then every engine's worker pool shuts down.
// Idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.reg.drain()
	s.inflight.Wait()
	s.reg.closeAll()
}

// Preload binds a topology spec ahead of traffic (cmd/diagnosed
// -preload): the bind cost is paid at startup instead of on the first
// request. The spec may carry the "implicit:" prefix.
func (s *Server) Preload(spec string) error {
	e, err := s.reg.get(normalizeKey(spec))
	if err != nil {
		return err
	}
	e.release()
	return nil
}

// Snapshot copies the service counters — the programmatic form of
// /metrics, used by the integration tests and the loopback benches.
func (s *Server) Snapshot() Snapshot {
	snap := s.met.snapshotCounters()
	for _, e := range s.reg.snapshot() {
		snap.PendingRequests += int64(e.co.pendingCount())
		es := EngineSnapshot{
			Key:      e.key,
			Kernel:   e.eng.KernelName(),
			Delta:    e.eng.Diagnosability(),
			Degraded: e.eng.Degraded(),
			Runtime:  e.rt.Stats(),
		}
		if e.cache != nil {
			es.Cache = e.cache.Stats()
			es.HasCache = true
		}
		snap.Engines = append(snap.Engines, es)
	}
	return snap
}

// normalizeKey canonicalises a spec so "Q:14" and " q:14 " share one
// engine. The "implicit:" prefix selects descriptor-backed binding.
func normalizeKey(spec string) string {
	return strings.ToLower(strings.ReplaceAll(strings.TrimSpace(spec), " ", ""))
}

// buildEntry binds the engine for a registry key and assembles its
// serving apparatus (pool, cache, coalescer).
func (s *Server) buildEntry(key string) (*entry, error) {
	spec, implicit := strings.CutPrefix(key, "implicit:")
	var eng *core.Engine
	var err error
	if implicit {
		eng, err = implicitEngine(spec)
	} else {
		var nw topology.Network
		nw, err = topology.Parse(spec)
		if err == nil {
			eng = core.NewEngine(nw)
		}
	}
	if err != nil {
		return nil, err
	}
	var cache *core.ResultCache
	if s.cfg.CacheCap > 0 {
		cache = core.NewResultCache(s.cfg.CacheCap)
	}
	rt := campaign.NewRuntime(eng, s.cfg.Workers)
	e := &entry{key: key, eng: eng, cache: cache, rt: rt}
	e.co = newCoalescer(eng, rt, cache, s.cfg.Window, s.cfg.MaxBatch, rt.Workers(),
		!s.cfg.NoShareCert, !s.cfg.NoShareFinal, &s.met)
	return e, nil
}

// implicitEngine binds a descriptor-backed engine for the families
// whose Cayley structure is derivable from the spec alone — currently
// the hypercubes ("q:<n>", δ = n): the XOR descriptor is written down
// directly, so no CSR is ever built and million-node graphs bind in
// microseconds (see docs/scale.md). Other families must bind in the
// default CSR mode.
func implicitEngine(spec string) (*core.Engine, error) {
	name, arg, ok := strings.Cut(spec, ":")
	if !ok || (name != "q" && name != "hypercube") {
		return nil, fmt.Errorf("serve: implicit mode supports hypercube specs (q:<n>), got %q", spec)
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 2 {
		return nil, fmt.Errorf("serve: bad implicit hypercube dimension %q", arg)
	}
	masks := make([]int32, n)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	return core.NewCayleyEngine(graph.XORCayley{Bits: n, Masks: masks}, n)
}

// DiagnoseRequest is the /v1/diagnose request body.
type DiagnoseRequest struct {
	// Topology is the spec to diagnose against ("q:14", "star:6", ...).
	Topology string `json:"topology"`
	// Implicit selects descriptor-backed binding (hypercubes only).
	Implicit bool `json:"implicit,omitempty"`
	// Faults is the fault hypothesis: node ids presumed faulty.
	Faults []int `json:"faults"`
	// Behavior names the faulty-tester adversary (default "mimic").
	Behavior string `json:"behavior,omitempty"`
	// Seed parameterises the "random" behaviour.
	Seed uint64 `json:"seed,omitempty"`
	// Bound tightens the fault bound below δ (0 = the engine's δ).
	Bound int `json:"bound,omitempty"`
}

// LookupBill itemises the syndrome look-ups of one response. For a
// request served as a shared-prefix group member, Final counts only
// the consultations past the adopted checkpoint and SharedFinal the
// inherited prefix, so Final + SharedFinal equals the solo Diagnose
// FinalLookups of the same syndrome; Cert is 0 for members whose
// certification the group representative carried (see docs/service.md
// for the full accounting contract).
type LookupBill struct {
	Cert        int64 `json:"cert"`
	Final       int64 `json:"final"`
	SharedFinal int64 `json:"shared_final"`
	Total       int64 `json:"total"`
}

// DiagnoseResponse is the /v1/diagnose response body.
type DiagnoseResponse struct {
	Topology       string     `json:"topology"`
	Kernel         string     `json:"kernel"`
	Delta          int        `json:"delta"`
	Degraded       bool       `json:"degraded,omitempty"`
	EffectiveDelta int        `json:"effective_delta,omitempty"`
	Faults         []int      `json:"faults"`
	Lookups        LookupBill `json:"lookups"`
	Seed           int32      `json:"seed"`
	Rounds         int        `json:"rounds"`
	Healthy        int        `json:"healthy"`
	FaultCount     int        `json:"fault_count"`
	PartsScanned   int        `json:"parts_scanned"`
	CertifiedPart  int        `json:"certified_part"`
	BatchWidth     int        `json:"batch_width"`
	Waiters        int        `json:"waiters"`
	Error          string     `json:"error,omitempty"`
}

// begin gates a handler on the drain state. It returns false (and has
// already written 503) when the server is closing.
func (s *Server) begin(w http.ResponseWriter) bool {
	s.inflight.Add(1)
	if s.closed.Load() {
		s.inflight.Done()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if !s.begin(w) {
		return
	}
	defer s.inflight.Done()
	s.met.requests.Add(1)
	if r.Method != http.MethodPost {
		s.met.errors.Add(1)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req DiagnoseRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Topology == "" {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "topology is required")
		return
	}
	behavior, err := syndrome.ParseBehavior(req.Behavior, req.Seed)
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Bound < 0 {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bound must be ≥ 0")
		return
	}
	key := normalizeKey(req.Topology)
	if req.Implicit {
		key = "implicit:" + key
	}
	ent, err := s.reg.get(key)
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer ent.release()

	n := ent.eng.Adjacency().N()
	faults := bitset.New(n)
	for _, id := range req.Faults {
		if id < 0 || id >= n {
			s.met.errors.Add(1)
			httpError(w, http.StatusBadRequest, "fault id %d out of range [0, %d)", id, n)
			return
		}
		faults.Add(id)
	}

	ch, err := ent.co.Submit(requestKey(faults, behavior.Name(), req.Seed, req.Bound), faults, behavior, req.Bound)
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	out := <-ch

	resp := DiagnoseResponse{
		Topology:       req.Topology,
		Kernel:         ent.eng.KernelName(),
		Delta:          out.Stats.Delta,
		Degraded:       out.Stats.Degraded,
		EffectiveDelta: out.Stats.EffectiveDelta,
		Lookups: LookupBill{
			Cert:        out.Stats.CertLookups,
			Final:       out.Stats.FinalLookups,
			SharedFinal: out.Stats.SharedFinalLookups,
			Total:       out.Stats.TotalLookups,
		},
		Seed:          out.Stats.Seed,
		Rounds:        out.Stats.Rounds,
		Healthy:       out.Stats.HealthyCount,
		FaultCount:    out.Stats.FaultCount,
		PartsScanned:  out.Stats.PartsScanned,
		CertifiedPart: out.Stats.CertifiedPart,
		BatchWidth:    out.BatchWidth,
		Waiters:       out.Waiters,
	}
	w.Header().Set("Content-Type", "application/json")
	if out.Err != nil {
		// A diagnosis refusal (fault bound exceeded, no certified part)
		// is a well-formed verdict about the hypothesis, not a server
		// fault: 422 with the typed error's message.
		s.met.errors.Add(1)
		resp.Error = out.Err.Error()
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(resp)
		return
	}
	if out.Faults != nil {
		resp.Faults = out.Faults.Members()
	} else {
		resp.Faults = []int{}
	}
	s.met.responses.Add(1)
	json.NewEncoder(w).Encode(resp)
}

// requestKey identifies a diagnose request up to bit-identical
// outcome: fault hypothesis words, behaviour, behaviour seed, and
// fault bound. Identical concurrent requests coalesce onto one
// diagnosis.
func requestKey(faults *bitset.Set, behaviorName string, seed uint64, bound int) string {
	var b strings.Builder
	words := faults.Words()
	b.Grow(len(words)*16 + len(behaviorName) + 32)
	for _, wd := range words {
		fmt.Fprintf(&b, "%016x", wd)
	}
	fmt.Fprintf(&b, "|%s|%d|%d", behaviorName, seed, bound)
	return b.String()
}

// CampaignRequest is the /v1/campaign request body.
type CampaignRequest struct {
	Topology  string `json:"topology"`
	Implicit  bool   `json:"implicit,omitempty"`
	MinFaults int    `json:"min_faults"`
	MaxFaults int    `json:"max_faults"`
	Trials    int    `json:"trials"`
	Behavior  string `json:"behavior,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

// CampaignPoint is one streamed /v1/campaign line (NDJSON).
type CampaignPoint struct {
	Faults     int     `json:"faults"`
	Trials     int     `json:"trials"`
	Exact      int     `json:"exact"`
	Refused    int     `json:"refused"`
	Silent     int     `json:"silent"`
	ExactRate  float64 `json:"exact_rate"`
	SilentRate float64 `json:"silent_rate"`
}

const (
	maxCampaignTrials = 1_000_000
	maxCampaignPoints = 4096
)

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if !s.begin(w) {
		return
	}
	defer s.inflight.Done()
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req CampaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Topology == "" {
		httpError(w, http.StatusBadRequest, "topology is required")
		return
	}
	behavior, err := syndrome.ParseBehavior(req.Behavior, uint64(req.Seed))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch {
	case req.Trials < 1 || req.Trials > maxCampaignTrials:
		httpError(w, http.StatusBadRequest, "trials must be in [1, %d]", maxCampaignTrials)
		return
	case req.MinFaults < 0 || req.MaxFaults < req.MinFaults:
		httpError(w, http.StatusBadRequest, "need 0 ≤ min_faults ≤ max_faults")
		return
	case req.MaxFaults-req.MinFaults+1 > maxCampaignPoints:
		httpError(w, http.StatusBadRequest, "at most %d sweep points per job", maxCampaignPoints)
		return
	}
	key := normalizeKey(req.Topology)
	if req.Implicit {
		key = "implicit:" + key
	}
	ent, err := s.reg.get(key)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer ent.release()
	if n := ent.eng.Adjacency().N(); req.MaxFaults > n {
		httpError(w, http.StatusBadRequest, "max_faults %d exceeds %d nodes", req.MaxFaults, n)
		return
	}

	s.met.campaigns.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// One SweepRuntime call per fault count: the per-trial seed formula
	// depends only on (Seed, fault count, trial index), so the streamed
	// points are bit-identical to a single whole-range sweep.
	for f := req.MinFaults; f <= req.MaxFaults; f++ {
		pts := campaign.SweepRuntime(ent.rt, campaign.Config{
			MinFaults: f, MaxFaults: f,
			Trials:   req.Trials,
			Behavior: behavior,
			Seed:     req.Seed,
			Cache:    ent.cache,
		})
		p := pts[0]
		enc.Encode(CampaignPoint{
			Faults: p.Faults, Trials: p.Trials,
			Exact: p.Exact, Refused: p.Refused, Silent: p.Silent,
			ExactRate: p.ExactRate(), SilentRate: p.SilentRate(),
		})
		s.met.campaignPoints.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writePrometheus(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// residentKeys is a test helper: the resident registry keys, most
// recently used first.
func (s *Server) residentKeys() []string {
	var keys []string
	for _, e := range s.reg.snapshot() {
		keys = append(keys, e.key)
	}
	return keys
}
