// Command servebench is the open-loop load benchmark of the diagnosis
// service: it runs serve.New with shipped defaults in its own process
// on a loopback listener, drives it over one HTTP/2 cleartext
// connection on a fixed arrival schedule, checks every answer, and
// prints latency, capacity, look-up and set-up metrics. See README.md.
//
//	servebench --workload scatter-q14 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 makes a separate traced run and reports
// the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"comparisondiag/internal/core"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fl.String("workload", "", "traffic mix: scatter-q14, clustered-q14 or implicit-q18")
	seed := fl.Int64("seed", 1, "workload seed; the requests are a pure function of (workload, seed)")
	seconds := fl.Int("seconds", 30, "measured load time of one run")
	trace := fl.Int("trace", 0, "1 makes a traced run and reports per-layer metrics")
	root := fl.String("root", ".", "module root, hashed into the host fingerprint")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	fp := fingerprint(w.name, *seed, *root)
	hj, _ := json.Marshal(fp)
	fmt.Printf("host %s\n", hj)

	r := &runner{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		err = r.traced()
		if err == nil {
			err = r.checkSet(perLayerMetrics)
		}
	} else {
		err = r.untraced()
		if err == nil {
			err = r.checkSet(endToEndMetrics)
		}
	}
	if err == nil {
		err = r.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // evidence for the human table: sample counts, derivation
}

type runner struct {
	w      *workload
	seed   int64
	budget time.Duration

	t       tally
	metrics []metric
	ref     *reference
}

func (r *runner) add(name, unit string, v float64, note string, args ...any) {
	r.metrics = append(r.metrics, metric{name, unit, v, fmt.Sprintf(note, args...)})
}

// share is a fraction of the run's measured time.
func (r *runner) share(f float64) time.Duration { return time.Duration(f * float64(r.budget)) }

const setupRuns = 11

// setup starts the service setupRuns times, closing all but the last,
// and records the median set-up time and heap. Nothing else the run
// needs is built before it, so work moved into set-up shows.
func (r *runner) setup(spans *spanLog) (*harness, []setupTimes, []float64, error) {
	var times []setupTimes
	var heaps []float64
	var h *harness
	for i := 0; i < setupRuns; i++ {
		if h != nil {
			h.close()
			h = nil // so the closed service is garbage before the next baseline
		}
		base := liveHeap()
		var st setupTimes
		var err error
		h, st, err = startHarness(r.w.registryKey(), spans)
		if err != nil {
			return nil, nil, nil, err
		}
		heaps = append(heaps, (float64(liveHeap())-float64(base))/(1<<20))
		times = append(times, st)
	}
	ref, err := bindReference(r.w)
	if err != nil {
		h.close()
		return nil, nil, nil, err
	}
	r.ref = ref
	return h, times, heaps, nil
}

// liveHeap is the heap in use after two full collections, the second
// of which also returns free memory to the operating system. Two are
// needed: a sync.Pool keeps its contents, and whatever its New closure
// holds, reachable through one collection. Returning the memory starts
// every set-up from the same cold heap, so its page faults are paid
// alike on every run.
func liveHeap() uint64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// warm runs one second at the low rate so lazy state (pool scratches,
// connection, caches) is in place before anything is timed. Its
// requests are checked like all others.
func (r *runner) warm(h *harness, gen *generator) {
	r.t.check(h.runPhase(gen, r.w.lowRPS, time.Second, nil, false))
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() error {
	h, times, heaps, err := r.setup(nil)
	if err != nil {
		return err
	}
	gen := newGenerator(r.w, r.seed)
	r.warm(h, gen)
	low := h.runPhase(gen, r.w.lowRPS, r.share(0.25), nil, false)
	r.t.check(low)
	high := h.runPhase(gen, r.w.highRPS, r.share(0.25), nil, false)
	r.t.check(high)
	maxRPS, steps := r.ladder(h, gen)
	conns := h.conns.Load()
	h.close()
	r.t.checkSolo(r.ref.eng)

	setupS := make([]float64, len(times))
	for i, st := range times {
		setupS[i] = st.total.Seconds()
	}
	r.add("setup_s", "s", median(setupS), "median of %d set-ups %v", len(setupS), rounded(setupS))
	r.add("setup_heap_mb", "MiB", median(heaps), "median live-heap growth of %d set-ups %v", len(heaps), rounded(heaps))
	var tails []string
	for _, p := range []struct {
		tag string
		ph  *phase
	}{{"low", low}, {"high", high}} {
		lat := p.ph.latencies()
		p50, p99 := tail(lat, 50), tail(lat, 99)
		r.add("p50_ms."+p.tag, "ms", p50.Value, "%.0f req/s, n=%d", p.ph.rate, p50.N)
		tails = append(tails, fmt.Sprintf("p99_ms.%s %.4f ms (%.0f req/s, reported at p%.2f over n=%d)",
			p.tag, p99.Value, p.ph.rate, p99.P, p99.N))
	}
	r.add("max_rps", "req/s", maxRPS, "p99 limit %.0f ms; ladder %s", r.w.p99LimitMs, steps)
	r.add("lookups_per_req", "lookups/req", high.lookupsPerReq(), "server SyndromeLookups / requests at %.0f req/s", high.rate)
	fmt.Printf("error_rate %.6f (%d failed of %d attempted: transport %d, non-200 %d, wrong %d; %d solo-checked)\n",
		r.t.errorRate(), r.t.failed(), r.t.attempted, r.t.transport, r.t.non200, r.t.wrong, len(r.t.solo))
	// The tails are printed, not gated: on a shared 2-vCPU host their
	// run-to-run spread exceeds any usable bound (see README.md).
	for _, t := range tails {
		fmt.Println(t)
	}
	fmt.Printf("generator: late max %.2f ms at low, %.2f ms at high; TCP connections %d; mean batch width %.2f at high\n",
		ms(low.lateMax()), ms(high.lateMax()), conns, meanWidth(high))
	return nil
}

// maxLadderTries caps the steps the max_rps search runs, retries
// included; a search that reaches it reports the highest rung passed.
const maxLadderTries = 12

// gallop is how many rungs the max_rps search jumps before it has
// bracketed the limit.
const gallop = 8

// lateGrowthLimit is how far the generator's lateness may grow across a
// ladder step, last quarter against first, before the step counts as
// saturated: a tenth of the workload's latency limit.
func (w *workload) lateGrowthLimit() time.Duration {
	return time.Duration(w.p99LimitMs / 10 * float64(time.Millisecond))
}

// ladder finds max_rps: the highest rung of the workload's fixed ladder
// whose p99 meets the limit with no failed request and no growing
// generator lateness. It starts at the rung nearest ladderStart, jumps
// gallop rungs up (or down) until one rung passes and a higher one
// fails, then bisects between them, so it finds the limit in a few
// steps wherever the host puts it. A rung that misses is run once more
// and fails only if it misses twice, so one host stall does not
// decide the result. If no rung passes, max_rps is half the lowest.
func (r *runner) ladder(h *harness, gen *generator) (float64, string) {
	rungs := r.w.ladder
	step := r.share(0.05)
	var trail []byte
	try := func(i int) bool {
		p := h.runPhase(gen, rungs[i], step, nil, false)
		r.t.check(p)
		p99 := tail(p.latencies(), 99)
		ok := p.failures() == 0 && p99.Value <= r.w.p99LimitMs && p.lateGrow <= r.w.lateGrowthLimit()
		mark := "ok"
		if !ok {
			mark = "over"
		}
		trail = fmt.Appendf(trail, "%.0f:%.1fms/%s ", rungs[i], p99.Value, mark)
		time.Sleep(50 * time.Millisecond) // let the backlog of an over-limit step clear
		return ok
	}
	tries := 0
	pass := func(i int) bool {
		for k := 0; k < 2 && tries < maxLadderTries; k++ {
			tries++
			if try(i) {
				return true
			}
		}
		return false
	}
	lo := bracket(len(rungs), startRung(rungs, r.w.ladderStart), pass, func() bool { return tries < maxLadderTries })
	if lo < 0 {
		return rungs[0] / 2, string(trail)
	}
	return rungs[lo], string(trail)
}

// bracket searches indices [0, n) of an ascending ladder for the
// highest one pass accepts, assuming pass holds below some index and
// fails above it. From start it jumps gallop rungs up while rungs pass
// (down while they fail) until it holds a passing rung below a failing
// one, then bisects between them. It stops early when more reports no
// budget left, and returns -1 when no rung passed.
func bracket(n, start int, pass func(int) bool, more func() bool) int {
	lo, hi := -1, n // highest rung passed, lowest rung failed
	for i := start; lo+1 < hi && more(); {
		if pass(i) {
			lo = i
		} else {
			hi = i
		}
		switch {
		case hi == n:
			i = min(lo+gallop, n-1)
		case lo < 0:
			i = max(hi-gallop, 0)
		default:
			i = (lo + hi) / 2
		}
		if i == lo || i == hi {
			break
		}
	}
	return lo
}

// traced is the separate traced run: spans around the server's
// handler and the client call, server counters over each phase, and
// in-process replays of the same requests through the core layers.
func (r *runner) traced() error {
	// Request ids index the span log; size it for the traced phases.
	spans := newSpanLog(int(1.2*(r.w.lowRPS*r.share(0.15).Seconds()+r.w.highRPS*r.share(0.25).Seconds())) + 1024)
	h, times, _, err := r.setup(spans)
	if err != nil {
		return err
	}
	next := 0
	ids := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			if next < len(spans.handler) {
				out[i] = next
				next++
			} else {
				out[i] = -1
			}
		}
		return out
	}
	gen := newGenerator(r.w, r.seed)
	r.warm(h, gen)
	plain := h.runPhase(gen, r.w.lowRPS, r.share(0.15), nil, false)
	r.t.check(plain)
	low := h.runPhase(gen, r.w.lowRPS, r.share(0.15), ids, true)
	r.t.check(low)
	high := h.runPhase(gen, r.w.highRPS, r.share(0.25), ids, true)
	r.t.check(high)
	h.close()
	r.t.checkSolo(r.ref.eng)

	handler := func(p *phase) (hs, transport []float64) {
		for i := range p.results {
			res := &p.results[i]
			if res.failed() || p.ids[i] < 0 {
				continue
			}
			d := time.Duration(spans.handler[p.ids[i]].Load())
			hs = append(hs, ms(d))
			transport = append(transport, ms(res.client-d))
		}
		sort.Float64s(hs)
		sort.Float64s(transport)
		return hs, transport
	}
	hsHigh, _ := handler(high)
	hsLow, trLow := handler(low)

	// The replay sample: the first requests of the traced high phase.
	n := 256
	if r.w.implicit {
		n = 24
	}
	sample := high.items[:min(n, len(high.items))]
	var bodies [][]byte
	for i := range high.results[:len(sample)] {
		if !high.results[i].failed() {
			bodies = append(bodies, high.results[i].body)
		}
	}
	width := meanWidth(high)
	cr, err := r.ref.replay(sample, int(math.Round(width)))
	if err != nil {
		return err
	}
	dec, enc, err := jsonReplay(sample, bodies)
	if err != nil {
		return err
	}

	p50High, p99High := tail(hsHigh, 50), tail(hsHigh, 99)
	r.add("serve.handler_ms.p50", "ms", p50High.Value, "Server.ServeHTTP span at %.0f req/s, n=%d", high.rate, p50High.N)
	r.add("serve.handler_ms.p99", "ms", p99High.Value, "reported at p%.2f, n=%d", p99High.P, p99High.N)
	tr := tail(trLow, 50)
	r.add("http.transport_ms.p50", "ms", tr.Value, "client span minus handler span at %.0f req/s, n=%d", low.rate, tr.N)
	r.add("serve.json_decode_us", "us", dec, "encoding/json replay of %d request bodies", len(sample))
	r.add("serve.json_encode_us", "us", enc, "encoding/json replay of %d responses", len(bodies))
	widthLow := meanWidth(low)
	r.add("serve.window_wait_ms", "ms", tail(hsLow, 50).Value-(dec+enc)/1000-cr.batchPerSyn*widthLow,
		"derived at %.0f req/s: handler p50 - JSON - batch_ms_per_syn x width %.2f", low.rate, widthLow)
	r.add("serve.batch_width_mean", "count", width, "at %.0f req/s", high.rate)
	r.add("serve.batch_width_max", "count", float64(high.after.MaxBatchWidth), "whole run")
	reqs := float64(high.after.Requests - high.before.Requests)
	r.add("serve.dedup_share", "ratio", ratio(float64(high.after.DedupHits-high.before.DedupHits), reqs), "requests folded onto an identical pending one, at %.0f req/s", high.rate)
	r.add("serve.diagnoses_per_req", "ratio", ratio(float64(high.after.Diagnoses-high.before.Diagnoses), reqs), "at %.0f req/s", high.rate)
	r.add("serve.pending_max", "count", float64(max(low.pendMax, high.pendMax)), "sampled Snapshot().PendingRequests every 1 ms")
	r.add("serve.lookups_per_req.low", "lookups/req", low.lookupsPerReq(), "at %.0f req/s", low.rate)
	r.add("serve.lookups_per_req.high", "lookups/req", high.lookupsPerReq(), "at %.0f req/s", high.rate)
	var preload []float64
	for _, st := range times {
		preload = append(preload, ms(st.preload))
	}
	r.add("serve.preload_ms", "ms", median(preload), "median of %d Server.Preload calls", len(preload))
	r.add("core.bind_ms", "ms", ms(r.ref.bind), "engine bind on a built topology")
	r.add("topology.build_ms", "ms", ms(r.ref.build), "CSR build, or implicit adjacency for implicit engines")
	r.add("core.diagnose_us", "us", cr.diagnose, "median warm Engine.DiagnoseOpts with a bound scratch, %d requests", len(sample))
	r.add("core.batch_ms_per_syn", "ms", cr.batchPerSyn, "DiagnoseBatch, share flags on, runtime pool, width %d", cr.width)
	r.add("core.certify_us", "us", cr.certify, "median core.CertifyPart of the certified part")
	r.add("core.setbuilder_us", "us", cr.setBuilder, "median core.SetBuilderInto (reference pass, no kernel)")
	r.add("core.cert_lookups_per_req", "lookups/req", cr.certLookups, "solo Stats.CertLookups")
	r.add("core.final_lookups_per_req", "lookups/req", cr.finalLookup, "solo Stats.FinalLookups")
	r.add("core.shared_final_lookups_per_req", "lookups/req", cr.sharedFinal, "Stats.SharedFinalLookups in width-%d batches", cr.width)
	for _, p := range []struct {
		tag string
		ph  *phase
	}{{"low", low}, {"high", high}} {
		r.add("core.cache_probe_share."+p.tag, "ratio", cacheProbeShare(p.ph), "(hits + misses) / diagnoses at %.0f req/s", p.ph.rate)
	}
	r.add("core.cache_hit_rate", "ratio", cacheHitRate(high), "hits / (hits + misses) at %.0f req/s", high.rate)
	workers := 0
	if es := high.after.Engines; len(es) > 0 {
		workers = es[0].Runtime.Workers
	}
	r.add("core.scratch_mb", "MiB", float64(core.ScratchFootprintBytes(r.ref.eng.Adjacency().N()))*float64(workers)/(1<<20),
		"computed: core.ScratchFootprintBytes x %d workers", workers)
	r.add("syndrome.ns_per_lookup", "ns", ratio(cr.diagnose*1000, cr.lookups), "core.diagnose_us / %.0f look-ups", cr.lookups)
	r.add("campaign.trial_skew", "ratio", trialSkew(high), "max / mean RuntimeStats.Trials per worker at %.0f req/s", high.rate)
	r.add("gen.late_ms.max", "ms", ms(max(plain.lateMax(), low.lateMax(), high.lateMax())), "traced run")
	p50Plain, p50Traced := tail(plain.latencies(), 50).Value, tail(low.latencies(), 50).Value
	r.add("trace.overhead_pct", "%", 100*(p50Traced-p50Plain)/p50Plain, "traced %.3f ms vs untraced %.3f ms p50 at %.0f req/s", p50Traced, p50Plain, low.rate)
	fmt.Printf("error_rate %.6f (%d failed of %d attempted; %d solo-checked)\n",
		r.t.errorRate(), r.t.failed(), r.t.attempted, len(r.t.solo))
	return nil
}

// The metric sets BENCHMARK.json declares, end-to-end and per-layer;
// a run whose metrics differ from its set fails instead of printing a
// result.
var (
	endToEndMetrics = []string{
		"setup_s", "setup_heap_mb", "p50_ms.low", "p50_ms.high", "max_rps", "lookups_per_req",
	}
	perLayerMetrics = []string{
		"serve.handler_ms.p50", "serve.handler_ms.p99", "http.transport_ms.p50",
		"serve.json_decode_us", "serve.json_encode_us", "serve.window_wait_ms",
		"serve.batch_width_mean", "serve.batch_width_max", "serve.dedup_share",
		"serve.diagnoses_per_req", "serve.pending_max",
		"serve.lookups_per_req.low", "serve.lookups_per_req.high",
		"serve.preload_ms", "core.bind_ms", "topology.build_ms",
		"core.diagnose_us", "core.batch_ms_per_syn", "core.certify_us", "core.setbuilder_us",
		"core.cert_lookups_per_req", "core.final_lookups_per_req", "core.shared_final_lookups_per_req",
		"core.cache_hit_rate", "core.cache_probe_share.low", "core.cache_probe_share.high",
		"core.scratch_mb", "syndrome.ns_per_lookup", "campaign.trial_skew",
		"gen.late_ms.max", "trace.overhead_pct",
	}
)

// checkSet reports how the run's metric names differ from want.
func (r *runner) checkSet(want []string) error {
	got := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		got[i] = m.name
	}
	if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
		return fmt.Errorf("metrics %v, want the declared set %v", got, want)
	}
	return nil
}

// print writes the human table, then the one-line JSON result.
func (r *runner) print(out *os.File) error {
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-36s %14.4f %-12s %s\n", m.name, m.value, m.unit, m.note)
	}
	if r.t.firstErr != "" {
		fmt.Fprintf(out, "first failure: %s\n", r.t.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.t.failed() == 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed(),
		Metrics:   make(map[string]value),
	}
	for _, m := range r.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric: fail the run rather than print a
		// malformed result.
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

func rounded(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}
