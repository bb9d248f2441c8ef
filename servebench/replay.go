package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// reference is the benchmark's own engine for the workload, bound the
// way the server binds it, with the build and bind timed apart.
type reference struct {
	eng   *core.Engine
	delta int
	build time.Duration // topology graph (CSR) or implicit adjacency
	bind  time.Duration // core engine bind on top of it
}

func bindReference(w *workload) (*reference, error) {
	r := &reference{delta: w.bits}
	if w.implicit {
		masks := make([]int32, w.bits)
		for i := range masks {
			masks[i] = 1 << uint(i)
		}
		desc := graph.XORCayley{Bits: w.bits, Masks: masks}
		t0 := time.Now()
		if _, err := graph.NewCayleyAdjacency(desc); err != nil {
			return nil, fmt.Errorf("implicit adjacency: %w", err)
		}
		r.build = time.Since(t0)
		t0 = time.Now()
		eng, err := core.NewCayleyEngine(desc, w.bits)
		if err != nil {
			return nil, fmt.Errorf("implicit bind: %w", err)
		}
		r.bind = time.Since(t0)
		r.eng = eng
		return r, nil
	}
	t0 := time.Now()
	nw, err := topology.Parse(w.spec())
	if err != nil {
		return nil, err
	}
	r.build = time.Since(t0)
	t0 = time.Now()
	r.eng = core.NewEngine(nw)
	r.bind = time.Since(t0)
	return r, nil
}

// lazies builds fresh lazy syndromes for items (untimed set-up of a
// replay: every timed call gets a syndrome no one consulted yet).
func (r *reference) lazies(items []item) []*syndrome.Lazy {
	n := r.eng.Adjacency().N()
	out := make([]*syndrome.Lazy, len(items))
	for i, it := range items {
		beh, err := syndrome.ParseBehavior(it.behavior, it.seed)
		if err != nil {
			panic(err) // generated names are always valid
		}
		F := bitset.New(n)
		for _, id := range it.faults {
			F.Add(id)
		}
		out[i] = syndrome.NewLazy(F, beh)
	}
	return out
}

// coreReplay is the in-process replay of generated requests through
// the public core calls, layer by layer.
type coreReplay struct {
	diagnose    float64 // median warm Engine.DiagnoseOpts, µs
	certify     float64 // median core.CertifyPart of the certified part, µs
	setBuilder  float64 // median core.SetBuilderInto from the final seed, µs
	certLookups float64 // mean Stats.CertLookups
	finalLookup float64 // mean Stats.FinalLookups
	lookups     float64 // mean Stats.TotalLookups
	batchPerSyn float64 // DiagnoseBatch wall time per syndrome at width, ms
	sharedFinal float64 // mean Stats.SharedFinalLookups in those batches
	width       int
}

func (r *reference) replay(items []item, width int) (*coreReplay, error) {
	out := &coreReplay{width: width}
	sc := r.eng.AcquireScratch()
	defer r.eng.ReleaseScratch(sc)
	parts, err := r.eng.Parts()
	if err != nil {
		return nil, err
	}
	a := r.eng.Adjacency()

	// Warm pass, then the timed pass on fresh syndromes.
	for _, lz := range r.lazies(items) {
		r.eng.DiagnoseOpts(lz, core.Options{Scratch: sc})
	}
	lzs := r.lazies(items)
	var diag, cert, sb []float64
	var certL, finalL, totalL []float64
	seeds := make([]int32, len(items))
	certified := make([]int, len(items))
	for i, lz := range lzs {
		t0 := time.Now()
		_, st, err := r.eng.DiagnoseOpts(lz, core.Options{Scratch: sc})
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay diagnose %s: %w", items[i].body, err)
		}
		diag = append(diag, us(d))
		certL = append(certL, float64(st.CertLookups))
		finalL = append(finalL, float64(st.FinalLookups))
		totalL = append(totalL, float64(st.TotalLookups))
		seeds[i], certified[i] = st.Seed, st.CertifiedPart
	}
	masks := make(map[int]*bitset.Set)
	for i, lz := range r.lazies(items) {
		p := parts[certified[i]]
		mask, ok := masks[certified[i]]
		if !ok {
			mask = bitset.FromMembers(a.N(), p.Nodes)
			masks[certified[i]] = mask
		}
		t0 := time.Now()
		ok = core.CertifyPart(a, lz, p.Nodes, mask)
		cert = append(cert, us(time.Since(t0)))
		if !ok {
			return nil, fmt.Errorf("replay: certified part %d did not certify for %s", certified[i], items[i].body)
		}
	}
	for i, lz := range r.lazies(items) {
		t0 := time.Now()
		core.SetBuilderInto(sc, a, lz, seeds[i], r.delta, nil)
		sb = append(sb, us(time.Since(t0)))
	}
	out.diagnose, out.certify, out.setBuilder = median(diag), median(cert), median(sb)
	out.certLookups, out.finalLookup, out.lookups = mean(certL), mean(finalL), mean(totalL)

	// Grouped batches with the server's share flags, pool and cache
	// settings, at the width the server formed.
	rt := campaign.NewRuntime(r.eng, 0)
	defer rt.Close()
	opt := core.BatchOptions{
		ShareCertification: true, ShareFinalPrefix: true, Pool: rt,
		Options: core.Options{ResultCache: core.NewResultCache(core.DefaultCacheCapacity)},
	}
	batch := func() (time.Duration, []float64) {
		lzs := r.lazies(items)
		var total time.Duration
		var shared []float64
		for lo := 0; lo < len(lzs); lo += width {
			syns := make([]syndrome.Syndrome, 0, width)
			for _, lz := range lzs[lo:min(lo+width, len(lzs))] {
				syns = append(syns, lz)
			}
			t0 := time.Now()
			res := r.eng.DiagnoseBatch(syns, opt)
			total += time.Since(t0)
			for _, br := range res {
				shared = append(shared, float64(br.Stats.SharedFinalLookups))
			}
		}
		return total, shared
	}
	batch() // warm the pool's scratches
	opt.Options.ResultCache = core.NewResultCache(core.DefaultCacheCapacity)
	total, shared := batch()
	out.batchPerSyn = ms(total) / float64(len(items))
	out.sharedFinal = mean(shared)
	return out, nil
}

// jsonReplay times encoding/json on the server's request and response
// types over the workload's own bodies: the median per-call cost of
// decoding a request as the handler does and of encoding a response.
func jsonReplay(items []item, responses [][]byte) (decodeUs, encodeUs float64, err error) {
	const reps = 20 // calls per timing, for clock resolution
	var dec, enc []float64
	for _, it := range items {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			var req serve.DiagnoseRequest
			d := json.NewDecoder(bytes.NewReader(it.body))
			d.DisallowUnknownFields()
			if err := d.Decode(&req); err != nil {
				return 0, 0, fmt.Errorf("json replay decode: %w", err)
			}
		}
		dec = append(dec, us(time.Since(t0))/reps)
	}
	for _, body := range responses {
		dr, err := decodeResponse(body)
		if err != nil {
			return 0, 0, fmt.Errorf("json replay: %w", err)
		}
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			if err := json.NewEncoder(io.Discard).Encode(dr); err != nil {
				return 0, 0, fmt.Errorf("json replay encode: %w", err)
			}
		}
		enc = append(enc, us(time.Since(t0))/reps)
	}
	return median(dec), median(enc), nil
}

// meanWidth is the server's mean batch width over a phase, at least 1.
func meanWidth(p *phase) float64 {
	b := p.after.Batches - p.before.Batches
	return math.Max(1, ratio(float64(p.after.Diagnoses-p.before.Diagnoses), float64(b)))
}

// engineDelta is the first resident engine's counters over a phase
// (a run binds exactly one engine).
func engineDelta(p *phase) (cache core.CacheStats, trials []int64) {
	if len(p.before.Engines) == 0 || len(p.after.Engines) == 0 {
		return
	}
	b, a := p.before.Engines[0], p.after.Engines[0]
	cache = core.CacheStats{Hits: a.Cache.Hits - b.Cache.Hits, Misses: a.Cache.Misses - b.Cache.Misses}
	for i, t := range a.Runtime.Trials {
		if i < len(b.Runtime.Trials) {
			t -= b.Runtime.Trials[i]
		}
		trials = append(trials, t)
	}
	return
}

// cacheProbeShare is the share of diagnoses that probed the result
// cache: grouped batch members skip it by design.
func cacheProbeShare(p *phase) float64 {
	c, _ := engineDelta(p)
	return ratio(float64(c.Hits+c.Misses), float64(p.after.Diagnoses-p.before.Diagnoses))
}

func cacheHitRate(p *phase) float64 {
	c, _ := engineDelta(p)
	return c.HitRate()
}

// trialSkew is max/mean trials per pool worker over a phase.
func trialSkew(p *phase) float64 {
	_, trials := engineDelta(p)
	var xs []float64
	top := 0.0
	for _, t := range trials {
		xs = append(xs, float64(t))
		top = math.Max(top, float64(t))
	}
	return ratio(top, mean(xs))
}
