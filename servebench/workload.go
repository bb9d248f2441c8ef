package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// workload is one traffic mix. Its rates and latency limit are fixed
// here, as absolute numbers, so that every run and every commit
// measures against the same load.
type workload struct {
	name     string
	bits     int  // hypercube dimension; δ = bits
	implicit bool // descriptor-bound engine instead of a CSR
	// clusterPool > 0 draws hypotheses from a fixed pool of that many
	// syndrome.ClusterFaults sets; 0 draws a fresh uniform set per
	// request.
	clusterPool int

	lowRPS, highRPS float64
	// ladder holds the ascending rates probed for max_rps; the probe
	// starts at the rung nearest ladderStart.
	ladder      []float64
	ladderStart float64
	p99LimitMs  float64
}

// spec is the topology the requests name.
func (w *workload) spec() string { return fmt.Sprintf("q:%d", w.bits) }

// registryKey is the spec as Server.Preload takes it.
func (w *workload) registryKey() string {
	if w.implicit {
		return "implicit:" + w.spec()
	}
	return w.spec()
}

// rungs returns n geometric rates from lo, each ratio times the last.
func rungs(lo, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = float64(int(r + 0.5))
		r *= ratio
	}
	return out
}

var workloads = []*workload{
	// Fresh uniform hypotheses: no repeats, so the fixed per-request
	// costs (window, HTTP/JSON) dominate and sharing/caching changes
	// should not move it.
	{
		name: "scatter-q14",
		bits: 14,

		lowRPS: 400, highRPS: 700,
		ladder: rungs(500, 1.03, 90), ladderStart: 1900,
		p99LimitMs: 100,
	},
	// A fixed pool of clustered hypotheses under the five adversaries:
	// coalescer, dedup, shared certification, shared final prefix and
	// result cache all engage.
	{
		name: "clustered-q14",
		bits: 14, clusterPool: 16,

		lowRPS: 800, highRPS: 1400,
		ladder: rungs(1000, 1.03, 100), ladderStart: 5000,
		p99LimitMs: 100,
	},
	// A descriptor-bound engine on 262k nodes: each request is
	// milliseconds of final-pass kernel and syndrome look-ups, so
	// kernel gains show here.
	{
		name: "implicit-q18",
		bits: 18, implicit: true,

		lowRPS: 30, highRPS: 50,
		ladder: rungs(30, 1.03, 80), ladderStart: 130,
		p99LimitMs: 250,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// behaviorNames are the five named adversaries of package syndrome.
var behaviorNames = []string{"mimic", "all-zero", "all-one", "inverted", "random"}

// item is one generated request: the body the server sees and what the
// benchmark needs to check the answer.
type item struct {
	body     []byte
	faults   []int // the hypothesis, ascending: the exact answer Theorem 1 promises
	behavior string
	seed     uint64
}

// generator produces a workload's requests. Its output is a pure
// function of (workload, seed): the same seed gives byte-identical
// bodies in the same order.
type generator struct {
	w    *workload
	rng  *rand.Rand
	pool [][]int
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.clusterPool > 0 {
		gr := topology.NewHypercube(w.bits).Graph()
		centers := g.rng.Perm(gr.N())[:w.clusterPool]
		for _, c := range centers {
			g.pool = append(g.pool, syndrome.ClusterFaults(gr, int32(c), w.bits).Members())
		}
	}
	return g
}

func (g *generator) next() item {
	var faults []int
	if g.pool != nil {
		faults = g.pool[g.rng.Intn(len(g.pool))]
	} else {
		faults = syndrome.RandomFaults(1<<g.w.bits, g.w.bits, g.rng).Members()
	}
	it := item{faults: faults, behavior: behaviorNames[g.rng.Intn(len(behaviorNames))]}
	if it.behavior == "random" {
		it.seed = g.rng.Uint64()
	}
	body, err := json.Marshal(serve.DiagnoseRequest{
		Topology: g.w.spec(), Implicit: g.w.implicit,
		Faults: it.faults, Behavior: it.behavior, Seed: it.seed,
	})
	if err != nil {
		panic(err) // a plain struct of ints and strings always marshals
	}
	it.body = body
	return it
}

func (g *generator) take(n int) []item {
	out := make([]item, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// arrivals returns the due offsets of n = rate·d requests evenly
// spaced at rate per second: the same schedule on every run and every
// seed, so the seed varies only what is asked, not when.
func arrivals(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// startRung returns the ladder index whose rate is nearest r.
func startRung(ladder []float64, r float64) int {
	i := sort.SearchFloat64s(ladder, r)
	if i == len(ladder) || (i > 0 && r-ladder[i-1] < ladder[i]-r) {
		i--
	}
	return i
}
