package core

import (
	"math/rand"
	"runtime"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestSetBuilderIntoZeroAllocs pins the hot-path contract: on a warm
// scratch, SetBuilderInto performs no heap allocation.
func TestSetBuilderIntoZeroAllocs(t *testing.T) {
	nw := topology.NewHypercube(10)
	g := nw.Graph()
	delta := nw.Diagnosability()
	F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	seed := int32(0)
	for F.Contains(int(seed)) {
		seed++
	}
	sc := NewScratch(g.N())
	// Warm the scratch so the frontier buffers reach their steady-state
	// capacity.
	SetBuilderInto(sc, g, s, seed, delta, nil)

	allocs := testing.AllocsPerRun(20, func() {
		r := SetBuilderInto(sc, g, s, seed, delta, nil)
		if r.U.Count() == 0 {
			t.Fatal("empty result")
		}
	})
	if allocs != 0 {
		t.Fatalf("SetBuilderInto on warm scratch allocated %.1f objects/op, want 0", allocs)
	}
}

// TestDiagnoseWarmScratchZeroAllocs pins the end-to-end contract: with
// caller-supplied Parts and Scratch, a sequential DiagnoseOpts performs
// no heap allocation in steady state.
func TestDiagnoseWarmScratchZeroAllocs(t *testing.T) {
	nw := topology.NewHypercube(10)
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(2)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	opt := Options{Parts: parts, Scratch: NewScratch(nw.Graph().N())}
	// Warm run.
	if _, _, err := DiagnoseOpts(nw, s, opt); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(20, func() {
		got, _, err := DiagnoseOpts(nw, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) {
			t.Fatal("misdiagnosis")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DiagnoseOpts allocated %.1f objects/op, want 0", allocs)
	}
}

// TestScratchResultsMatchAllocatingAPI checks that the scratch-reusing
// path is behaviourally identical to the allocating wrappers: same
// fault set, same stats, same look-up count — the paper's look-up
// economy must be bit-for-bit preserved by the reuse machinery.
func TestScratchResultsMatchAllocatingAPI(t *testing.T) {
	for _, trial := range []int64{1, 2, 3, 4, 5} {
		nw := topology.NewHypercube(8)
		delta := nw.Diagnosability()
		F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(trial)))

		s1 := syndrome.NewLazy(F, syndrome.Mimic{})
		f1, st1, err1 := DiagnoseOpts(nw, s1, Options{})

		parts, err := nw.Parts(delta+1, delta+1)
		if err != nil {
			t.Fatal(err)
		}
		s2 := syndrome.NewLazy(F, syndrome.Mimic{})
		sc := NewScratch(nw.Graph().N())
		f2, st2, err2 := DiagnoseOpts(nw, s2, Options{Parts: parts, Scratch: sc})

		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !f1.Equal(f2) {
			t.Fatalf("trial %d: fault sets differ: %v vs %v", trial, f1, f2)
		}
		if *st1 != *st2 {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, st1, st2)
		}
		if s1.Lookups() != s2.Lookups() {
			t.Fatalf("trial %d: lookups differ: %d vs %d", trial, s1.Lookups(), s2.Lookups())
		}
	}
}

// TestParallelFinalWarmZeroAllocs pins the fan-out half of the hot-path
// contract: a warm FinalWorkers pass on a kernel-bound engine runs its
// word-split rounds on the persistent crew with per-worker state held
// in the scratch, so it allocates nothing per call.
func TestParallelFinalWarmZeroAllocs(t *testing.T) {
	setGOMAXPROCS(t, 4)
	const bitsN = 14
	masks := make([]int32, bitsN)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	eng, err := NewCayleyEngine(graph.XORCayley{Bits: bitsN, Masks: masks}, bitsN)
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.RandomFaults(1<<bitsN, bitsN, rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	opt := Options{Scratch: sc, FinalWorkers: 4}
	// Blocking on the crew's channel and wait group can make the runtime
	// refill its goroutine-parking cache now and then, a fraction of an
	// allocation per call; a per-call allocation (a goroutine closure, a
	// shard, a buffer) shows up as at least one.
	allocs := mallocsPerRun(50, func() {
		got, st, err := eng.DiagnoseOpts(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) || st.FinalWorkersUsed != 4 {
			t.Fatalf("misdiagnosis or clamped fan-out (FinalWorkersUsed %d)", st.FinalWorkersUsed)
		}
	})
	if allocs >= 1 {
		t.Fatalf("warm parallel DiagnoseOpts allocated %.2f objects/op, want 0", allocs)
	}
}

// TestSetBuilderParallelWarmZeroAllocs is the same contract for the
// generic barrier pass (engines without a word kernel): on a warm
// scratch its rounds allocate nothing either.
func TestSetBuilderParallelWarmZeroAllocs(t *testing.T) {
	setGOMAXPROCS(t, 4)
	nw := topology.NewHypercube(14)
	g := nw.Graph()
	delta := nw.Diagnosability()
	F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	seed := int32(0)
	for F.Contains(int(seed)) {
		seed++
	}
	sc := NewScratch(g.N())
	want := SetBuilderInto(NewScratch(g.N()), g, syndrome.NewLazy(F, syndrome.Mimic{}), seed, delta, nil).U.Clone()
	allocs := mallocsPerRun(50, func() {
		r := setBuilderParallelInto(sc, g, s, seed, delta, nil, 4)
		if !r.U.Equal(want) {
			t.Fatal("parallel U differs from the sequential pass")
		}
	})
	if allocs >= 1 {
		t.Fatalf("warm setBuilderParallelInto allocated %.2f objects/op, want 0", allocs)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin,
// which would clamp a FinalWorkers request to the sequential pass: one
// warm-up call, then the mean heap allocation count over runs calls.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
}
