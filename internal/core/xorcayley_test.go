package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// declaredKernel binds the final-pass kernel a network's declared
// Cayley structure resolves to, failing the test when nothing binds.
func declaredKernel(t *testing.T, nw topology.Network) finalKernel {
	t.Helper()
	cs, ok := nw.(topology.CayleyStructured)
	if !ok {
		t.Fatalf("%s: no Cayley declaration", nw.Name())
	}
	desc := cs.CayleyStructure()
	if err := graph.VerifyCayley(nw.Graph(), desc); err != nil {
		t.Fatalf("%s: declaration rejected: %v", nw.Name(), err)
	}
	k := bindFinalKernel(desc, nw.Graph())
	if k == nil {
		t.Fatalf("%s: no kernel bound for %v", nw.Name(), desc)
	}
	return k
}

// TestKernelBinding pins which families bind which kernel — the
// registry's observable contract. Multi-bit XOR families (folded,
// enhanced, augmented) now get the generalised word-parallel kernel
// instead of falling back to the generic pass, tori bind the
// additive-rotate kernel, and node-dependent or undersized families
// stay generic.
func TestKernelBinding(t *testing.T) {
	cases := []struct {
		nw   topology.Network
		want string
	}{
		{topology.NewHypercube(8), "xor-cayley"},
		{topology.NewHypercube(14), "xor-cayley"},
		{topology.NewFoldedHypercube(8), "xor-cayley[multi-bit]"},
		{topology.NewEnhancedHypercube(8, 3), "xor-cayley[multi-bit]"},
		{topology.NewAugmentedCube(6), "xor-cayley[multi-bit]"},
		{topology.NewAugmentedCube(8), "xor-cayley[multi-bit]"},
		{topology.NewKAryNCube(4, 4), "additive-rotate"},
		{topology.NewKAryNCube(3, 5), "additive-rotate"},
		// Augmented k-ary cubes declare the mixed-radix descriptor; the
		// run generators compile into per-borrow-pattern steps.
		{topology.NewAugmentedKAryNCube(4, 3), "additive-rotate[mixed-radix]"},
		{topology.NewAugmentedKAryNCube(3, 6), "additive-rotate[mixed-radix]"},
		// Negative cases: permutation families have no uniform
		// generator set and must stay on the generic kernel.
		{topology.NewStar(5), "generic"},
		{topology.NewPancake(5), "generic"},
		// Node-dependent cube variants likewise.
		{topology.NewCrossedCube(8), "generic"},
		{topology.NewTwistedNCube(8), "generic"},
		{topology.NewShuffleCube(6), "generic"},
		// Q5 has 32 < 64 nodes: genuine structure, below the word floor.
		{topology.NewHypercube(5), "generic"},
		{topology.NewKAryNCube(3, 3), "generic"},
		{topology.NewAugmentedKAryNCube(3, 3), "generic"}, // 27 < 64 nodes
	}
	for _, c := range cases {
		got := NewEngine(c.nw).KernelName()
		if c.want == "additive-rotate[mixed-radix]" {
			// The mixed-radix name carries the schedule pruner's counts
			// (steps/merged/listed), which are sizes, not contract.
			if !strings.HasPrefix(got, "additive-rotate[mixed-radix") {
				t.Errorf("%s: kernel %q, want %q prefix", c.nw.Name(), got, c.want)
			}
		} else if got != c.want {
			t.Errorf("%s: kernel %q, want %q", c.nw.Name(), got, c.want)
		}
	}
}

// TestGraphEngineBindCayley pins the untrusted-descriptor path: a
// graph-bound engine starts generic, binds a kernel only after the
// descriptor survives verification, and rejects descriptors that do
// not match the graph.
func TestGraphEngineBindCayley(t *testing.T) {
	nw := topology.NewFoldedHypercube(8)
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewGraphEngine(nw.Graph(), delta, parts)
	if eng.KernelName() != "generic" {
		t.Fatalf("graph-bound engine starts with %q, want generic", eng.KernelName())
	}
	// A wrong claim (plain-hypercube masks on a folded cube) must be
	// rejected and leave the engine untouched.
	if err := eng.BindCayley(topology.NewHypercube(8).CayleyStructure()); err == nil {
		t.Fatal("mismatched descriptor accepted")
	}
	if eng.KernelName() != "generic" {
		t.Fatal("rejected descriptor still bound a kernel")
	}
	if err := eng.BindCayley(nw.CayleyStructure()); err != nil {
		t.Fatal(err)
	}
	if eng.KernelName() != "xor-cayley[multi-bit]" {
		t.Fatalf("kernel %q after BindCayley", eng.KernelName())
	}
	// The kernel-bound graph engine must stay result- and
	// look-up-identical to the free functions.
	F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(5)))
	sEng := syndrome.NewLazy(F, syndrome.Mimic{})
	sRef := syndrome.NewLazy(F, syndrome.Mimic{})
	got, gotStats, err := eng.Diagnose(sEng)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := DiagnoseGraph(nw.Graph(), delta, parts, sRef, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || gotStats.TotalLookups != wantStats.TotalLookups {
		t.Fatalf("graph engine diverged: lookups %d vs %d", gotStats.TotalLookups, wantStats.TotalLookups)
	}
}

// structuredNetworks are the kernel-bound instances every equivalence
// suite below runs over: single-bit and multi-bit XOR families plus
// even- and odd-arity tori (odd arity exercises the non-word-aligned
// tail masks).
func structuredNetworks() []topology.Network {
	return []topology.Network{
		topology.NewHypercube(6),
		topology.NewHypercube(9),
		topology.NewFoldedHypercube(8),
		topology.NewEnhancedHypercube(7, 3),
		topology.NewAugmentedCube(6),
		topology.NewKAryNCube(4, 3),
		topology.NewKAryNCube(3, 4),
		topology.NewKAryNCube(4, 5),
		topology.NewAugmentedKAryNCube(4, 3), // mixed-radix, 64 nodes
		topology.NewAugmentedKAryNCube(5, 3), // mixed-radix, ragged tail
		topology.NewAugmentedKAryNCube(3, 6), // mixed-radix, long run generators
		topology.NewAugmentedKAryNCube(4, 5), // mixed-radix, word-round regime
	}
}

// TestKernelsMatchReferenceWithFaultySeed pins the unsorted-frontier
// regression: a faulty seed's arbitrary pair answers can produce an
// out-of-order U_1 frontier (e.g. Inverted admits a low neighbour via
// a high faulty one, then a middle neighbour), and the reference then
// sweeps in frontier order, not ascending order. Every specialised
// kernel must reproduce that, not assume sortedness.
func TestKernelsMatchReferenceWithFaultySeed(t *testing.T) {
	// Q8/Q9-sized instances matter most: their word counts are below Δ,
	// so an out-of-order U_1 frontier can reach the word-parallel
	// rounds (verified: with the order gate removed, inverted-adversary
	// trials diverge from the reference).
	nets := append(structuredNetworks(), topology.NewHypercube(12))
	for _, nw := range nets {
		g := nw.Graph()
		delta := nw.Diagnosability()
		k := declaredKernel(t, nw)
		t.Run(nw.Name(), func(t *testing.T) {
			testKernelsFaultySeed(t, g, delta, k)
		})
	}
}

func testKernelsFaultySeed(t *testing.T, g *graph.Graph, delta int, k finalKernel) {
	for _, b := range syndrome.AllBehaviors(3) {
		for trial := int64(0); trial < 20; trial++ {
			// Seed 0 is always faulty, plus random companions.
			F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(trial)))
			F.Add(0)
			sRef := syndrome.NewLazy(F, b)
			ref := SetBuilder(g, sRef, 0, delta, nil)

			sKer := syndrome.NewLazy(F, b)
			got := k.run(NewScratch(g.N()), g, sKer, 0, delta)
			sLzy := syndrome.NewLazy(F, b)
			lzy := setBuilderLazyInto(NewScratch(g.N()), g, sLzy, 0, delta)

			for name, r := range map[string]*SetBuilderResult{k.Name(): got, "lazy": lzy} {
				if !ref.U.Equal(r.U) || !slices.Equal(ref.Parent, r.Parent) {
					t.Fatalf("%s trial %d %s: tree differs from reference", b.Name(), trial, name)
				}
				if !ref.Contributors.Equal(r.Contributors) ||
					ref.Rounds != r.Rounds || ref.AllHealthy != r.AllHealthy {
					t.Fatalf("%s trial %d %s: metadata differs", b.Name(), trial, name)
				}
				if ref.Lookups != r.Lookups {
					t.Fatalf("%s trial %d %s: lookups %d vs reference %d", b.Name(), trial, name, r.Lookups, ref.Lookups)
				}
			}
			if sKer.Lookups() != sRef.Lookups() || sLzy.Lookups() != sRef.Lookups() {
				t.Fatalf("%s trial %d: syndrome counters diverged", b.Name(), trial)
			}

			sPar := syndrome.NewLazy(F, b)
			par := SetBuilderParallel(g, sPar, 0, delta, nil, 4)
			if !ref.U.Equal(par.U) || !slices.Equal(ref.Parent, par.Parent) {
				t.Fatalf("%s trial %d parallel: tree differs from reference", b.Name(), trial)
			}
		}
	}
}

// TestStructureKernelsMatchReference compares every registry kernel
// against the reference SetBuilder field by field — including Parent,
// Contributors and the exact look-up count — across behaviours, fault
// loads (healthy-dominant, at δ, beyond δ) and seeds, on sizes that
// exercise both the word-parallel and the small-round sweep paths.
//
// The XOR kernel also runs over descriptor-bound adjacency
// (graph.NewCayleyAdjacency), where its sweeps take other neighbour
// sources than a CSR run: frontier sweeps generate neighbours in
// generator order and dense complement sweeps walk the compiled
// schedule. Q14, FQ12 and AQ10 chain several word rounds — the
// bitset-resident frontier and the fused in-word runs — before handing
// off to complement sweeps; a faulty seed adds a scrambled U_1
// frontier.
func TestStructureKernelsMatchReference(t *testing.T) {
	type target struct {
		name string
		nw   topology.Network
		a    graph.Adjacencer
		k    finalKernel
	}
	var targets []target
	for _, nw := range structuredNetworks() {
		targets = append(targets, target{nw.Name(), nw, nw.Graph(), declaredKernel(t, nw)})
	}
	for _, nw := range []topology.Network{
		topology.NewHypercube(9),
		topology.NewHypercube(14),
		topology.NewFoldedHypercube(12),
		topology.NewAugmentedCube(10),
	} {
		ca, err := graph.NewCayleyAdjacency(nw.(topology.CayleyStructured).CayleyStructure())
		if err != nil {
			t.Fatal(err)
		}
		k := bindFinalKernel(ca.Descriptor(), ca)
		if _, ok := k.(*xorKernel); !ok {
			t.Fatalf("%s: implicit adjacency bound %v, want the XOR kernel", nw.Name(), k)
		}
		targets = append(targets, target{nw.Name() + "/implicit", nw, ca, k})
	}
	for _, tg := range targets {
		g := tg.nw.Graph()
		delta := tg.nw.Diagnosability()
		for _, b := range syndrome.AllBehaviors(7) {
			for _, f := range []int{1, delta, delta + 3, -delta} {
				// f < 0: |f| faults with the seed among them.
				F := syndrome.RandomFaults(g.N(), max(f, -f), rand.New(rand.NewSource(int64(g.N()*100+f))))
				seed := int32(0)
				if f < 0 {
					F.Add(0)
				}
				for f > 0 && F.Contains(int(seed)) {
					seed++
				}
				sRef := syndrome.NewLazy(F, b)
				ref := SetBuilder(g, sRef, seed, delta, nil)

				sKer := syndrome.NewLazy(F, b)
				got := tg.k.run(NewScratch(g.N()), tg.a, sKer, seed, delta)

				if !ref.U.Equal(got.U) {
					t.Fatalf("%s %s f=%d: U differs", tg.name, b.Name(), f)
				}
				if !slices.Equal(ref.Parent, got.Parent) {
					t.Fatalf("%s %s f=%d: Parent differs", tg.name, b.Name(), f)
				}
				if !ref.Contributors.Equal(got.Contributors) {
					t.Fatalf("%s %s f=%d: Contributors differ", tg.name, b.Name(), f)
				}
				if ref.Rounds != got.Rounds || ref.AllHealthy != got.AllHealthy {
					t.Fatalf("%s %s f=%d: rounds/AllHealthy differ", tg.name, b.Name(), f)
				}
				if ref.Lookups != got.Lookups || sRef.Lookups() != sKer.Lookups() {
					t.Fatalf("%s %s f=%d: lookups differ: %d vs %d", tg.name, b.Name(), f, got.Lookups, ref.Lookups)
				}
			}
		}
	}
}

// TestFirstCondWord checks the owned-range start of a conditioned run
// (roundRange) against a linear scan.
func TestFirstCondWord(t *testing.T) {
	for mask := uint32(0); mask < 64; mask++ {
		for val := uint32(0); val < 64; val++ {
			if val&^mask != 0 {
				continue
			}
			for lo := uint32(0); lo < 70; lo++ {
				want := lo
				for want&mask != val {
					want++
				}
				if got := firstCondWord(lo, mask, val); got != want {
					t.Fatalf("firstCondWord(%d, %#x, %#x) = %d, want %d", lo, mask, val, got, want)
				}
			}
		}
	}
	if got := firstCondWord(1<<31, 1<<31, 0); got != ^uint32(0) {
		t.Fatalf("firstCondWord past the last match = %d, want none", got)
	}
}

// TestXORScheduleIsOrderExact checks the compiled schedule directly:
// for every candidate id, the subsequence of steps whose condition the
// candidate satisfies must list that candidate's testers in strictly
// ascending order, and cover every mask exactly once.
func TestXORScheduleIsOrderExact(t *testing.T) {
	maskSets := map[string][]int32{
		"Q6":     {1, 2, 4, 8, 16, 32},
		"FQ6":    {1, 2, 4, 8, 16, 32, 63},
		"EQ6_3":  {1, 2, 4, 8, 16, 32, 56},
		"AQ6":    {1, 2, 4, 8, 16, 32, 3, 7, 15, 31, 63},
		"dense3": {1, 2, 3, 4, 5, 6, 7},
	}
	for name, masks := range maskSets {
		sched := compileXORSchedule(masks)
		if sched == nil {
			t.Fatalf("%s: schedule refused", name)
		}
		n := int32(64)
		for v := int32(0); v < n; v++ {
			var testers []int32
			seen := map[int32]bool{}
			for _, st := range sched {
				ok := true
				for _, lt := range st.lits {
					if (v&(1<<uint(lt.bit)) != 0) != lt.val {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if seen[st.mask] {
					t.Fatalf("%s v=%d: mask %#x scheduled twice", name, v, st.mask)
				}
				seen[st.mask] = true
				testers = append(testers, v^st.mask)
			}
			if len(testers) != len(masks) {
				t.Fatalf("%s v=%d: %d testers scheduled, want %d", name, v, len(testers), len(masks))
			}
			if !slices.IsSorted(testers) {
				t.Fatalf("%s v=%d: testers out of order: %v", name, v, testers)
			}
		}
	}
	if compileXORSchedule([]int32{4, 4}) != nil {
		t.Fatal("duplicate mask set compiled")
	}
}
