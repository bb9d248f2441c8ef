package core

import (
	"errors"
	"math/rand"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// sharedFinalBehaviors is the behaviour panel grouped-batch tests
// replay one hypothesis under.
func sharedFinalBehaviors() []syndrome.Behavior {
	return []syndrome.Behavior{
		syndrome.Mimic{}, syndrome.AllZero{}, syndrome.AllOne{},
		syndrome.Inverted{}, syndrome.Random{Seed: 11},
	}
}

// checkSharedFinalGroup runs one fault hypothesis through a grouped
// DiagnoseBatch on the given network/engine and pins the
// ShareFinalPrefix contract against the paper-literal free functions:
//
//   - fault sets, errors and the shape fields of Stats (Seed, Rounds,
//     HealthyCount, FaultCount, CertifiedPart) bit-identical;
//   - prefix look-ups attributed once (to the representative), members
//     reporting the delta: member.FinalLookups +
//     member.SharedFinalLookups == free.FinalLookups, and the member's
//     own syndrome consulted exactly TotalLookups times;
//   - the group-total look-ups strictly below the unshared total
//     whenever a non-empty prefix was shared.
func checkSharedFinalGroup(t *testing.T, nw topology.Network, eng *Engine, F *bitset.Set, bopt BatchOptions) {
	t.Helper()
	checkSharedFinalPanel(t, nw, eng, F, bopt, sharedFinalBehaviors())
}

// checkSharedFinalPanel is checkSharedFinalGroup over an explicit
// behaviour panel; it returns the batch results for further checks.
func checkSharedFinalPanel(t *testing.T, nw topology.Network, eng *Engine, F *bitset.Set, bopt BatchOptions, behaviors []syndrome.Behavior) []BatchResult {
	t.Helper()
	var syns, refs []syndrome.Syndrome
	for _, b := range behaviors {
		syns = append(syns, syndrome.NewLazy(F, b))
		refs = append(refs, syndrome.NewLazy(F, b))
	}
	bopt.ShareFinalPrefix = true
	results := eng.DiagnoseBatch(syns, bopt)

	var freeTotal, groupTotal int64
	sharedAny := false
	for i, r := range results {
		want, wantStats, wantErr := Diagnose(nw, refs[i])
		if (r.Err == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(r.Err, wantErr)) {
			t.Fatalf("syndrome %d (%s): err %v, free function %v", i, behaviors[i].Name(), r.Err, wantErr)
		}
		if wantErr == nil && !r.Faults.Equal(want) {
			t.Fatalf("syndrome %d (%s): fault set differs from free function", i, behaviors[i].Name())
		}
		freeTotal += refs[i].Lookups()
		groupTotal += syns[i].Lookups()
		if i == 0 {
			// The representative pays the full, canonical run.
			if wantStats != nil && r.Stats != *wantStats {
				t.Fatalf("representative stats %+v differ from free-function %+v", r.Stats, *wantStats)
			}
			if syns[i].Lookups() != refs[i].Lookups() {
				t.Fatalf("representative look-up counter diverged: %d vs %d", syns[i].Lookups(), refs[i].Lookups())
			}
			continue
		}
		st := r.Stats
		if wantStats == nil {
			continue
		}
		if st.Seed != wantStats.Seed || st.Rounds != wantStats.Rounds ||
			st.HealthyCount != wantStats.HealthyCount || st.FaultCount != wantStats.FaultCount ||
			st.CertifiedPart != wantStats.CertifiedPart || st.Delta != wantStats.Delta {
			t.Fatalf("syndrome %d (%s): shape stats %+v differ from free function %+v", i, behaviors[i].Name(), st, *wantStats)
		}
		if st.FinalLookups+st.SharedFinalLookups != wantStats.FinalLookups {
			t.Fatalf("syndrome %d (%s): member final %d + shared prefix %d ≠ free final %d",
				i, behaviors[i].Name(), st.FinalLookups, st.SharedFinalLookups, wantStats.FinalLookups)
		}
		if st.SharedFinalRounds < 0 || st.SharedFinalRounds > st.Rounds {
			t.Fatalf("syndrome %d: shared rounds %d outside [0, %d]", i, st.SharedFinalRounds, st.Rounds)
		}
		if st.TotalLookups != st.CertLookups+st.FinalLookups {
			t.Fatalf("syndrome %d: total %d ≠ cert %d + final %d", i, st.TotalLookups, st.CertLookups, st.FinalLookups)
		}
		if syns[i].Lookups() != st.TotalLookups {
			t.Fatalf("syndrome %d: syndrome consulted %d times, stats report %d", i, syns[i].Lookups(), st.TotalLookups)
		}
		if bopt.ShareCertification {
			if st.CertLookups != 0 {
				t.Fatalf("syndrome %d: member spent %d certification look-ups with shared scans", i, st.CertLookups)
			}
		} else if st.CertLookups != wantStats.CertLookups {
			t.Fatalf("syndrome %d: unshared-scan member cert %d ≠ free %d", i, st.CertLookups, wantStats.CertLookups)
		}
		if st.SharedFinalLookups > 0 {
			sharedAny = true
		}
	}
	if sharedAny && groupTotal >= freeTotal {
		t.Fatalf("group total %d look-ups not below unshared total %d despite a shared prefix", groupTotal, freeTotal)
	}
	return results
}

// TestShareFinalPrefixAccounting pins the shared-final-prefix contract
// on a kernel-bound engine (Q9: xor-cayley) for a far-clustered
// hypothesis — the workload with a long behaviour-independent prefix —
// with and without composed certification sharing.
func TestShareFinalPrefixAccounting(t *testing.T) {
	nw := topology.NewHypercube(9)
	g := nw.Graph()
	eng := NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	// Faults clustered around the complement of the first part's seed:
	// far from the certified seed, so several rounds stay clean.
	center := parts[0].Seed ^ int32(g.N()-1)
	F := syndrome.ClusterFaults(g, center, nw.Diagnosability())

	t.Run("final-only", func(t *testing.T) {
		checkSharedFinalGroup(t, nw, eng, F, BatchOptions{})
	})
	t.Run("with-shared-cert", func(t *testing.T) {
		checkSharedFinalGroup(t, nw, eng, F, BatchOptions{ShareCertification: true})
	})
}

// TestShareFinalPrefixMidChain pins a checkpoint recorded while the
// XOR kernel's frontier is a bitset: on implicit Q14 the rounds whose
// frontier is a middle layer are word rounds that chain without a
// frontier list, and faults at distance 8–10 from the seed end the
// behaviour-independent prefix between two of them. The snapshot must
// materialise that frontier and members must resume from it exactly.
func TestShareFinalPrefixMidChain(t *testing.T) {
	const bitsN = 14
	nw := topology.NewHypercube(bitsN)
	g := nw.Graph()
	eng, err := NewCayleyEngine(nw.CayleyStructure(), bitsN)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := eng.bnd.Load().kernel.(*xorKernel)
	if !ok {
		t.Fatalf("implicit Q14 bound %q, want the XOR kernel", eng.KernelName())
	}
	// The certified seed of a far-clustered hypothesis, then faults
	// clustered at distance 9 from it.
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	far := syndrome.ClusterFaults(g, parts[0].Seed^int32(g.N()-1), bitsN)
	_, st, err := eng.Diagnose(syndrome.NewLazy(far, syndrome.Mimic{}))
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.ClusterFaults(g, st.Seed^0x1ff, bitsN)
	checkSharedFinalGroup(t, nw, eng, F, BatchOptions{})

	var syns []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
	}
	res := eng.DiagnoseBatch(syns, BatchOptions{ShareFinalPrefix: true})
	if res[1].Err != nil || res[1].Stats.Seed != st.Seed {
		t.Fatalf("member seed %d (err %v), want %d", res[1].Stats.Seed, res[1].Err, st.Seed)
	}
	// A clean prefix is a plain BFS from the seed, so the frontier of
	// round r is the distance-r layer of C(14, r) nodes; the rounds on
	// both sides of the boundary must be word rounds.
	r := res[1].Stats.SharedFinalRounds
	binom := func(n, k int) int {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	t.Logf("prefix ends after round %d", r)
	if r < 2 || binom(bitsN, r-1) <= k.threshold || binom(bitsN, r) <= k.threshold {
		t.Fatalf("prefix of %d rounds does not end between word rounds (layers %d, %d; threshold %d)",
			r, binom(bitsN, r-1), binom(bitsN, r), k.threshold)
	}
}

// TestShareFinalPrefixGenericAndKernels pins the contract across every
// final-pass driver: the generic adaptive sweep (GenericFinal), the
// xor-cayley kernel (Q8), the additive-rotate kernel (k-ary torus) and
// the mixed-radix kernel (augmented k-ary), under random fault loads.
func TestShareFinalPrefixGenericAndKernels(t *testing.T) {
	cases := []struct {
		name    string
		nw      topology.Network
		generic bool
	}{
		{"q8-kernel", topology.NewHypercube(8), false},
		{"q8-generic", topology.NewHypercube(8), true},
		{"kary4x4-additive", topology.NewKAryNCube(4, 4), false},
		{"akary4x4-mixedradix", topology.NewAugmentedKAryNCube(4, 4), false},
		{"star6-generic", topology.NewStar(6), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(tc.nw)
			g := tc.nw.Graph()
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < 3; trial++ {
				f := 1 + rng.Intn(tc.nw.Diagnosability())
				F := syndrome.RandomFaults(g.N(), f, rng)
				bopt := BatchOptions{ShareCertification: true, Options: Options{GenericFinal: tc.generic}}
				checkSharedFinalGroup(t, tc.nw, eng, F, bopt)
			}
		})
	}
}

// TestShareFinalPrefixCompletePrefix pins the clean-to-termination
// case: the empty hypothesis's final pass never touches a hazard, so
// members adopt the whole result and consult the syndrome only for
// their (shared or own) certification scan.
func TestShareFinalPrefixCompletePrefix(t *testing.T) {
	nw := topology.NewHypercube(8)
	eng := NewEngine(nw)
	F := bitset.New(nw.Graph().N())
	checkSharedFinalGroup(t, nw, eng, F, BatchOptions{ShareCertification: true})

	// Directly: members of the empty hypothesis report zero final
	// look-ups of their own.
	var syns []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, BatchOptions{ShareCertification: true, ShareFinalPrefix: true})
	for i, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i+1, r.Err)
		}
		if r.Stats.FinalLookups != 0 || r.Stats.SharedFinalLookups == 0 {
			t.Fatalf("member %d: final %d, shared %d; want complete prefix adoption",
				i+1, r.Stats.FinalLookups, r.Stats.SharedFinalLookups)
		}
		if r.Stats.TotalLookups != 0 || syns[i+1].Lookups() != 0 {
			t.Fatalf("member %d consulted its syndrome %d times, want 0", i+1, syns[i+1].Lookups())
		}
	}
}

// TestShareFinalPrefixHazardousSeed pins the empty-prefix case: when
// the certified seed itself borders a fault, even the pair scan is
// hazardous, no checkpoint is recorded, and members run (and account
// for) their full final pass.
func TestShareFinalPrefixHazardousSeed(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	eng := NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	// One fault adjacent to the certified part's seed, placed outside
	// every candidate part... the seed's lowest-bit neighbour is in the
	// same part for the range partition, so certification moves on; use
	// a neighbour across the top dimension instead, which lives far
	// outside part 0's id range.
	seed0 := parts[0].Seed
	F := bitset.New(g.N())
	F.Add(int(seed0) ^ (g.N() >> 1))

	// The general contract still holds (members simply share nothing)…
	checkSharedFinalGroup(t, nw, eng, F, BatchOptions{ShareCertification: true})

	// …and if part 0 still certified (the fault lives elsewhere), the
	// hazardous seed must have suppressed the checkpoint entirely.
	var syns []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, BatchOptions{ShareCertification: true, ShareFinalPrefix: true})
	if results[0].Err == nil && results[0].Stats.CertifiedPart == 0 {
		for i, r := range results[1:] {
			if r.Stats.SharedFinalLookups != 0 || r.Stats.SharedFinalRounds != 0 {
				t.Fatalf("member %d adopted a prefix (%d look-ups) from a hazardous seed",
					i+1, r.Stats.SharedFinalLookups)
			}
		}
	}
}

// TestShareFinalPrefixOnExternalPool pins the BatchPool plumbing: the
// two-phase grouped batch with prefix sharing behaves identically on a
// caller-supplied pool (the campaign.Runtime shape).
func TestShareFinalPrefixOnExternalPool(t *testing.T) {
	nw := topology.NewHypercube(8)
	delta := nw.Diagnosability()
	g := nw.Graph()
	eng := NewEngine(nw)
	F := syndrome.ClusterFaults(g, int32(g.N()-1), delta)
	var syns, refs []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
		refs = append(refs, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, BatchOptions{
		ShareCertification: true, ShareFinalPrefix: true, Pool: seqPool{eng},
	})
	shared := false
	for i, r := range results {
		want, _, wantErr := Diagnose(nw, refs[i])
		if (r.Err == nil) != (wantErr == nil) || (wantErr == nil && !r.Faults.Equal(want)) {
			t.Fatalf("syndrome %d: pooled prefix-shared batch diverged", i)
		}
		if i > 0 && r.Stats.SharedFinalLookups > 0 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("no member adopted a prefix on the external pool")
	}
}

// TestShareFinalPrefixWarmCache pins the cache composition: when the
// group representative is served from a warm result cache, no
// checkpoint gets recorded — members then have no prefix to adopt, so
// they must fall back to the cache themselves (their runs would be
// fully canonical) instead of degrading to full diagnoses.
func TestShareFinalPrefixWarmCache(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	eng := NewEngine(nw)
	F := syndrome.ClusterFaults(g, int32(g.N()-1), nw.Diagnosability())
	cache := NewResultCache(32)
	makeSyns := func() []syndrome.Syndrome {
		var syns []syndrome.Syndrome
		for _, b := range sharedFinalBehaviors() {
			syns = append(syns, syndrome.NewLazy(F, b))
		}
		return syns
	}

	// Warm the cache with every (hypothesis, behaviour) key.
	warm := makeSyns()
	for i, r := range eng.DiagnoseBatch(warm, BatchOptions{Options: Options{ResultCache: cache}}) {
		if r.Err != nil {
			t.Fatalf("warm-up %d: %v", i, r.Err)
		}
	}

	syns := makeSyns()
	results := eng.DiagnoseBatch(syns, BatchOptions{
		ShareFinalPrefix: true, Options: Options{ResultCache: cache},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("syndrome %d: %v", i, r.Err)
		}
		if !r.Faults.Equal(warm[i].(*syndrome.Lazy).Faults()) && r.Stats.FaultCount > 0 {
			t.Fatalf("syndrome %d: cached grouped batch misdiagnosed", i)
		}
		if got := syns[i].Lookups(); got != 0 {
			t.Fatalf("syndrome %d consulted %d look-ups on a warm cache, want 0", i, got)
		}
	}
}
