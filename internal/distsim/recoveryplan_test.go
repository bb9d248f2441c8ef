package distsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
)

// TestRecoveryPlanClosesCrashWindow checks the injector-level contract:
// a crash with a later rejoin silences the node only inside
// [crash, rejoin), the hardened protocol closes the gap by
// retransmission, and a rejoin at the crash round cancels the crash
// without ever stamping the ledger.
func TestRecoveryPlanClosesCrashWindow(t *testing.T) {
	cs, nw := faultyFixture(t)
	F := syndrome.RandomFaults(nw.Graph().N(), 3, rand.New(rand.NewSource(13)))

	// Window [0, 12): node 63 misses the first rounds, rejoins
	// mid-collection, and its retransmissions deliver the record late.
	plan := &FaultPlan{Seed: 3, Crashes: []Crash{{Node: 63, Round: 0}}}
	rec := &RecoveryPlan{Rejoins: []Rejoin{{Node: 63, Round: 12}}}
	res := cs.ReplayRecovering([]syndrome.Syndrome{syndrome.NewLazy(F, syndrome.Mimic{})}, plan, rec, 6, nil)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Missing) != 0 || res.Degraded {
		t.Fatalf("rejoined wave still missing %v (degraded=%v)", res.Missing, res.Degraded)
	}
	if !res.Faults.Equal(F) {
		t.Fatalf("diagnosed %v, want %v", res.Faults, F)
	}
	if res.Inject.Rejoined != 1 {
		t.Fatalf("Rejoined = %d, want 1", res.Inject.Rejoined)
	}
	found := false
	for _, ev := range res.Events {
		if ev.Kind == "rejoin" && ev.From == 63 && ev.Round == 12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rejoin event in the ledger: %v", res.Events)
	}
	if res.Inject.CrashDropped == 0 {
		t.Fatalf("the crash window silenced nothing: %+v", res.Inject)
	}

	// Empty window [0, 0): the rejoin cancels the crash outright — no
	// silencing, no ledger entry.
	rec0 := &RecoveryPlan{Rejoins: []Rejoin{{Node: 63, Round: 0}}}
	res0 := cs.ReplayRecovering([]syndrome.Syndrome{syndrome.NewLazy(F, syndrome.Mimic{})}, plan, rec0, 6, nil)[0]
	if res0.Err != nil {
		t.Fatal(res0.Err)
	}
	if len(res0.Missing) != 0 || res0.Inject.Rejoined != 0 || res0.Inject.CrashDropped != 0 {
		t.Fatalf("cancelled crash still injected: %+v missing=%v", res0.Inject, res0.Missing)
	}
}

// TestRecoveringReplayUpgradesMidCampaign is the serving story: one
// node is down for the whole first wave and rejoins early in the
// second, so the same server hands out a degraded diagnosis in wave 0
// and full diagnoses from wave 1 on.
func TestRecoveringReplayUpgradesMidCampaign(t *testing.T) {
	cs, nw := faultyFixture(t)
	g := nw.Graph()
	F := syndrome.RandomFaults(g.N(), 3, rand.New(rand.NewSource(5)))
	var syns []syndrome.Syndrome
	for i := 0; i < 3; i++ {
		syns = append(syns, syndrome.NewLazy(F, syndrome.Mimic{}))
	}
	// Global axis: wave w is rounds [w*50000, (w+1)*50000). Node 63 goes
	// down at round 0 and rejoins 10 rounds into wave 1.
	plan := &FaultPlan{Seed: 7, Crashes: []Crash{{Node: 63, Round: 0}}}
	rec := &RecoveryPlan{Rejoins: []Rejoin{{Node: 63, Round: 50010}}}
	res := cs.ReplayRecovering(syns, plan, rec, 6, nil)

	w0 := res[0]
	if w0.Err != nil {
		t.Fatal(w0.Err)
	}
	if !w0.Degraded || !slices.Contains(w0.Missing, int32(63)) {
		t.Fatalf("wave 0 should be degraded missing node 63: %+v", w0)
	}
	if w0.EffectiveDelta <= 0 || w0.EffectiveDelta >= nw.Diagnosability() {
		t.Fatalf("wave 0 EffectiveDelta = %d, want in (0, δ=%d)", w0.EffectiveDelta, nw.Diagnosability())
	}
	for w := 1; w < 3; w++ {
		r := res[w]
		if r.Err != nil {
			t.Fatalf("wave %d: %v", w, r.Err)
		}
		if r.Degraded || len(r.Missing) != 0 {
			t.Fatalf("wave %d should have upgraded to a full diagnosis: %+v", w, r)
		}
		if !r.Faults.Equal(F) {
			t.Fatalf("wave %d diagnosed %v, want %v", w, r.Faults, F)
		}
		if r.Diag.Degraded {
			t.Fatalf("wave %d diagnosis still stamped degraded: %+v", w, r.Diag)
		}
	}
	// The rejoin lands mid-wave-1 (translated round 10); wave 2 never
	// sees the crash at all.
	if res[1].Inject.Rejoined != 1 || res[1].Inject.CrashDropped == 0 {
		t.Fatalf("wave 1 should rejoin mid-collection: %+v", res[1].Inject)
	}
	if res[2].Inject != (FaultStats{}) {
		t.Fatalf("wave 2 should be clean: %+v", res[2].Inject)
	}
}

// TestRecoveringReplayDeterminism replays the same recovering campaign
// twice and requires bit-identical outcomes.
func TestRecoveringReplayDeterminism(t *testing.T) {
	cs, nw := faultyFixture(t)
	plan := &FaultPlan{
		Seed: 42, Drop: 0.10, Duplicate: 0.05, Delay: 0.08, MaxDelay: 2,
		Crashes: []Crash{{Node: 63, Round: 0}, {Node: 21, Round: 4}},
	}
	rec := &RecoveryPlan{Rejoins: []Rejoin{{Node: 63, Round: 50015}, {Node: 21, Round: 30}}}
	rng := rand.New(rand.NewSource(2))
	var syns1, syns2 []syndrome.Syndrome
	for i := 0; i < 3; i++ {
		F := syndrome.RandomFaults(nw.Graph().N(), rng.Intn(nw.Diagnosability()), rng)
		syns1 = append(syns1, syndrome.NewLazy(F, syndrome.Mimic{}))
		syns2 = append(syns2, syndrome.NewLazy(F, syndrome.Mimic{}))
	}
	r1 := cs.ReplayRecovering(syns1, plan, rec, 5, nil)
	r2 := cs.ReplayRecovering(syns2, plan, rec, 5, nil)
	for i := range r1 {
		a, b := r1[i], r2[i]
		if (a.Faults == nil) != (b.Faults == nil) || (a.Faults != nil && !a.Faults.Equal(b.Faults)) {
			t.Fatalf("wave %d: fault sets differ across replays", i)
		}
		if !slices.Equal(a.Missing, b.Missing) {
			t.Fatalf("wave %d: missing %v vs %v", i, a.Missing, b.Missing)
		}
		if a.Net != b.Net || a.Inject != b.Inject || a.Diag != b.Diag ||
			a.Degraded != b.Degraded || a.EffectiveDelta != b.EffectiveDelta {
			t.Fatalf("wave %d: ledgers diverge:\n%+v\n%+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Fatalf("wave %d: event logs diverge (%d vs %d events)", i, len(a.Events), len(b.Events))
		}
	}
}

// TestRecoveringReplayNoRecMatchesFaulty pins the degenerate case: with
// every crash at round 0 the global→wave translation is the identity,
// so ReplayRecovering without a recovery plan is bit-identical to
// ReplayFaulty.
func TestRecoveringReplayNoRecMatchesFaulty(t *testing.T) {
	cs, nw := faultyFixture(t)
	plan := &FaultPlan{
		Seed: 42, Drop: 0.12, Duplicate: 0.05, Delay: 0.10, MaxDelay: 3,
		SlowLinks: []SlowLink{{U: 0, V: 1, Extra: 2}},
		Crashes:   []Crash{{Node: 9, Round: 0}},
	}
	rng := rand.New(rand.NewSource(6))
	var syns1, syns2 []syndrome.Syndrome
	for i := 0; i < 3; i++ {
		F := syndrome.RandomFaults(nw.Graph().N(), rng.Intn(nw.Diagnosability()), rng)
		syns1 = append(syns1, syndrome.NewLazy(F, syndrome.Mimic{}))
		syns2 = append(syns2, syndrome.NewLazy(F, syndrome.Mimic{}))
	}
	rf := cs.ReplayFaulty(syns1, plan, 4, nil)
	rr := cs.ReplayRecovering(syns2, plan, nil, 4, nil)
	for i := range rf {
		a, b := rf[i], rr[i]
		if (a.Faults == nil) != (b.Faults == nil) || (a.Faults != nil && !a.Faults.Equal(b.Faults)) {
			t.Fatalf("wave %d: fault sets differ", i)
		}
		if !slices.Equal(a.Missing, b.Missing) || a.Net != b.Net || a.Inject != b.Inject ||
			a.Degraded != b.Degraded || a.EffectiveDelta != b.EffectiveDelta || a.Diag != b.Diag {
			t.Fatalf("wave %d: recovering replay without a plan diverged from ReplayFaulty:\n%+v\n%+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Fatalf("wave %d: event logs diverge", i)
		}
	}
}

// TestReplayNilFaultPlan pins the no-injection case: a nil fault plan,
// with or without a recovery plan, collects every source and diagnoses
// each wave's hypothesis exactly, under both replays.
func TestReplayNilFaultPlan(t *testing.T) {
	cs, nw := faultyFixture(t)
	rng := rand.New(rand.NewSource(8))
	var Fs []*bitset.Set
	for i := 0; i < 3; i++ {
		Fs = append(Fs, syndrome.RandomFaults(nw.Graph().N(), 1+rng.Intn(nw.Diagnosability()), rng))
	}
	syns := func() []syndrome.Syndrome {
		var ss []syndrome.Syndrome
		for _, F := range Fs {
			ss = append(ss, syndrome.NewLazy(F, syndrome.Mimic{}))
		}
		return ss
	}
	rec := &RecoveryPlan{Rejoins: []Rejoin{{Node: 9, Round: 3}}}
	for name, run := range map[string]func() []FaultyReplayResult{
		"faulty":            func() []FaultyReplayResult { return cs.ReplayFaulty(syns(), nil, 4, nil) },
		"recovering":        func() []FaultyReplayResult { return cs.ReplayRecovering(syns(), nil, nil, 4, nil) },
		"recovering-rejoin": func() []FaultyReplayResult { return cs.ReplayRecovering(syns(), nil, rec, 4, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			for i, r := range run() {
				if r.Err != nil || r.Degraded || len(r.Missing) != 0 || r.Inject != (FaultStats{}) || len(r.Events) != 0 {
					t.Fatalf("wave %d: err %v degraded %v missing %v inject %+v events %d, want a clean wave",
						i, r.Err, r.Degraded, r.Missing, r.Inject, len(r.Events))
				}
				if !r.Faults.Equal(Fs[i]) {
					t.Fatalf("wave %d: diagnosed %v, want %v", i, r.Faults, Fs[i])
				}
			}
		})
	}
}
