package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestDeltaCheckpointMatchesFullCopy pins the delta-encoded shared-final
// checkpoint against full, unshared runs of the paper-literal free
// functions (checkSharedFinalGroup): on the same hypothesis and
// behaviour panel every member must agree on fault sets, errors and the
// shape of Stats, members must account the adopted prefix exactly
// (own final + shared prefix = free final look-ups), and each syndrome
// must be consulted exactly as often as its Stats report. Cases cover
// every final-pass driver (generic sweep, xor-cayley, additive-rotate,
// mixed-radix) and the empty hypothesis whose prefix is complete.
func TestDeltaCheckpointMatchesFullCopy(t *testing.T) {
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
			rng := rand.New(rand.NewSource(41))
			loads := []int{0, 1, tc.nw.Diagnosability()}
			for trial := 0; trial < 3; trial++ {
				loads = append(loads, 1+rng.Intn(tc.nw.Diagnosability()))
			}
			for _, load := range loads {
				F := syndrome.RandomFaults(g.N(), load, rng)
				checkSharedFinalGroup(t, tc.nw, eng, F, BatchOptions{
					ShareCertification: true,
					Options:            Options{GenericFinal: tc.generic},
				})
			}
		})
	}
}

// TestDeltaCheckpointGoldenCorpus replays every committed golden
// fixture (testdata/golden: frozen topology + fault set + adversary,
// including the empty hypothesis and the beyond-δ refusal) through a
// shared-final batch. Member 0 runs the fixture's own adversary — its
// fault set (or pinned refusal) must still match the corpus — and
// every member must meet the checkSharedFinalGroup contract against
// the paper-literal free functions.
func TestDeltaCheckpointGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures found (%v)", err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fx goldenFixture
			if err := json.Unmarshal(raw, &fx); err != nil {
				t.Fatal(err)
			}
			nw, err := topology.Parse(fx.Net)
			if err != nil {
				t.Fatal(err)
			}
			n := nw.Graph().N()
			F := bitset.FromMembers(n, fx.Faults)
			panel := append([]syndrome.Behavior{goldenBehavior(fx.Behavior, fx.BehaviorSeed)}, sharedFinalBehaviors()...)
			got := checkSharedFinalPanel(t, nw, NewEngine(nw), F, BatchOptions{ShareCertification: true}, panel)
			switch {
			case fx.WantErr != "":
				if got[0].Err == nil || !strings.Contains(got[0].Err.Error(), fx.WantErr) {
					t.Fatalf("fixture adversary: err %v, corpus pins %q", got[0].Err, fx.WantErr)
				}
			case got[0].Err != nil:
				t.Fatalf("fixture adversary: unexpected error %v", got[0].Err)
			case !got[0].Faults.Equal(bitset.FromMembers(n, fx.WantFaults)):
				t.Fatalf("fixture adversary: fault set %v differs from corpus %v",
					got[0].Faults, fx.WantFaults)
			}
		})
	}
}
