package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"
)

func TestGeneratorIsPureInWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := newGenerator(w, 7).take(200), newGenerator(w, 7).take(200)
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: body %d differs for one seed:\n%s\n%s", w.name, i, a[i].body, b[i].body)
			}
		}
		c := newGenerator(w, 8).take(200)
		same := 0
		for i := range a {
			if bytes.Equal(a[i].body, c[i].body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 generate the same bodies", w.name)
		}
		for _, it := range a {
			if len(it.faults) != w.bits {
				t.Fatalf("%s: hypothesis of %d faults, want δ = %d", w.name, len(it.faults), w.bits)
			}
		}
	}
}

func TestClusteredDrawsFromAFixedPool(t *testing.T) {
	w, err := findWorkload("clustered-q14")
	if err != nil {
		t.Fatal(err)
	}
	hyps := map[string]bool{}
	for _, it := range newGenerator(w, 3).take(2000) {
		hyps[string(mustJSON(t, it.faults))] = true
	}
	if len(hyps) != w.clusterPool {
		t.Errorf("%d distinct hypotheses, want the pool of %d", len(hyps), w.clusterPool)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64
		wantP float64
	}{
		{1000, 99, 99}, // exactly 10 beyond p99
		{5000, 99, 99}, // 50 beyond: p99 stands
		{500, 99, 98},  // p99 would leave 5: fall back to p98
		{50, 99, 80},   // p80 is the highest with 10 beyond
		{1000, 50, 50}, // the median is never capped here
		{5, 99, 0},     // fewer than 10 samples: nothing qualifies
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1) // value = rank
		}
		p := tail(xs, tc.want)
		if p.N != tc.n || math.Abs(p.P-tc.wantP) > 1e-9 {
			t.Errorf("n=%d want p%.0f: reported p%.4f over n=%d, want p%.0f over n=%d", tc.n, tc.want, p.P, p.N, tc.wantP, tc.n)
			continue
		}
		if tc.wantP == 0 {
			continue
		}
		if beyond := tc.n - int(p.Value); beyond < minBeyond && tc.want > 50 {
			t.Errorf("n=%d: %d samples beyond the reported value, want ≥ %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestTailNeverLeavesFewerThanTenBeyond(t *testing.T) {
	for n := minBeyond + 1; n <= 5000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		for _, want := range []float64{50, 99} {
			p := tail(xs, want)
			if beyond := n - int(p.Value); beyond < minBeyond && want > 50 {
				t.Fatalf("n=%d p%.0f: reported p%v leaves %d beyond", n, want, p.P, beyond)
			}
			if want == 99 && n >= 1000 && p.P != 99 {
				t.Fatalf("n=%d: p99 capped to p%v with %d samples", n, p.P, n)
			}
		}
	}
}

func TestFailuresAndWrongAnswersCountAgainstAttempts(t *testing.T) {
	good := item{faults: []int{1, 2, 3}}
	p := &phase{
		items: []item{good, good, good, good},
		results: []result{
			{status: 200, body: mustJSON(t, map[string]any{"faults": []int{1, 2, 3}}), lat: time.Millisecond},
			{err: errors.New("connection reset"), lat: time.Millisecond},
			{status: 503, body: []byte(`{"error":"shutting down"}`), lat: time.Millisecond},
			{status: 200, body: mustJSON(t, map[string]any{"faults": []int{1, 2, 4}}), lat: time.Millisecond},
		},
	}
	var tl tally
	tl.check(p)
	if tl.attempted != 4 || tl.transport != 1 || tl.non200 != 1 || tl.wrong != 1 || tl.failed() != 3 {
		t.Fatalf("tally %+v, want 4 attempted: 1 transport, 1 non-200, 1 wrong", tl)
	}
	if got := tl.errorRate(); got != 0.75 {
		t.Errorf("error rate %v, want 0.75", got)
	}
	// A failed request misses any latency limit.
	lat := p.latencies()
	if inf := math.Inf(1); lat[2] != inf || lat[3] != inf || lat[0] != 1 {
		t.Errorf("latencies %v: want the two failures at +Inf", lat)
	}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		w.Write([]byte(`{"faults":[]}`))
	}))
	defer srv.Close()
	h := &harness{client: srv.Client(), base: srv.URL}

	// A request sent 100ms after it was due is charged those 100ms.
	var r result
	h.send(&r, []byte(`{}`), -1, time.Now().Add(-100*time.Millisecond))
	if r.err != nil || r.status != 200 {
		t.Fatalf("send: %v, status %d", r.err, r.status)
	}
	if r.lat < 100*time.Millisecond+stall || r.late < 100*time.Millisecond {
		t.Errorf("latency %v, lateness %v: want both to include the 100ms the send was late", r.lat, r.late)
	}
	if r.client >= r.lat-90*time.Millisecond {
		t.Errorf("client span %v should exclude the lateness that latency %v includes", r.client, r.lat)
	}

	// The loop sends on schedule while earlier requests are still
	// outstanding: a closed loop would send the second only after the
	// first returned, stall later.
	items := []item{{body: []byte(`{}`)}, {body: []byte(`{}`)}}
	res := h.openLoop(items, []time.Duration{0, 10 * time.Millisecond}, nil)
	for i, r := range res {
		if r.err != nil || r.late > stall/2 {
			t.Errorf("request %d: err %v, sent %v late: the schedule waited for a response", i, r.err, r.late)
		}
		if r.lat < stall {
			t.Errorf("request %d: latency %v below the server's %v stall", i, r.lat, stall)
		}
	}
}

func TestArrivalsAreEvenAndFixed(t *testing.T) {
	due := arrivals(400, 2*time.Second)
	if len(due) != 800 {
		t.Fatalf("%d arrivals, want 800", len(due))
	}
	for i := 1; i < len(due); i++ {
		if gap := due[i] - due[i-1]; gap < 2499*time.Microsecond || gap > 2501*time.Microsecond {
			t.Fatalf("gap %d is %v, want 2.5ms", i, gap)
		}
	}
}

func TestLadderStartsNearTheConfiguredRung(t *testing.T) {
	for _, w := range workloads {
		i := startRung(w.ladder, w.ladderStart)
		if got := w.ladder[i]; math.Abs(got-w.ladderStart)/w.ladderStart > 0.06 {
			t.Errorf("%s: starts at %v, want near %v", w.name, got, w.ladderStart)
		}
		if w.lowRPS >= w.highRPS || w.highRPS >= w.ladderStart {
			t.Errorf("%s: want low < high < ladder start, got %v, %v, %v", w.name, w.lowRPS, w.highRPS, w.ladderStart)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The metric sets the runner checks its output against are the ones
// BENCHMARK.json at the repository root declares.
func TestDeclaredMetricSetsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		json, src []string
	}{
		{"end_to_end", names(b.EndToEnd), endToEndMetrics},
		{"per_layer", names(b.PerLayer), perLayerMetrics},
	} {
		if !slices.Equal(c.json, c.src) {
			t.Errorf("%s: BENCHMARK.json has %v, the runner checks %v", c.what, c.json, c.src)
		}
	}
	for _, w := range names(b.Workloads) {
		if _, err := findWorkload(w); err != nil {
			t.Error(err)
		}
	}
}

func TestBracketFindsTheHighestPassingRung(t *testing.T) {
	const n = 90
	for _, limit := range []int{-1, 0, 5, 37, 38, 60, n - 1} {
		for _, start := range []int{0, 20, 45, n - 1} {
			calls := 0
			pass := func(i int) bool { calls++; return i <= limit }
			if got := bracket(n, start, pass, func() bool { return true }); got != limit {
				t.Errorf("limit %d from %d: found %d", limit, start, got)
			}
			if calls > 20 {
				t.Errorf("limit %d from %d: %d probes, want a gallop and a bisection", limit, start, calls)
			}
		}
	}
	// Out of budget, it reports the highest rung it saw pass.
	budget := 2
	got := bracket(n, 10, func(i int) bool { budget--; return i <= 50 }, func() bool { return budget > 0 })
	if got != 18 {
		t.Errorf("with two probes from rung 10: found %d, want 18 (10, then 10+gallop)", got)
	}
}
