package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// postDiagnose fires one /v1/diagnose request and decodes the reply.
func postDiagnose(t *testing.T, url string, req DiagnoseRequest) (int, DiagnoseResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var dr DiagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decode (%d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, dr
}

// soloDiagnose runs the reference path: a fresh engine, one Diagnose.
func soloDiagnose(t *testing.T, spec string, faults *bitset.Set, b syndrome.Behavior) (*bitset.Set, *core.Stats) {
	t.Helper()
	nw, err := topology.Parse(spec)
	if err != nil {
		t.Fatalf("parse %s: %v", spec, err)
	}
	eng := core.NewEngine(nw)
	got, stats, err := eng.Diagnose(syndrome.NewLazy(faults, b))
	if err != nil {
		t.Fatalf("solo diagnose: %v", err)
	}
	return got, stats
}

func equalInts(a []int, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkBitIdentical pins the served response against the solo
// reference: the fault set and every Stats field solo Diagnose
// defines, with the shared-accounting contracts (PR 4/5) for the
// fields batching redistributes — members of a certification group
// report Cert 0 with the group scan copied, and shared-prefix members
// split solo's FinalLookups into Final + SharedFinal exactly.
func checkBitIdentical(t *testing.T, label string, dr DiagnoseResponse, soloF *bitset.Set, solo *core.Stats) {
	t.Helper()
	if !equalInts(dr.Faults, soloF.Members()) {
		t.Errorf("%s: faults = %v, solo = %v", label, dr.Faults, soloF.Members())
	}
	if dr.Delta != solo.Delta || dr.Seed != solo.Seed || dr.Rounds != solo.Rounds ||
		dr.Healthy != solo.HealthyCount || dr.FaultCount != solo.FaultCount ||
		dr.PartsScanned != solo.PartsScanned || dr.CertifiedPart != solo.CertifiedPart {
		t.Errorf("%s: cost fields diverge from solo: got Δ=%d seed=%d rounds=%d healthy=%d faults=%d parts=%d cert=%d, solo Δ=%d seed=%d rounds=%d healthy=%d faults=%d parts=%d cert=%d",
			label, dr.Delta, dr.Seed, dr.Rounds, dr.Healthy, dr.FaultCount, dr.PartsScanned, dr.CertifiedPart,
			solo.Delta, solo.Seed, solo.Rounds, solo.HealthyCount, solo.FaultCount, solo.PartsScanned, solo.CertifiedPart)
	}
	if got := dr.Lookups.Final + dr.Lookups.SharedFinal; got != solo.FinalLookups {
		t.Errorf("%s: final %d + shared %d = %d, solo final = %d",
			label, dr.Lookups.Final, dr.Lookups.SharedFinal, got, solo.FinalLookups)
	}
	if dr.Lookups.Cert > 0 && dr.Lookups.Cert != solo.CertLookups {
		t.Errorf("%s: cert = %d, solo cert = %d", label, dr.Lookups.Cert, solo.CertLookups)
	}
	if dr.Lookups.Cert == solo.CertLookups && dr.Lookups.SharedFinal == 0 &&
		dr.Lookups.Total != solo.TotalLookups {
		t.Errorf("%s: canonical response but total = %d, solo = %d",
			label, dr.Lookups.Total, solo.TotalLookups)
	}
}

// TestServedCoalescedBitIdentical is the tentpole pin: N concurrent
// clients with overlapping hypotheses are served in grouped batches
// and every response is bit-identical to a solo Engine.Diagnose of the
// same request; identical concurrent requests share one diagnosis. A
// second identical round exercises the warm result cache and must keep
// the same answers. It runs twice: with a long linger and MaxBatch set
// to the request count, so all of them form one batch whose width,
// dedup folds and savings are asserted, and with the zero Config,
// whose group-commit batches depend on timing, so only the answers
// and their look-up bills are.
func TestServedCoalescedBitIdentical(t *testing.T) {
	const spec = "q:8"
	behaviors := []syndrome.Behavior{syndrome.Mimic{}, syndrome.AllZero{}, syndrome.AllOne{}, syndrome.Inverted{}}
	rng := rand.New(rand.NewSource(41))
	var hyps []*bitset.Set
	for h := 0; h < 3; h++ {
		hyps = append(hyps, syndrome.RandomFaults(256, 4+2*h, rng))
	}
	unique := len(hyps) * len(behaviors) // 12

	// Solo references, computed once up front.
	type ref struct {
		faults *bitset.Set
		stats  *core.Stats
	}
	refs := make(map[string]ref)
	for hi, F := range hyps {
		for _, b := range behaviors {
			got, stats := soloDiagnose(t, spec, F, b)
			refs[fmt.Sprintf("%d/%s", hi, b.Name())] = ref{faults: got.Clone(), stats: stats}
		}
	}

	reqFor := func(hi int, b syndrome.Behavior) DiagnoseRequest {
		return DiagnoseRequest{Topology: spec, Faults: hyps[hi].Members(), Behavior: b.Name()}
	}

	for _, tc := range []struct {
		name   string
		cfg    Config
		strict bool // one batch of every request: assert its shape
	}{
		{"linger", Config{
			Window:   5 * time.Second, // fallback only; MaxBatch triggers the flush
			MaxBatch: unique,
			Workers:  2,
		}, true},
		{"default", Config{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(tc.cfg)
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			round := func(roundName string, dups int) {
				var wg sync.WaitGroup
				type result struct {
					label  string
					status int
					dr     DiagnoseResponse
				}
				results := make(chan result, unique+dups)
				fire := func(label string, req DiagnoseRequest) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						status, dr := postDiagnose(t, ts.URL, req)
						results <- result{label, status, dr}
					}()
				}
				// The mimic request of every hypothesis fires first —
				// hyp 0's as the duplicates — and in the strict case is
				// pending before the rest fire. That assembles the
				// dedup group before the batch can flush, and makes
				// each mimic request its hypothesis's group
				// representative, the only member that consults the
				// result cache, in both rounds, so round 2's
				// representatives are cache hits.
				mimic := behaviors[0]
				leaders := 0
				for hi := range hyps {
					n, label := 1, fmt.Sprintf("%d/%s", hi, mimic.Name())
					if hi == 0 && dups > 0 {
						n, label = dups, label+"(dup)"
					}
					for d := 0; d < n; d++ {
						fire(label, reqFor(hi, mimic))
					}
					leaders += n
				}
				if tc.strict {
					deadline := time.Now().Add(5 * time.Second)
					for srv.Snapshot().PendingRequests < int64(leaders) {
						if time.Now().After(deadline) {
							t.Fatalf("%s: leading requests never became pending", roundName)
						}
						time.Sleep(time.Millisecond)
					}
				}
				for hi := range hyps {
					for _, b := range behaviors[1:] {
						fire(fmt.Sprintf("%d/%s", hi, b.Name()), reqFor(hi, b))
					}
				}
				wg.Wait()
				close(results)
				for r := range results {
					if r.status != http.StatusOK {
						t.Fatalf("%s %s: status %d (%s)", roundName, r.label, r.status, r.dr.Error)
					}
					key := strings.TrimSuffix(r.label, "(dup)")
					ref := refs[key]
					checkBitIdentical(t, roundName+" "+r.label, r.dr, ref.faults, ref.stats)
					if !tc.strict {
						continue
					}
					if r.dr.BatchWidth != unique {
						t.Errorf("%s %s: batch width = %d, want %d", roundName, r.label, r.dr.BatchWidth, unique)
					}
					// The first duplicate to arrive is the group's
					// original, so dups submissions make a group of dups
					// waiters.
					wantWaiters := 1
					if strings.HasSuffix(r.label, "(dup)") || (key == "0/mimic" && dups > 0) {
						wantWaiters = dups
					}
					if r.dr.Waiters != wantWaiters {
						t.Errorf("%s %s: waiters = %d, want %d", roundName, r.label, r.dr.Waiters, wantWaiters)
					}
				}
			}

			round("round1", 4)
			if tc.strict {
				snap := srv.Snapshot()
				if snap.MaxBatchWidth != int64(unique) {
					t.Errorf("max batch width = %d, want %d", snap.MaxBatchWidth, unique)
				}
				if snap.CoalescedRequests == 0 {
					t.Error("no coalesced requests counted")
				}
				if snap.DedupHits != 3 {
					t.Errorf("dedup hits = %d, want 3", snap.DedupHits)
				}
			}

			// Round 2: same traffic against the warm cache.
			// Representatives now replay canonical outcomes from the
			// cache; the answers must not move.
			round("round2", 0)
			if !tc.strict {
				return
			}
			snap := srv.Snapshot()
			if len(snap.Engines) != 1 || !snap.Engines[0].HasCache {
				t.Fatalf("expected one cached engine in the registry, got %+v", snap.Engines)
			}
			if snap.Engines[0].Cache.Hits == 0 {
				t.Error("round 2 produced no cache hits")
			}
			if snap.Engines[0].Cache.HitRate() <= 0 {
				t.Error("cache hit rate not positive after a warm round")
			}
			if snap.SharedFinalLookups == 0 {
				t.Error("no shared-final savings counted across grouped batches")
			}
		})
	}
}

// TestGracefulShutdownDrains pins the drain contract: requests sitting
// in an unexpired coalescing window when Close is called are flushed
// and answered — nothing is dropped — and the flush serves them as one
// coalesced batch.
func TestGracefulShutdownDrains(t *testing.T) {
	const spec = "q:6"
	srv := New(Config{
		Window:   10 * time.Minute, // never expires during the test
		MaxBatch: 100,              // never size-triggers
		Workers:  2,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(7))
	const n = 6
	type result struct {
		i      int
		status int
		dr     DiagnoseResponse
	}
	hyps := make([]*bitset.Set, n)
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		hyps[i] = syndrome.RandomFaults(64, 3, rng)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{
				Topology: spec, Faults: hyps[i].Members(), Behavior: "mimic",
			})
			results <- result{i, status, dr}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().PendingRequests < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests became pending", srv.Snapshot().PendingRequests, n)
		}
		time.Sleep(time.Millisecond)
	}

	srv.Close() // must flush the window and answer everything
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d after drain (%s)", r.i, r.status, r.dr.Error)
		}
		soloF, solo := soloDiagnose(t, spec, hyps[r.i], syndrome.Mimic{})
		checkBitIdentical(t, fmt.Sprintf("drained %d", r.i), r.dr, soloF, solo)
		if r.dr.BatchWidth != n {
			t.Errorf("request %d: drained batch width = %d, want %d", r.i, r.dr.BatchWidth, n)
		}
	}

	// After Close the server refuses new work.
	status, _ := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: spec, Faults: []int{1}})
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-close request: status %d, want 503", status)
	}
}

// TestRegistryEviction pins the LRU: binding past the cap evicts the
// least recently used engine, and an evicted spec rebinds cleanly on
// its next request.
func TestRegistryEviction(t *testing.T) {
	srv := New(Config{RegistryCap: 2, MaxBatch: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(spec string) {
		t.Helper()
		status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: spec, Faults: []int{0, 3}})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", spec, status, dr.Error)
		}
	}
	post("q:6")
	post("q:7")
	post("q:6") // bump q:6 to MRU
	post("q:8") // evicts q:7
	keys := srv.residentKeys()
	if len(keys) != 2 || keys[0] != "q:8" || keys[1] != "q:6" {
		t.Fatalf("resident keys = %v, want [q:8 q:6]", keys)
	}
	post("q:7") // rebinds, evicting q:6
	keys = srv.residentKeys()
	if len(keys) != 2 || keys[0] != "q:7" || keys[1] != "q:8" {
		t.Fatalf("resident keys after rebind = %v, want [q:7 q:8]", keys)
	}
}

// TestCampaignStream pins the campaign endpoint against the in-process
// reference: the streamed NDJSON points must be bit-identical to a
// direct campaign.Sweep with the same config (the per-trial seed
// formula is position-independent, so per-point serving can't move
// outcomes).
func TestCampaignStream(t *testing.T) {
	const spec = "q:8"
	srv := New(Config{MaxBatch: 1, CacheCap: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := CampaignRequest{Topology: spec, MinFaults: 0, MaxFaults: 10, Trials: 16, Behavior: "mimic", Seed: 7}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got []CampaignPoint
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p CampaignPoint
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		got = append(got, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}

	nw, _ := topology.Parse(spec)
	want := campaign.Sweep(nw, campaign.Config{
		MinFaults: 0, MaxFaults: 10, Trials: 16, Behavior: syndrome.Mimic{}, Seed: 7,
	})
	if len(got) != len(want) {
		t.Fatalf("streamed %d points, want %d", len(got), len(want))
	}
	for i, p := range want {
		g := got[i]
		if g.Faults != p.Faults || g.Trials != p.Trials || g.Exact != p.Exact ||
			g.Refused != p.Refused || g.Silent != p.Silent {
			t.Errorf("point %d: got %+v, want %+v", i, g, p)
		}
	}
	if snap := srv.Snapshot(); snap.Campaigns != 1 || snap.CampaignPoints != int64(len(want)) {
		t.Errorf("campaign counters = %d jobs / %d points, want 1 / %d",
			snap.Campaigns, snap.CampaignPoints, len(want))
	}
}

// TestImplicitServing pins descriptor-backed binding: an "implicit"
// request binds a Cayley engine (no CSR) and its response matches the
// solo implicit reference bit for bit.
func TestImplicitServing(t *testing.T) {
	srv := New(Config{MaxBatch: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	F := bitset.New(1 << 10)
	for _, id := range []int{5, 99, 500, 1000} {
		F.Add(id)
	}
	status, dr := postDiagnose(t, ts.URL, DiagnoseRequest{
		Topology: "q:10", Implicit: true, Faults: F.Members(), Behavior: "inverted",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, dr.Error)
	}

	eng, err := implicitEngine("q:10")
	if err != nil {
		t.Fatalf("implicit reference: %v", err)
	}
	got, stats, err := eng.Diagnose(syndrome.NewLazy(F, syndrome.Inverted{}))
	if err != nil {
		t.Fatalf("solo implicit diagnose: %v", err)
	}
	checkBitIdentical(t, "implicit", dr, got, stats)
	keys := srv.residentKeys()
	if len(keys) != 1 || keys[0] != "implicit:q:10" {
		t.Fatalf("resident keys = %v, want [implicit:q:10]", keys)
	}
	// CSR and implicit bindings of one spec are distinct entries.
	if status, _ := postDiagnose(t, ts.URL, DiagnoseRequest{Topology: "q:10", Faults: []int{1}}); status != http.StatusOK {
		t.Fatalf("CSR sibling bind failed: %d", status)
	}
	if keys = srv.residentKeys(); len(keys) != 2 {
		t.Fatalf("resident keys = %v, want two entries", keys)
	}
}

// TestDiagnoseValidation sweeps the request-rejection matrix.
func TestDiagnoseValidation(t *testing.T) {
	srv := New(Config{MaxBatch: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"topology":`, http.StatusBadRequest},
		{"unknown field", `{"topology":"q:6","bogus":1}`, http.StatusBadRequest},
		{"missing topology", `{"faults":[1]}`, http.StatusBadRequest},
		{"bad topology", `{"topology":"nonsense:9"}`, http.StatusBadRequest},
		{"bad behavior", `{"topology":"q:6","behavior":"liar"}`, http.StatusBadRequest},
		{"fault out of range", `{"topology":"q:6","faults":[64]}`, http.StatusBadRequest},
		{"negative fault", `{"topology":"q:6","faults":[-1]}`, http.StatusBadRequest},
		{"negative bound", `{"topology":"q:6","faults":[1],"bound":-2}`, http.StatusBadRequest},
		{"implicit non-hypercube", `{"topology":"star:5","implicit":true,"faults":[1]}`, http.StatusBadRequest},
		{"beyond bound", `{"topology":"q:6","faults":[0,1,2,3,4,5,6,7,8,9,10,11]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	// Method checks.
	if resp, err := http.Get(ts.URL + "/v1/diagnose"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/diagnose: status %d, want 405", resp.StatusCode)
		}
	}
	// Campaign validation.
	postC := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	campaignCases := []struct {
		name string
		body string
		want int
	}{
		{"zero trials", `{"topology":"q:6","min_faults":0,"max_faults":2}`, http.StatusBadRequest},
		{"inverted range", `{"topology":"q:6","min_faults":3,"max_faults":1,"trials":4}`, http.StatusBadRequest},
		{"too many points", `{"topology":"q:6","min_faults":0,"max_faults":9999,"trials":1}`, http.StatusBadRequest},
		{"max beyond nodes", `{"topology":"q:6","min_faults":0,"max_faults":65,"trials":1}`, http.StatusBadRequest},
	}
	for _, tc := range campaignCases {
		if got := postC(tc.body); got != tc.want {
			t.Errorf("campaign %s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMetricsEndpoint checks the exporter surface: /healthz, and the
// metric families the acceptance criteria name (cache hit rate,
// shared-prefix savings, worker occupancy) present in /metrics.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{Window: time.Millisecond, MaxBatch: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two concurrent same-hypothesis requests so sharing engages.
	var wg sync.WaitGroup
	for _, b := range []string{"mimic", "allzero"} {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			postDiagnose(t, ts.URL, DiagnoseRequest{Topology: "q:6", Faults: []int{3, 9}, Behavior: b})
		}(b)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, family := range []string{
		"diagnosed_requests_total",
		"diagnosed_responses_total",
		"diagnosed_diagnoses_total",
		"diagnosed_batch_width_max",
		"diagnosed_syndrome_lookups_total",
		"diagnosed_syndrome_lookups_per_second",
		"diagnosed_shared_final_lookups_total",
		"diagnosed_cache_hit_rate{engine=\"q:6\"}",
		"diagnosed_runtime_worker_occupancy{engine=\"q:6\"}",
		"diagnosed_engine_delta{engine=\"q:6\"",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	// Flush triggers carry values, not just names. With a window set no
	// request dispatches on arrival: each pair member either lingers
	// until the window expires or fills the max-batch-2 set.
	fl := srv.Snapshot().Flushes
	if fl.Idle != 0 || fl.Linger+fl.Full < 1 {
		t.Errorf("flushes %+v: want idle 0 and at least one linger or full flush under a 1ms window", fl)
	}
	for trig, v := range map[string]int64{"idle": fl.Idle, "drain": fl.Drain, "linger": fl.Linger, "full": fl.Full} {
		line := fmt.Sprintf("diagnosed_flushes_total{trigger=%q} %d\n", trig, v)
		if !strings.Contains(text, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestSnapshotZeroSafe pins the division-by-zero audit at the service
// level: a fresh server's derived rates are zeros, not NaN.
func TestSnapshotZeroSafe(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	snap := srv.Snapshot()
	if snap.MeanBatchWidth != 0 {
		t.Errorf("MeanBatchWidth = %v on a fresh server", snap.MeanBatchWidth)
	}
	if snap.LookupsPerSecond != 0 {
		t.Errorf("LookupsPerSecond = %v on a fresh server", snap.LookupsPerSecond)
	}
	var buf bytes.Buffer
	writePrometheus(&buf, snap)
	if strings.Contains(buf.String(), "NaN") {
		t.Error("fresh /metrics contains NaN")
	}
}
