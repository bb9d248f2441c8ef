package main

import (
	"fmt"
	"slices"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
)

// soloEvery picks the deterministic sample of requests whose responses
// are also checked against a solo Engine.Diagnose: every soloEvery-th
// request of the run, counted across phases.
const soloEvery = 50

// tally counts outcomes against attempts. Every request is checked:
// its fault set must equal the generated hypothesis, which Theorem 1
// promises for |F| ≤ δ whatever the faulty testers answer.
type tally struct {
	attempted int
	transport int // client errors: no response
	non200    int
	wrong     int // 200 with a fault set other than the hypothesis, or a failed solo check
	firstErr  string

	seen int        // requests checked so far, for the solo sample
	solo []soloCase // sampled for the solo check
}

type soloCase struct {
	it   item
	resp serve.DiagnoseResponse
}

func (t *tally) failed() int { return t.transport + t.non200 + t.wrong }

// errorRate is failures over attempts.
func (t *tally) errorRate() float64 { return ratio(float64(t.failed()), float64(t.attempted)) }

func (t *tally) note(format string, args ...any) {
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// check counts one phase's results and collects its solo sample.
func (t *tally) check(p *phase) {
	for i := range p.results {
		r, it := &p.results[i], p.items[i]
		t.attempted++
		t.seen++
		switch {
		case r.err != nil:
			t.transport++
			t.note("transport: %v", r.err)
			continue
		case r.status != 200:
			t.non200++
			t.note("status %d: %.200s", r.status, r.body)
			continue
		}
		dr, err := decodeResponse(r.body)
		if err != nil {
			t.wrong++
			t.note("undecodable response: %v", err)
			continue
		}
		if !slices.Equal(dr.Faults, it.faults) {
			t.wrong++
			t.note("wrong fault set for %s: got %v, want %v", it.body, dr.Faults, it.faults)
			continue
		}
		if t.seen%soloEvery == 0 {
			t.solo = append(t.solo, soloCase{it: it, resp: dr})
		}
	}
}

// checkSolo re-diagnoses the sampled requests with a solo
// Engine.Diagnose and compares: the fault set and shape stats must be
// identical, the response's final + shared_final look-ups must equal
// the solo FinalLookups, and its cert look-ups must be 0 (carried by a
// group representative) or the solo CertLookups — the accounting
// contract of docs/service.md. A mismatch counts as a wrong answer.
func (t *tally) checkSolo(eng *core.Engine) {
	n := eng.Adjacency().N()
	for _, c := range t.solo {
		beh, err := syndrome.ParseBehavior(c.it.behavior, c.it.seed)
		if err != nil {
			t.wrong++
			t.note("solo check: %v", err)
			continue
		}
		F := bitset.New(n)
		for _, id := range c.it.faults {
			F.Add(id)
		}
		faults, st, err := eng.Diagnose(syndrome.NewLazy(F, beh))
		if err != nil {
			t.wrong++
			t.note("solo diagnose refused %s: %v", c.it.body, err)
			continue
		}
		r := c.resp
		switch {
		case !slices.Equal(r.Faults, faults.Members()):
			t.note("solo check %s: fault set %v, solo %v", c.it.body, r.Faults, faults.Members())
		case r.Seed != st.Seed || r.Rounds != st.Rounds || r.Healthy != st.HealthyCount || r.FaultCount != st.FaultCount ||
			r.PartsScanned != st.PartsScanned || r.CertifiedPart != st.CertifiedPart:
			t.note("solo check %s: shape %+v, solo %+v", c.it.body, r, *st)
		case r.Lookups.Final+r.Lookups.SharedFinal != st.FinalLookups:
			t.note("solo check %s: final %d + shared_final %d != solo final %d",
				c.it.body, r.Lookups.Final, r.Lookups.SharedFinal, st.FinalLookups)
		case r.Lookups.Cert != 0 && r.Lookups.Cert != st.CertLookups:
			t.note("solo check %s: cert %d, want 0 (shared) or solo %d", c.it.body, r.Lookups.Cert, st.CertLookups)
		default:
			continue
		}
		t.wrong++
	}
}
