package gridmtd_test

import (
	"testing"

	"gridmtd/internal/lp"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner"
)

// coldSelect300SolveCeiling bounds the number of full dispatch LP solves
// one cold ieee300 planner selection may execute. PR 7 measured 179; the
// PR 8 memo + Farkas pre-screen + lazy-penalty skip land well below 90
// (see PERF.md's history), and a regression in any of the three —
// cache keys that stop matching, a pre-screen that stops certifying, a
// skip that stops firing — pushes the count back toward 179 and trips
// this ceiling long before the latency budget notices. The measured floor
// is 88 at GOMAXPROCS=1 (90 at ≥ 2, where the Farkas pre-screen answers fewer candidates):
// the number of distinct accepted-trajectory points.
const coldSelect300SolveCeiling = 90

// coldSelect118SolveCeiling bounds the cold ieee118 selection the same
// way. ieee118's calibrated branch ratings bind, so its landscape has real
// gradients and its search visits more distinct points: 67 solves on the
// benchmark request.
const coldSelect118SolveCeiling = 70

// TestColdSelect300SolveBudget runs one cold ieee300 selection and
// asserts the per-request delta of the process-global solve counters
// (lp.RevisedStats.Delta — root-package tests run sequentially, so no
// other selection contributes to the window).
func TestColdSelect300SolveBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping solve-budget assertion in -short mode")
	}
	req := planner.SelectRequest{
		Case: "ieee300", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	lpBefore := lp.GlobalRevisedStats()
	scBefore := opf.GlobalSolveCacheStats()
	p := planner.New(planner.Config{})
	if _, err := p.Select(req); err != nil {
		t.Fatal(err)
	}
	d := lp.GlobalRevisedStats().Delta(lpBefore)
	sc := opf.GlobalSolveCacheStats()
	t.Logf("cold ieee300 selection: %d solves (%d prescreen hits, cache %d hits / %d misses)",
		d.Solves, d.PrescreenHits, sc.Hits-scBefore.Hits, sc.Misses-scBefore.Misses)
	if d.Solves > coldSelect300SolveCeiling {
		t.Errorf("cold ieee300 selection ran %d full dispatch solves, ceiling %d — "+
			"the solve memo, Farkas pre-screen or lazy-penalty skip has regressed",
			d.Solves, coldSelect300SolveCeiling)
	}
}

// TestColdSelect118SolveBudget is the binding-limits counterpart: the
// benchmark ieee118 selection must stay under its solve ceiling.
func TestColdSelect118SolveBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping solve-budget assertion in -short mode")
	}
	req := planner.SelectRequest{
		Case: "ieee118", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	lpBefore := lp.GlobalRevisedStats()
	p := planner.New(planner.Config{})
	if _, err := p.Select(req); err != nil {
		t.Fatal(err)
	}
	d := lp.GlobalRevisedStats().Delta(lpBefore)
	t.Logf("cold ieee118 selection: %d solves (%d prescreen hits)", d.Solves, d.PrescreenHits)
	if d.Solves > coldSelect118SolveCeiling {
		t.Errorf("cold ieee118 selection ran %d full dispatch solves, ceiling %d",
			d.Solves, coldSelect118SolveCeiling)
	}
}
