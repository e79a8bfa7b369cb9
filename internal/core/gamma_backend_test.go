package core

import (
	"math"
	"strings"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
	"gridmtd/internal/subspace"
)

// backendTestCases returns the registered cases the γ-backend agreement
// suite runs on: the paper's 14-bus system plus every large case in -short
// budget order.
func backendTestCases(t *testing.T) []string {
	t.Helper()
	cases := []string{"ieee14", "ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118", "ieee300")
	}
	return cases
}

// backendTestPoints returns deterministic candidate D-FACTS settings
// spanning the device box.
func backendTestPoints(n *grid.Network) [][]float64 {
	lo, hi := n.DFACTSBounds()
	var pts [][]float64
	for _, frac := range []float64{0.0, 0.25, 0.6, 1.0} {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + frac*(hi[i]-lo[i])
		}
		pts = append(pts, xd)
	}
	// An asymmetric point: alternating corners exercises sign structure the
	// uniform fractions miss.
	xd := make([]float64, len(lo))
	for i := range xd {
		if i%2 == 0 {
			xd[i] = lo[i]
		} else {
			xd[i] = hi[i]
		}
	}
	return append(pts, xd)
}

// sketchGammaBound is the documented sketch error contract:
// |γ_sketch − γ_exact| ≤ sketchGammaBound · max(1, γ_exact) whenever the
// sketch serves the evaluation (evaluations it refuses fall back to the
// exact path and are exact by construction). PERF.md records the measured
// margins behind the bound.
const sketchGammaBound = 1e-6

// TestGammaSketchBackendAgreement pins the sketch contract across the
// registered cases at fixed seeds: the documented relative-error bound,
// exact behavior of the automatic fallback, and the property that γ values
// are reproducible per seed.
func TestGammaSketchBackendAgreement(t *testing.T) {
	for _, name := range backendTestCases(t) {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		exact := NewGammaEvaluatorBackend(n, xOld, ExactGamma)
		sketch := NewGammaEvaluatorBackend(n, xOld, SketchGamma)
		if sketch.Backend() != SketchGamma {
			t.Fatalf("%s: sketch evaluator degraded to %v", name, sketch.Backend())
		}
		for pi, xd := range backendTestPoints(n) {
			x := n.ExpandDFACTS(xd)
			ge, gk := exact.Gamma(x), sketch.Gamma(x)
			if math.Abs(gk-ge) > sketchGammaBound*math.Max(1, ge) {
				t.Errorf("%s point %d: sketch γ %.15g vs exact %.15g (|Δ| = %.3g beyond the documented bound)",
					name, pi, gk, ge, math.Abs(gk-ge))
			}
			// Determinism per seed: the same evaluation twice, and through a
			// fresh session, must reproduce bit-for-bit.
			if again := sketch.Gamma(x); again != gk {
				t.Errorf("%s point %d: repeated sketch γ drifted: %v vs %v", name, pi, again, gk)
			}
			if sess := sketch.NewSession().Gamma(x); sess != gk {
				t.Errorf("%s point %d: session sketch γ %v != pooled %v", name, pi, sess, gk)
			}
		}
		// GammaExact must serve the exact value regardless of backend: the
		// winner re-check SelectMTD applies.
		x := n.ExpandDFACTS(backendTestPoints(n)[3])
		if ge, gx := exact.Gamma(x), sketch.GammaExact(x); gx != ge {
			t.Errorf("%s: GammaExact %.15g != exact evaluator %.15g", name, gx, ge)
		}
	}
}

// TestGammaSketchSeedDeterminism pins that two independently-built sketch
// evaluators produce identical values (the seed, not construction order or
// memory layout, is the only randomness source).
func TestGammaSketchSeedDeterminism(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	a := NewGammaEvaluatorBackend(n, xOld, SketchGamma)
	b := NewGammaEvaluatorBackend(n, xOld, SketchGamma)
	for pi, xd := range backendTestPoints(n) {
		ga, gb := a.GammaDFACTS(xd), b.GammaDFACTS(xd)
		if ga != gb {
			t.Fatalf("point %d: independently-built sketch evaluators disagree: %v vs %v", pi, ga, gb)
		}
	}
}

// TestSketchWorkerCountInvariant is the determinism-across-worker-counts
// test for the sketch backend: a full MaxGamma search (corner poll fanned
// across workers + parallel multi-start, all γ evaluations through the
// sketch) must return the identical Selection for any worker count.
func TestSketchWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus searches take a second")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	var sels []*Selection
	for _, par := range []int{1, 4} {
		eng := NewEnginesSharedBackend(n, xOld, de, SketchGamma)
		sel, err := MaxGammaWith(eng, n, xOld, MaxGammaConfig{
			Starts:       2,
			MaxEvals:     30,
			Seed:         5,
			BaselineCost: 1,
			Parallelism:  par,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sels = append(sels, sel)
	}
	a, b := sels[0], sels[1]
	if a.Gamma != b.Gamma {
		t.Fatalf("γ differs across worker counts: %v vs %v", a.Gamma, b.Gamma)
	}
	for i := range a.Reactances {
		if a.Reactances[i] != b.Reactances[i] {
			t.Fatalf("reactance %d differs across worker counts: %v vs %v", i, a.Reactances[i], b.Reactances[i])
		}
	}
}

// TestSelectMTDSketchReportsExactGamma pins the tolerance contract: a
// sketch-guided selection's reported γ must be the exact evaluator's value
// at the selected reactances, and must clear the threshold under the
// standard GammaTol.
func TestSelectMTDSketchReportsExactGamma(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus selection takes a second")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEnginesSharedBackend(n, xOld, de, SketchGamma)
	const gth = 0.05
	sel, err := SelectMTDWith(eng, n, xOld, SelectConfig{
		GammaThreshold: gth,
		Starts:         1,
		MaxEvals:       25,
		Seed:           3,
		BaselineCost:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewGammaEvaluatorBackend(n, xOld, ExactGamma)
	if want := exact.Gamma(sel.Reactances); sel.Gamma != want {
		t.Fatalf("reported γ %.15g is not the exact value %.15g", sel.Gamma, want)
	}
	if sel.Gamma < gth-2e-3 {
		t.Fatalf("γ %.4f below threshold %.2f", sel.Gamma, gth)
	}
}

// TestGammaBackendParseAndResolve covers the flag-facing surface: parse
// round-trips, the discoverability error listing every valid value, and
// the auto resolution rule (process default, exact when none).
func TestGammaBackendParseAndResolve(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want GammaBackend
	}{
		{"auto", AutoGamma}, {"", AutoGamma},
		{"exact", ExactGamma}, {"Exact", ExactGamma},
		{"sketch", SketchGamma},
	} {
		got, err := subspace.ParseGammaBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseGammaBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// "sparse" named a retired γ tier; it is rejected like any unknown
	// value (the grid's -backend sparse is a different switch).
	for _, bad := range []string{"bogus", "sparse"} {
		_, err := subspace.ParseGammaBackend(bad)
		if err == nil {
			t.Fatalf("ParseGammaBackend accepted %q", bad)
		}
		for _, name := range []string{"auto", "exact", "sketch"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("parse error %q does not list the valid value %q", err, name)
			}
		}
	}
	if got := subspace.EffectiveGammaBackend(AutoGamma); got != ExactGamma {
		t.Errorf("auto resolves to %v with no default set, want exact", got)
	}
	subspace.SetDefaultGammaBackend(SketchGamma)
	if got := subspace.EffectiveGammaBackend(AutoGamma); got != SketchGamma {
		t.Errorf("auto resolves to %v under a sketch default", got)
	}
	subspace.SetDefaultGammaBackend(AutoGamma)
	if got := subspace.EffectiveGammaBackend(AutoGamma); got != ExactGamma {
		t.Errorf("auto resolves to %v after restoring the default", got)
	}
}
