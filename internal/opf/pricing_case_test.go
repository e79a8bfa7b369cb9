package opf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
)

// pricingAgreeCase drives a warm revised solver (Devex dual pricing)
// through a perturbed-reactance dispatch-LP walk of a registered case,
// cross-checking every answer against a fresh flat tableau solve — the
// reference implementation: 1e-9 objective agreement and identical
// feasibility verdicts regardless of the pivot order Devex picks.
func pricingAgreeCase(t *testing.T, caseName string, count int, step float64) {
	t.Helper()
	n, err := grid.CaseByName(caseName)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	dvW := eng.pool.New().(*dispatchWorkspace)
	refW := eng.pool.New().(*dispatchWorkspace)

	rng := rand.New(rand.NewSource(17))
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.5 * (lo[i] + hi[i])
	}
	checked := 0
	for trial := 0; trial < count; trial++ {
		for i := range xd {
			xd[i] += step * (hi[i] - lo[i]) * (2*rng.Float64() - 1)
			if xd[i] < lo[i] {
				xd[i] = lo[i]
			}
			if xd[i] > hi[i] {
				xd[i] = hi[i]
			}
		}
		x := n.ExpandDFACTS(xd)
		dvObj, refObj, dvErr, refErr := devexAndFlat(t, eng, dvW, refW, x)
		if (dvErr == nil) != (refErr == nil) {
			t.Fatalf("trial %d: verdicts disagree: devex=%v flat=%v", trial, dvErr, refErr)
		}
		if refErr != nil {
			if !errors.Is(dvErr, lp.ErrInfeasible) {
				t.Fatalf("trial %d: unexpected error devex=%v", trial, dvErr)
			}
			continue
		}
		checked++
		if d := math.Abs(dvObj - refObj); d > 1e-9*(1+math.Abs(refObj)) {
			t.Fatalf("trial %d: devex %.15g vs flat %.15g (diff %.3g)", trial, dvObj, refObj, d)
		}
	}
	st := dvW.rsolver.Stats()
	if st.SEPivots == 0 {
		t.Fatalf("%s: Devex pricing never engaged: %+v", caseName, st)
	}
	t.Logf("%s: %d/%d feasible; Devex %+v", caseName, checked, count, st)
}

// devexAndFlat solves the dispatch LP at x twice: on dvW's warm revised
// solver and on a fresh flat tableau solver over the same problem data.
func devexAndFlat(t *testing.T, eng *DispatchEngine, dvW, refW *dispatchWorkspace, x []float64) (dvObj, refObj float64, dvErr, refErr error) {
	t.Helper()
	prob, err := eng.buildProblem(dvW, x)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if sol, err := dvW.rsolver.Solve(prob); err != nil {
		dvErr = err
	} else {
		dvObj = sol.Objective
	}
	refProb, err := eng.buildProblem(refW, x)
	if err != nil {
		t.Fatalf("build (ref): %v", err)
	}
	if sol, err := lp.NewSolver().Solve(refProb); err != nil {
		refErr = err
	} else {
		refObj = sol.Objective
	}
	return dvObj, refObj, dvErr, refErr
}

// TestPricingAgreeIEEE57 cross-checks 100 perturbed-reactance dispatch LPs
// on the 57-bus case against the flat tableau.
func TestPricingAgreeIEEE57(t *testing.T) {
	pricingAgreeCase(t, "ieee57", 100, 0.05)
}

// TestPricingAgreeIEEE118 cross-checks 100 perturbed-reactance dispatch
// LPs on the 118-bus case against the flat tableau.
func TestPricingAgreeIEEE118(t *testing.T) {
	if testing.Short() {
		t.Skip("100 cold 118-bus tableau solves take seconds")
	}
	pricingAgreeCase(t, "ieee118", 100, 0.05)
}

// TestPricingInfeasibleCertificateIEEE300 pins the Farkas trust rule under
// Devex pricing on real ieee300 candidates: the calibrated ratings make
// the low-reactance corner of the D-FACTS box operationally infeasible,
// and the revised solver must return ErrInfeasible exactly where the flat
// tableau does — the certificate is only ever accepted on a fresh
// factorization, so a pivot order can delay the verdict but never change
// it — while agreeing to 1e-9 on the feasible probes. The probes are the
// two box corners and the midpoint: every flat ieee300 solve costs seconds
// (tens of seconds under -race).
func TestPricingInfeasibleCertificateIEEE300(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee300 dispatch probes take seconds")
	}
	n, err := grid.CaseByName("ieee300")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	dvW := eng.pool.New().(*dispatchWorkspace)
	refW := eng.pool.New().(*dispatchWorkspace)
	lo, hi := n.DFACTSBounds()
	feasibleSeen, infeasibleSeen := 0, 0
	for _, f := range []float64{0.0, 0.5, 1.0} {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + f*(hi[i]-lo[i])
		}
		dvObj, refObj, dvErr, refErr := devexAndFlat(t, eng, dvW, refW, n.ExpandDFACTS(xd))
		if (dvErr == nil) != (refErr == nil) {
			t.Fatalf("f=%g: verdicts disagree: devex=%v flat=%v", f, dvErr, refErr)
		}
		if dvErr != nil {
			if !errors.Is(dvErr, lp.ErrInfeasible) || !errors.Is(refErr, lp.ErrInfeasible) {
				t.Fatalf("f=%g: non-certificate errors: devex=%v flat=%v", f, dvErr, refErr)
			}
			infeasibleSeen++
			continue
		}
		feasibleSeen++
		if d := math.Abs(dvObj - refObj); d > 1e-9*(1+math.Abs(refObj)) {
			t.Fatalf("f=%g: devex %.15g vs flat %.15g", f, dvObj, refObj)
		}
	}
	if infeasibleSeen == 0 || feasibleSeen == 0 {
		t.Fatalf("probe spread covered only one verdict (feasible=%d infeasible=%d)", feasibleSeen, infeasibleSeen)
	}
}
