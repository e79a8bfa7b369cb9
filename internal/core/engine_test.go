package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/subspace"
)

// randomReactances draws a random full reactance vector with the D-FACTS
// branches uniform inside their device boxes.
func randomReactances(rng *rand.Rand, n *grid.Network) []float64 {
	x := n.Reactances()
	for _, i := range n.DFACTSIndices() {
		br := n.Branches[i]
		x[i] = br.XMin + rng.Float64()*(br.XMax-br.XMin)
	}
	return x
}

// TestGammaEvaluatorMatchesUncached is the cached-vs-uncached equivalence
// check: the engine must reproduce subspace.Gamma on random reactance
// pairs to 1e-12 (in practice the two paths perform identical
// floating-point operations and agree bitwise).
func TestGammaEvaluatorMatchesUncached(t *testing.T) {
	n := grid.CaseIEEE14()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		xOld := randomReactances(rng, n)
		ev := NewGammaEvaluator(n, xOld)
		for cand := 0; cand < 5; cand++ {
			xNew := randomReactances(rng, n)
			want := subspace.Gamma(n.MeasurementMatrix(xOld), n.MeasurementMatrix(xNew))
			got := ev.Gamma(xNew)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d cand %d: engine γ = %v, uncached γ = %v (diff %g)",
					trial, cand, got, want, got-want)
			}
			gotD := ev.GammaDFACTS(n.DFACTSSetting(xNew))
			if gotD != got {
				t.Fatalf("GammaDFACTS = %v differs from Gamma = %v", gotD, got)
			}
		}
	}
}

// TestGammaEvaluatorConcurrent hammers one evaluator from many goroutines
// and checks every result against the serial value: the pooled workspaces
// must not bleed state across concurrent evaluations.
func TestGammaEvaluatorConcurrent(t *testing.T) {
	n := grid.CaseIEEE14()
	rng := rand.New(rand.NewSource(12))
	xOld := randomReactances(rng, n)
	ev := NewGammaEvaluator(n, xOld)

	const numCands = 24
	cands := make([][]float64, numCands)
	want := make([]float64, numCands)
	for i := range cands {
		cands[i] = randomReactances(rng, n)
		want[i] = ev.Gamma(cands[i])
	}

	var wg sync.WaitGroup
	errs := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i := range cands {
					if ev.Gamma(cands[i]) != want[i] {
						errs[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, cnt := range errs {
		if cnt > 0 {
			t.Fatalf("worker %d saw %d mismatching concurrent γ values", w, cnt)
		}
	}
}

// TestSelectMTDParallelismInvariant verifies the headline determinism
// contract: the identical Selection comes back for any Parallelism.
func TestSelectMTDParallelismInvariant(t *testing.T) {
	n, xt, _, cost := setup14(t)
	var results []*Selection
	for _, par := range []int{1, 4} {
		sel, err := SelectMTD(n, xt, SelectConfig{
			GammaThreshold: 0.2,
			Starts:         3,
			Seed:           21,
			BaselineCost:   cost,
			Parallelism:    par,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		results = append(results, sel)
	}
	a, b := results[0], results[1]
	for i := range a.Reactances {
		if a.Reactances[i] != b.Reactances[i] {
			t.Fatalf("reactance %d differs across parallelism: %v vs %v", i, a.Reactances[i], b.Reactances[i])
		}
	}
	if a.Gamma != b.Gamma || a.OPF.CostPerHour != b.OPF.CostPerHour || a.CostIncrease != b.CostIncrease {
		t.Fatalf("selection metrics differ across parallelism: %+v vs %+v", a, b)
	}
}

// TestMaxGammaParallelismInvariant checks the corner enumeration and the
// multi-start reduction stay deterministic under parallel fan-out.
func TestMaxGammaParallelismInvariant(t *testing.T) {
	n, xt, _, cost := setup14(t)
	var sels []*Selection
	for _, par := range []int{1, 3} {
		sel, err := MaxGamma(n, xt, MaxGammaConfig{Starts: 2, Seed: 5, BaselineCost: cost, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sels = append(sels, sel)
	}
	if sels[0].Gamma != sels[1].Gamma {
		t.Fatalf("max γ differs across parallelism: %v vs %v", sels[0].Gamma, sels[1].Gamma)
	}
	for i := range sels[0].Reactances {
		if sels[0].Reactances[i] != sels[1].Reactances[i] {
			t.Fatalf("reactance %d differs across parallelism", i)
		}
	}
}

// TestEvaluateAttacksParallelismInvariant checks the chunked η′ loop:
// every reported number must be identical for any worker count.
func TestEvaluateAttacksParallelismInvariant(t *testing.T) {
	n, xt, zt, _ := setup14(t)
	cfg := EffectivenessConfig{NumAttacks: 200, Seed: 9, ReportProbs: true}
	set, err := SampleAttacks(n, xt, zt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xNew := n.ExpandDFACTS(mustMaxCorner(t, n))
	var results []*EffectivenessResult
	for _, par := range []int{1, 4, 7} {
		c := cfg
		c.Parallelism = par
		eff, err := EvaluateAttacks(n, set, xNew, c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		results = append(results, eff)
	}
	base := results[0]
	for ri, r := range results[1:] {
		if r.Gamma != base.Gamma || r.UndetectableFraction != base.UndetectableFraction {
			t.Fatalf("result %d: γ/undetectable differ across parallelism", ri+1)
		}
		for i := range base.Eta {
			if r.Eta[i] != base.Eta[i] {
				t.Fatalf("result %d: η'[%d] differs: %v vs %v", ri+1, i, r.Eta[i], base.Eta[i])
			}
		}
		for i := range base.DetectionProbs {
			if r.DetectionProbs[i] != base.DetectionProbs[i] {
				t.Fatalf("result %d: prob[%d] differs", ri+1, i)
			}
		}
	}
}

// mustMaxCorner returns the all-XMax D-FACTS setting.
func mustMaxCorner(t *testing.T, n *grid.Network) []float64 {
	t.Helper()
	_, hi := n.DFACTSBounds()
	return hi
}

// TestRandomPerturbationDoesNotMutateNetwork is the regression test for
// the aliasing hazard: RandomPerturbation clips the returned vector in
// place, which must never touch the network's stored reactances (it
// operates on the copy Reactances() returns).
func TestRandomPerturbationDoesNotMutateNetwork(t *testing.T) {
	n := grid.CaseIEEE14()
	before := n.Reactances()
	rng := rand.New(rand.NewSource(3))
	x, err := RandomPerturbation(rng, n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	after := n.Reactances()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("branch %d reactance mutated by RandomPerturbation: %v -> %v", i, before[i], after[i])
		}
		if before[i] != n.Branches[i].X {
			t.Fatalf("branch %d stored X inconsistent", i)
		}
	}
	// The returned vector must be a distinct allocation: writing through it
	// must not reach the network either.
	for i := range x {
		x[i] = -1
	}
	for i := range before {
		if n.Branches[i].X != before[i] {
			t.Fatalf("branch %d mutated through returned slice", i)
		}
	}
}

// TestAttackSetAccessors covers the packed batch surface.
func TestAttackSetAccessors(t *testing.T) {
	n, xt, zt, _ := setup14(t)
	set, err := SampleAttacks(n, xt, zt, EffectivenessConfig{NumAttacks: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 10 {
		t.Fatalf("Len = %d, want 10", set.Len())
	}
	v := set.At(3)
	if len(v.A) != n.M() || len(v.C) != n.N()-1 {
		t.Fatalf("attack dims %d/%d, want %d/%d", len(v.A), len(v.C), n.M(), n.N()-1)
	}
	// At must copy: mutating the vector cannot corrupt the batch.
	orig := set.Batch.A(3)[0]
	v.A[0] = math.Inf(1)
	if set.Batch.A(3)[0] != orig {
		t.Fatal("At returned a view into the batch")
	}
	// A set assembled by hand has no x_old side to evaluate against.
	bare := &AttackSet{Batch: set.Batch, HOld: set.HOld}
	if _, err := EvaluateAttacks(n, bare, xt, EffectivenessConfig{}); err == nil {
		t.Fatal("EvaluateAttacks accepted a set without an x_old side")
	}
}
