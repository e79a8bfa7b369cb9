package core

import (
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
)

// sketchedAttackCfg is the effectiveness config the agreement suite runs
// with: enough attacks to populate every η′ band, seeded, analytic.
func sketchedAttackCfg(backend GammaBackend) EffectivenessConfig {
	return EffectivenessConfig{
		NumAttacks:   200,
		Seed:         7,
		GammaBackend: backend,
	}
}

// TestSketchedAttackEvalAgreement is the screened-residual contract: the
// sketched analytic path (sparse-Gram screening with exact re-check near
// every decision threshold) must report η′(δ) rows, the undetectable
// fraction, and γ identical to the exact path, across the registered cases
// and a spread of candidate perturbations.
func TestSketchedAttackEvalAgreement(t *testing.T) {
	for _, name := range backendTestCases(t) {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		zOld, err := OperatingMeasurements(n, xOld)
		if err != nil {
			t.Fatalf("%s: operating point: %v", name, err)
		}
		exactSet, err := SampleAttacks(n, xOld, zOld, sketchedAttackCfg(ExactGamma))
		if err != nil {
			t.Fatal(err)
		}
		sketchSet, err := SampleAttacks(n, xOld, zOld, sketchedAttackCfg(SketchGamma))
		if err != nil {
			t.Fatal(err)
		}
		if sketchSet.gamma.sketch == nil {
			t.Fatalf("%s: SampleAttacks under SketchGamma did not build the screening evaluator", name)
		}
		for pi, xd := range backendTestPoints(n) {
			xNew := n.ExpandDFACTS(xd)
			exact, err := EvaluateAttacks(n, exactSet, xNew, sketchedAttackCfg(ExactGamma))
			if err != nil {
				t.Fatalf("%s point %d (exact): %v", name, pi, err)
			}
			sketched, err := EvaluateAttacks(n, sketchSet, xNew, sketchedAttackCfg(SketchGamma))
			if err != nil {
				t.Fatalf("%s point %d (sketch): %v", name, pi, err)
			}
			for i := range exact.Eta {
				if sketched.Eta[i] != exact.Eta[i] {
					t.Errorf("%s point %d: η′(%.2f) sketched %v != exact %v",
						name, pi, exact.Deltas[i], sketched.Eta[i], exact.Eta[i])
				}
			}
			if sketched.UndetectableFraction != exact.UndetectableFraction {
				t.Errorf("%s point %d: undetectable fraction sketched %v != exact %v",
					name, pi, sketched.UndetectableFraction, exact.UndetectableFraction)
			}
			// γ is reported through the exact basis path on both sets.
			if sketched.Gamma != exact.Gamma {
				t.Errorf("%s point %d: γ sketched %v != exact %v", name, pi, sketched.Gamma, exact.Gamma)
			}
		}
	}
}

// TestSketchedAttackEvalExactPathsUntouched pins the gate: Monte Carlo and
// ReportProbs evaluations ignore the screening machinery even on a
// sketch-built set, so their outputs stay bitwise identical to the
// historical path.
func TestSketchedAttackEvalExactPathsUntouched(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	zOld, err := OperatingMeasurements(n, xOld)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sketchedAttackCfg(SketchGamma)
	cfg.NumAttacks = 50
	cfg.ReportProbs = true
	set, err := SampleAttacks(n, xOld, zOld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exactCfg := cfg
	exactCfg.GammaBackend = ExactGamma
	exactSet, err := SampleAttacks(n, xOld, zOld, exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	xNew := n.ExpandDFACTS(backendTestPoints(n)[2])
	a, err := EvaluateAttacks(n, set, xNew, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateAttacks(n, exactSet, xNew, exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.DetectionProbs {
		if a.DetectionProbs[k] != b.DetectionProbs[k] {
			t.Fatalf("attack %d: ReportProbs probability differs under a sketch set: %v vs %v",
				k, a.DetectionProbs[k], b.DetectionProbs[k])
		}
	}
}

// TestCarriedWarmStartDeterminism pins the carried-Lanczos-warm-start
// discipline end to end: a full problem-(4) selection must return the
// identical design for 1 and 4 workers and across repeated runs on the
// sketch backend, which carries LP bases and Ritz warm starts.
func TestCarriedWarmStartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus selections take seconds")
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
	backend := SketchGamma
	var ref *Selection
	for run := 0; run < 2; run++ {
		for _, par := range []int{1, 4} {
			eng := NewEnginesSharedBackend(n, xOld, de, backend)
			sel, err := SelectMTDWith(eng, n, xOld, SelectConfig{
				GammaThreshold: 0.05,
				Starts:         2,
				MaxEvals:       30,
				Seed:           5,
				BaselineCost:   1,
				Parallelism:    par,
			})
			if err != nil {
				t.Fatalf("%v run %d parallelism %d: %v", backend, run, par, err)
			}
			if ref == nil {
				ref = sel
				continue
			}
			if sel.Gamma != ref.Gamma {
				t.Fatalf("%v run %d parallelism %d: γ %v != reference %v", backend, run, par, sel.Gamma, ref.Gamma)
			}
			for i := range ref.Reactances {
				if sel.Reactances[i] != ref.Reactances[i] {
					t.Fatalf("%v run %d parallelism %d: reactance %d differs: %v vs %v",
						backend, run, par, i, sel.Reactances[i], ref.Reactances[i])
				}
			}
		}
	}
}
