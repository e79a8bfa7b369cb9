package core

import (
	"math"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
	"gridmtd/internal/subspace"
)

// sharedSideState is one case's pre-perturbation state: the problem-(1)
// reactances x_old on a dispatch engine and the operating point z_old
// taken from that engine.
type sharedSideState struct {
	n    *grid.Network
	de   *opf.DispatchEngine
	xOld []float64
	zOld []float64
	cost float64
}

// sharedSideSetup prepares the named case. devices > 0 keeps only the
// case's first that many D-FACTS devices (the others are pinned at their
// reactance), which keeps MaxGamma's exhaustive corner poll (2^devices
// exact γ evaluations) affordable on the large cases.
func sharedSideSetup(t *testing.T, name string, devices int) sharedSideState {
	t.Helper()
	n, err := grid.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if devices > 0 {
		n = n.Clone()
		for i := range n.Branches {
			if br := &n.Branches[i]; br.HasDFACTS {
				if devices > 0 {
					devices--
					continue
				}
				br.HasDFACTS, br.XMin, br.XMax = false, br.X, br.X
			}
		}
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := opf.SolveDFACTSEngine(de, opf.DFACTSConfig{Starts: 1, MaxEvals: 20, Seed: 3})
	if err != nil {
		t.Fatalf("%s: problem (1): %v", name, err)
	}
	z, err := OperatingMeasurementsEngine(n, de, pre.Reactances)
	if err != nil {
		t.Fatalf("%s: operating point: %v", name, err)
	}
	return sharedSideState{n: n, de: de, xOld: pre.Reactances, zOld: z, cost: pre.CostPerHour}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameEffectiveness reports the first field in which two results differ
// bitwise ("" when none does).
func sameEffectiveness(a, b *EffectivenessResult) string {
	switch {
	case math.Float64bits(a.Gamma) != math.Float64bits(b.Gamma):
		return "gamma"
	case !sameBits(a.Deltas, b.Deltas):
		return "deltas"
	case !sameBits(a.Eta, b.Eta):
		return "eta"
	case !sameBits(a.DetectionProbs, b.DetectionProbs):
		return "detection probabilities"
	case math.Float64bits(a.UndetectableFraction) != math.Float64bits(b.UndetectableFraction):
		return "undetectable fraction"
	}
	return ""
}

// TestOperatingMeasurementsEngineBitwise pins the shared-engine operating
// point: z taken from a dispatch engine that has already run the
// problem-(1) search (on the sparse path a solve-memo hit) and from the
// engine's seed path at untouched reactances equals the throwaway-engine
// OperatingMeasurements bitwise.
func TestOperatingMeasurementsEngineBitwise(t *testing.T) {
	for _, name := range backendTestCases(t) {
		st := sharedSideSetup(t, name, 0)
		for _, x := range [][]float64{st.xOld, st.n.Reactances()} {
			want, err := OperatingMeasurements(st.n, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OperatingMeasurementsEngine(st.n, st.de, x)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Errorf("%s: engine operating point differs from OperatingMeasurements", name)
			}
		}
	}
}

// TestEnginesSampleAttacksBitwise pins the shared x_old side: an attack set
// sampled through an Engines bundle borrows the bundle's evaluator and is
// indistinguishable from the set SampleAttacks builds on its own — the
// same attacks, the same screening machinery and bitwise-equal
// evaluations, γ included (so the same x_old basis) — while a set whose γ
// backend resolves differently from the bundle's prepares its own side.
func TestEnginesSampleAttacksBitwise(t *testing.T) {
	for _, name := range backendTestCases(t) {
		st := sharedSideSetup(t, name, 0)
		// One estimator cache per case: both sets' evaluations of the
		// candidate share its post-MTD estimator.
		estimators := NewEstimatorCache(st.n)
		for _, gb := range []GammaBackend{ExactGamma, SketchGamma} {
			cfg := EffectivenessConfig{NumAttacks: 60, Seed: 5, GammaBackend: gb, Estimators: estimators}
			eng := NewEnginesSharedBackend(st.n, st.xOld, st.de, gb)
			shared, err := eng.SampleAttacks(st.zOld, cfg)
			if err != nil {
				t.Fatal(err)
			}
			own, err := SampleAttacks(st.n, st.xOld, st.zOld, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if shared.gamma != eng.Gamma() {
				t.Fatalf("%s/%v: the set did not borrow the bundle's evaluator", name, gb)
			}
			if shared.Len() != own.Len() {
				t.Fatalf("%s/%v: %d shared-side attacks, SampleAttacks drew %d", name, gb, shared.Len(), own.Len())
			}
			for k := 0; k < own.Len(); k++ {
				if !sameBits(shared.Batch.A(k), own.Batch.A(k)) || !sameBits(shared.Batch.C(k), own.Batch.C(k)) {
					t.Fatalf("%s/%v: attack %d differs from SampleAttacks's", name, gb, k)
				}
			}
			if (shared.gamma.sketch == nil) != (own.gamma.sketch == nil) || !sameBits(shared.anorm, own.anorm) {
				t.Fatalf("%s/%v: screening machinery differs", name, gb)
			}
			xNew := st.n.ExpandDFACTS(backendTestPoints(st.n)[4])
			a, err := EvaluateAttacks(st.n, shared, xNew, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EvaluateAttacks(st.n, own, xNew, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if f := sameEffectiveness(a, b); f != "" {
				t.Errorf("%s/%v: %s differs", name, gb, f)
			}
		}
		// Backends that resolve differently: the set builds its own side.
		eng := NewEnginesSharedBackend(st.n, st.xOld, st.de, SketchGamma)
		set, err := eng.SampleAttacks(st.zOld, EffectivenessConfig{NumAttacks: 10, Seed: 5, GammaBackend: ExactGamma})
		if err != nil {
			t.Fatal(err)
		}
		if set.gamma == eng.Gamma() || set.gamma.sketch != nil {
			t.Errorf("%s: an exact-backend set borrowed a sketch bundle's side", name)
		}
	}
}

// TestEvaluateSelectionBitwise pins the reused winner γ: for selections
// from SelectMTDWith and MaxGammaWith (whose exact-backend γ is the search
// objective's own value at the winner) on either γ backend,
// EvaluateSelection on a shared-side set of either backend equals
// EvaluateAttacks on an independently sampled set bitwise, and builds no
// basis doing so. A selection from another x_old side has its γ
// recomputed. The cases keep four devices, so each MaxGamma polls 16
// corners.
func TestEvaluateSelectionBitwise(t *testing.T) {
	for _, name := range backendTestCases(t) {
		st := sharedSideSetup(t, name, 4)
		// One estimator cache per case: EvaluateAttacks and
		// EvaluateSelection of one selection share its post-MTD estimator.
		estimators := NewEstimatorCache(st.n)
		type sets struct{ shared, own *AttackSet }
		bySide := map[GammaBackend]sets{}
		var sels []*Selection
		var kinds []string
		for _, gb := range []GammaBackend{ExactGamma, SketchGamma} {
			cfg := EffectivenessConfig{NumAttacks: 60, Seed: 5, GammaBackend: gb}
			eng := NewEnginesSharedBackend(st.n, st.xOld, st.de, gb)
			shared, err := eng.SampleAttacks(st.zOld, cfg)
			if err != nil {
				t.Fatal(err)
			}
			own, err := SampleAttacks(st.n, st.xOld, st.zOld, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bySide[gb] = sets{shared, own}
			// An exact-backend search scores every candidate with a full
			// exact γ (~0.2 s each on ieee300); there the sketch-backend
			// selections stand in, evaluated on the exact set below.
			if gb == ExactGamma && name == "ieee300" {
				continue
			}
			sel, err := SelectMTDWith(eng, st.n, st.xOld, SelectConfig{
				GammaThreshold: 0.01, Starts: 1, MaxEvals: 8, Seed: 2, BaselineCost: st.cost,
			})
			if err != nil {
				t.Fatalf("%s/%v: select: %v", name, gb, err)
			}
			sels, kinds = append(sels, sel), append(kinds, "select/"+gb.String())
			sel, err = MaxGammaWith(eng, st.n, st.xOld, MaxGammaConfig{
				Starts: 1, MaxEvals: 8, Seed: 2, BaselineCost: st.cost,
			})
			if err != nil {
				t.Fatalf("%s/%v: max γ: %v", name, gb, err)
			}
			sels, kinds = append(sels, sel), append(kinds, "maxgamma/"+gb.String())
		}
		for i, sel := range sels {
			for gb, side := range bySide {
				cfg := EffectivenessConfig{NumAttacks: 60, Seed: 5, GammaBackend: gb, Estimators: estimators}
				want, err := EvaluateAttacks(st.n, side.own, sel.Reactances, cfg)
				if err != nil {
					t.Fatal(err)
				}
				before := subspace.GlobalBuildStats()
				got, err := EvaluateSelection(st.n, side.shared, sel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := subspace.GlobalBuildStats().Delta(before); d.Bases != 0 {
					t.Errorf("%s %s on a %v set: EvaluateSelection built %d bases, want 0 (γ reused)", name, kinds[i], gb, d.Bases)
				}
				if f := sameEffectiveness(got, want); f != "" {
					t.Errorf("%s %s on a %v set: EvaluateSelection %s differs from EvaluateAttacks", name, kinds[i], gb, f)
				}
			}
		}
		if st.n.N() > 100 {
			continue
		}
		// A selection against the nominal reactances is foreign to a set
		// crafted on x_old: its γ must be recomputed, not reused.
		x0 := st.n.Reactances()
		foreign, err := SelectMTDWith(NewEnginesSharedBackend(st.n, x0, st.de, SketchGamma), st.n, x0, SelectConfig{
			GammaThreshold: 0.01, Starts: 1, MaxEvals: 8, Seed: 2, BaselineCost: st.cost,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := EffectivenessConfig{NumAttacks: 60, Seed: 5, GammaBackend: ExactGamma, Estimators: estimators}
		set := bySide[ExactGamma].shared
		want, err := EvaluateAttacks(st.n, set, foreign.Reactances, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateSelection(st.n, set, foreign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if f := sameEffectiveness(got, want); f != "" {
			t.Errorf("%s: foreign selection: %s differs from EvaluateAttacks", name, f)
		}
	}
}

// TestEvaluateSelectionParallelismInvariant runs the shared-side pipeline
// at several worker counts, then evaluates one selection from several
// goroutines at once on the shared set: every reported number must be
// identical, and the concurrent use of the borrowed evaluator (its pooled
// workspaces and sketch sessions) must be race-free.
func TestEvaluateSelectionParallelismInvariant(t *testing.T) {
	for _, name := range []string{"ieee14", "ieee57"} {
		st := sharedSideSetup(t, name, 0)
		for _, gb := range []GammaBackend{ExactGamma, SketchGamma} {
			var base *EffectivenessResult
			var baseSel *Selection
			var set *AttackSet
			for _, par := range []int{1, 4} {
				cfg := EffectivenessConfig{NumAttacks: 120, Seed: 9, GammaBackend: gb, Parallelism: par}
				eng := NewEnginesSharedBackend(st.n, st.xOld, st.de, gb)
				s, err := eng.SampleAttacks(st.zOld, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sel, err := SelectMTDWith(eng, st.n, st.xOld, SelectConfig{
					GammaThreshold: 0.02, Starts: 2, MaxEvals: 40, Seed: 4, BaselineCost: st.cost, Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				eff, err := EvaluateSelection(st.n, s, sel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base, baseSel, set = eff, sel, s
					continue
				}
				if !sameBits(sel.Reactances, baseSel.Reactances) {
					t.Fatalf("%s/%v: selection differs at parallelism %d", name, gb, par)
				}
				if f := sameEffectiveness(eff, base); f != "" {
					t.Fatalf("%s/%v: %s differs at parallelism %d", name, gb, f, par)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(par int) {
					defer wg.Done()
					cfg := EffectivenessConfig{NumAttacks: 120, Seed: 9, GammaBackend: gb, Parallelism: par}
					eff, err := EvaluateSelection(st.n, set, baseSel, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					if f := sameEffectiveness(eff, base); f != "" {
						t.Errorf("%s/%v: concurrent evaluation: %s differs", name, gb, f)
					}
				}(g + 1)
			}
			wg.Wait()
		}
	}
}
