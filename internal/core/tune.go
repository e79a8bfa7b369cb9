package core

import (
	"fmt"

	"gridmtd/internal/grid"
)

// TuneConfig controls TuneGammaThreshold.
type TuneConfig struct {
	// TargetDelta is the detection-probability level δ* of interest
	// (default 0.9, as in the paper's daily simulation).
	TargetDelta float64
	// TargetEta is the required effectiveness η'(δ*) (default 0.9).
	TargetEta float64
	// Iterations is the number of bisection steps on γ_th (default 7,
	// resolving γ to ~γ_max/2⁷).
	Iterations int
	// Effectiveness configures the inner η' evaluations; its Deltas are
	// overridden with TargetDelta.
	Effectiveness EffectivenessConfig
	// Select configures the inner problem-(4) solves; its GammaThreshold
	// is overridden during the search.
	Select SelectConfig
}

func (c TuneConfig) withDefaults() TuneConfig {
	if c.TargetDelta <= 0 {
		c.TargetDelta = 0.9
	}
	if c.TargetEta <= 0 {
		c.TargetEta = 0.9
	}
	if c.Iterations <= 0 {
		c.Iterations = 7
	}
	return c
}

// TuneGammaThreshold implements the defender's numerical procedure from the
// daily-cost experiment (Section VII-C): find the smallest γ_th whose
// problem-(4) solution achieves η'(δ*) ≥ target, by bisection over
// [0, γ_max] where γ_max comes from MaxGamma. It returns the tuned
// selection; if even γ_max misses the target, the max-γ selection is
// returned with its (best achievable) effectiveness and no error, matching
// the paper's "as effective as the hardware allows" fallback.
func TuneGammaThreshold(n *grid.Network, xOld, zOld []float64, cfg TuneConfig) (*Selection, *EffectivenessResult, error) {
	eng, err := newEngines(n, xOld)
	if err != nil {
		return nil, nil, err
	}
	return TuneGammaThresholdWith(eng, n, xOld, zOld, cfg)
}

// TuneGammaThresholdWith is TuneGammaThreshold against a pre-built
// evaluator bundle (γ engine keyed by xOld). Day sweeps build the dispatch
// engine once per day and pass an hourly NewEnginesShared bundle here, so
// only the γ side is rebuilt as the attacker's knowledge moves.
func TuneGammaThresholdWith(eng *Engines, n *grid.Network, xOld, zOld []float64, cfg TuneConfig) (*Selection, *EffectivenessResult, error) {
	cfg = cfg.withDefaults()
	cfg.Effectiveness.Deltas = []float64{cfg.TargetDelta}

	// The cached evaluators — the γ engine (keyed by xOld), the dispatch
	// engine, and the attack set, which shares the γ engine's x_old side —
	// are built once. Every bisection iteration reuses them; the attack
	// sampler is reseeded per Effectiveness call in the uncached path, so
	// hoisting it out of the loop reproduces exactly the same attacks. Each
	// selection's exact γ is reused, not recomputed.
	attacks, err := eng.SampleAttacks(zOld, cfg.Effectiveness)
	if err != nil {
		return nil, nil, err
	}
	evalEta := func(sel *Selection) (*EffectivenessResult, float64, error) {
		eff, err := EvaluateSelection(n, attacks, sel, cfg.Effectiveness)
		if err != nil {
			return nil, 0, err
		}
		return eff, eff.Eta[0], nil
	}

	// Compute the no-MTD reference cost once, reusing it across bisection
	// iterations.
	if cfg.Select.BaselineCost <= 0 {
		baseline, err := NoMTDCost(n, cfg.Select.Starts, cfg.Select.Seed)
		if err != nil {
			return nil, nil, err
		}
		cfg.Select.BaselineCost = baseline
	}

	// Probe the achievable range.
	maxSel, err := maxGamma(n, xOld, MaxGammaConfig{
		Starts:       cfg.Select.Starts,
		Seed:         cfg.Select.Seed,
		BaselineCost: cfg.Select.BaselineCost,
		Parallelism:  cfg.Select.Parallelism,
	}, eng)
	if err != nil {
		return nil, nil, fmt.Errorf("core: probing max gamma: %w", err)
	}
	maxEff, maxEta, err := evalEta(maxSel)
	if err != nil {
		return nil, nil, err
	}
	if maxEta < cfg.TargetEta {
		// Even the most aggressive perturbation cannot reach the target:
		// return it as the best effort.
		return maxSel, maxEff, nil
	}

	lo, hi := 0.0, maxSel.Gamma
	bestSel, bestEff := maxSel, maxEff
	warm := [][]float64{n.DFACTSSetting(maxSel.Reactances)}
	for it := 0; it < cfg.Iterations; it++ {
		mid := (lo + hi) / 2
		sCfg := cfg.Select
		sCfg.GammaThreshold = mid
		sCfg.WarmStarts = warm
		sel, err := selectMTD(n, xOld, sCfg, eng)
		if err != nil {
			// Threshold unreachable at this level (or OPF infeasible):
			// treat as "needs larger γ_th" being impossible — tighten from
			// below.
			lo = mid
			continue
		}
		eff, eta, err := evalEta(sel)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, n.DFACTSSetting(sel.Reactances))
		if eta >= cfg.TargetEta {
			// Keep the cheapest selection that meets the target (bisection
			// lowers γ_th monotonically, but the non-convex inner search can
			// return pricier solutions at lower thresholds).
			if sel.OPF.CostPerHour < bestSel.OPF.CostPerHour {
				bestSel, bestEff = sel, eff
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	return bestSel, bestEff, nil
}
