package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/memo"
	"gridmtd/internal/opf"
	"gridmtd/internal/sim"
)

// maxCachedEngines bounds the Runner's per-network dispatch-engine and
// estimator caches (entries are evicted least recently used first; an
// evicted engine is simply rebuilt on the next request for its network).
const maxCachedEngines = 16

// Runner executes compiled Specs. It owns the shared per-case engine
// state: one dispatch-OPF engine per caller-provided network (keyed by the
// *grid.Network pointer, so a long-running service whose case table hands
// out stable networks amortizes the engine across every request), with the
// per-worker DispatchSession/GammaSession affinity inside each unit coming
// from the engines themselves. A Runner is safe for concurrent use; the
// networks passed via Spec.Net are never mutated (load-changing workloads
// run on private clones). Concurrent first requests for one network share
// a single engine build.
type Runner struct {
	engines   *memo.Cache[*grid.Network, *opf.DispatchEngine]
	estCaches *memo.Cache[*grid.Network, *core.EstimatorCache]
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner {
	return &Runner{
		engines:   memo.New[*grid.Network, *opf.DispatchEngine](maxCachedEngines, nil, nil),
		estCaches: memo.New[*grid.Network, *core.EstimatorCache](maxCachedEngines, nil, nil),
	}
}

// Run compiles and executes the Spec.
func (r *Runner) Run(spec Spec) (*Result, error) {
	b, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return r.RunBatch(b)
}

// RunBatch executes a compiled batch: the units run in order against one
// shared execution state (resolved network, shared engines, warm-start
// chain), exactly as the historical bespoke loops did.
func (r *Runner) RunBatch(b *Batch) (*Result, error) {
	n, owned, err := b.Spec.network()
	if err != nil {
		return nil, err
	}
	st := &execState{spec: b.Spec, r: r, n: n, owned: owned, res: &Result{}}
	if st.spec.Effectiveness.GammaBackend == core.AutoGamma {
		// The attack-evaluation screen follows the sweep's γ backend unless
		// the spec pins it explicitly: one -gamma flag selects both sides.
		st.spec.Effectiveness.GammaBackend = st.spec.GammaBackend
	}
	if s := b.Spec.LoadScale; s != 0 && s != 1 {
		st.ensureOwned()
		st.n.ScaleLoads(s)
	}
	for _, u := range b.Units {
		if err := u.run(st); err != nil {
			return nil, err
		}
	}
	st.res.Net = st.n
	st.res.Baseline = st.pre
	return st.res, nil
}

// DispatchEngine returns the runner's shared dispatch-OPF engine for the
// caller-owned network n (built on first use, cached by pointer). Services
// that run selection primitives outside a full Spec — the planner's
// explicit-x_old requests — use this to stay on the same warm engines the
// runner's scenarios use.
func (r *Runner) DispatchEngine(n *grid.Network, backend grid.Backend) (*opf.DispatchEngine, error) {
	return r.dispatchEngine(n, backend, true)
}

// dispatchEngine returns the engine for n, from the cache when cacheable
// (caller-owned long-lived networks) or freshly built otherwise. A build
// error is a pure function of the immutable network, so it is cached too.
func (r *Runner) dispatchEngine(n *grid.Network, backend grid.Backend, cacheable bool) (*opf.DispatchEngine, error) {
	build := func() (*opf.DispatchEngine, error) { return opf.NewDispatchEngineBackend(n, backend) }
	if !cacheable {
		return build()
	}
	e, _, err := r.engines.Get(n, build)
	return e, err
}

// EstimatorCache returns the runner's shared per-network estimator cache
// for the caller-owned network n (built on first use, cached by pointer,
// same lifetime policy as DispatchEngine). The planner injects it into the
// effectiveness config of explicit-x_old selections so repeated candidate
// evaluations against one case reuse their post-MTD QR factorizations.
func (r *Runner) EstimatorCache(n *grid.Network) *core.EstimatorCache {
	c, _, _ := r.estCaches.Get(n, func() (*core.EstimatorCache, error) { return core.NewEstimatorCache(n), nil })
	return c
}

// execState is the shared state a batch's units thread through: the
// network (private clone when mutated), the shared engines, the attacker's
// knowledge, the warm-start chain and the accumulating result.
type execState struct {
	spec  Spec
	r     *Runner
	n     *grid.Network
	owned bool

	eng     *opf.DispatchEngine
	engines *core.Engines
	estc    *core.EstimatorCache
	pre     *opf.Result
	xOld    []float64
	zOld    []float64
	attacks *core.AttackSet
	warm    [][]float64
	rng     *rand.Rand

	lastLearn *sim.LearningOutcome
	pl        *placementState

	res *Result
}

// ensureOwned gives the state a network it may mutate.
func (st *execState) ensureOwned() {
	if !st.owned {
		st.n = st.n.Clone()
		st.owned = true
	}
}

// engineFor resolves the state's dispatch engine (cached across Runs only
// for caller-provided, never-mutated networks).
func (st *execState) engineFor() (*opf.DispatchEngine, error) {
	if st.eng != nil {
		return st.eng, nil
	}
	e, err := st.r.dispatchEngine(st.n, st.spec.Backend, !st.owned)
	if err != nil {
		return nil, fmt.Errorf("scenario: dispatch engine: %w", err)
	}
	st.eng = e
	return e, nil
}

// effectivenessCfg resolves the spec's effectiveness config with the
// runner's estimator cache injected: the shared per-network cache for
// caller-owned networks, a batch-private one for mutated clones (whose
// pointer must not pin an entry in the runner after the batch ends).
func (st *execState) effectivenessCfg() core.EffectivenessConfig {
	if st.estc == nil {
		if st.owned {
			st.estc = core.NewEstimatorCache(st.n)
		} else {
			st.estc = st.r.EstimatorCache(st.n)
		}
	}
	cfg := st.spec.Effectiveness
	cfg.Estimators = st.estc
	return cfg
}

// opfStarts resolves the problem-(1) budget (defaulting to the selection
// budget, the convention of the sweep experiments).
func (st *execState) opfStarts() int {
	if st.spec.OPFStarts > 0 {
		return st.spec.OPFStarts
	}
	return st.spec.SelectStarts
}

// setScaledLoads sets the network loads to base·factor.
func (st *execState) setScaledLoads(base []float64, factor float64) {
	loads := make([]float64, len(base))
	for i, l := range base {
		loads[i] = l * factor
	}
	st.n.SetLoadsMW(loads)
}

// ---- GammaSweep -----------------------------------------------------------

// setupGammaSweep establishes the operating point and attacker knowledge:
// either the base-load problem-(1) solution (Fig. 6, mtdscan) or a profile
// hour with optionally one-hour-stale attacker knowledge (Fig. 9).
func (st *execState) setupGammaSweep() error {
	spec := st.spec
	if spec.Hour > 0 {
		st.ensureOwned()
		eng, err := st.engineFor()
		if err != nil {
			return err
		}
		factors, err := spec.profileFactors(st.n)
		if err != nil {
			return err
		}
		if spec.Hour >= len(factors) {
			return fmt.Errorf("scenario: hour %d out of range", spec.Hour)
		}
		base := st.n.LoadsMW()
		seedNow := spec.OPFSeed
		if spec.StaleAttacker {
			// Attacker knowledge: previous hour's no-MTD configuration.
			st.setScaledLoads(base, factors[spec.Hour-1])
			prev, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
				Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: spec.OPFSeed,
				Parallelism: spec.Parallelism,
			})
			if err != nil {
				return fmt.Errorf("scenario: previous-hour OPF: %w", err)
			}
			st.zOld, err = core.OperatingMeasurementsEngine(st.n, eng, prev.Reactances)
			if err != nil {
				return err
			}
			st.xOld = prev.Reactances
			seedNow++
		}
		st.setScaledLoads(base, factors[spec.Hour])
		st.pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
			Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: seedNow,
			Parallelism: spec.Parallelism,
		})
		if err != nil {
			return fmt.Errorf("scenario: operating-point OPF: %w", err)
		}
	} else {
		eng, err := st.engineFor()
		if err != nil {
			return err
		}
		st.pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
			Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: spec.OPFSeed,
			Parallelism: spec.Parallelism,
		})
		if err != nil {
			return fmt.Errorf("scenario: pre-perturbation OPF: %w", err)
		}
	}
	if st.xOld == nil {
		var err error
		st.xOld = st.pre.Reactances
		st.zOld, err = core.OperatingMeasurementsEngine(st.n, st.eng, st.xOld)
		if err != nil {
			return err
		}
	}
	st.engines = core.NewEnginesSharedBackend(st.n, st.xOld, st.eng, st.spec.GammaBackend)
	st.res.GammaBackendUsed = st.engines.Gamma().Backend()
	var err error
	st.attacks, err = st.engines.SampleAttacks(st.zOld, spec.Effectiveness)
	return err
}

// sweepPoint solves problem (4) at one γ threshold and evaluates it
// against the shared attack set. Thresholds past the hardware's reach mark
// the sweep exhausted; later points are skipped.
func (st *execState) sweepPoint(gth float64) error {
	if st.res.Exhausted {
		return nil
	}
	sel, err := core.SelectMTDWith(st.engines, st.n, st.xOld, core.SelectConfig{
		GammaThreshold: gth,
		Starts:         st.spec.SelectStarts,
		MaxEvals:       st.spec.MaxEvals,
		Seed:           st.spec.Seed,
		BaselineCost:   st.pre.CostPerHour,
		WarmStarts:     st.warm,
		Parallelism:    st.spec.Parallelism,
	})
	if errors.Is(err, core.ErrConstraintUnreachable) {
		st.res.Exhausted = true
		st.res.ExhaustedAt = gth
		return nil
	}
	if err != nil {
		return fmt.Errorf("scenario: γ_th=%.2f: %w", gth, err)
	}
	return st.appendSelection(sel, gth)
}

// sweepCap appends the hardware's best (max-γ) design after an exhausted
// sweep. On calibrated large cases the max-γ corner can be operationally
// infeasible; the sweep then simply ends at the last reachable threshold.
func (st *execState) sweepCap() error {
	if !st.res.Exhausted {
		return nil
	}
	// The cap runs at the solver's default evaluation budget (not
	// Spec.MaxEvals): it is the sweep's one-off "best the hardware can do"
	// probe, and every historical caller budgeted it that way.
	sel, err := core.MaxGammaWith(st.engines, st.n, st.xOld, core.MaxGammaConfig{
		Starts:       st.spec.SelectStarts,
		Seed:         st.spec.Seed,
		BaselineCost: st.pre.CostPerHour,
		Parallelism:  st.spec.Parallelism,
	})
	if errors.Is(err, opf.ErrInfeasible) {
		return nil
	}
	if err != nil {
		return err
	}
	return st.appendSelection(sel, 0)
}

// appendSelection evaluates a selection against the shared attack set
// (reusing the selection's exact γ) and records the sweep row, chaining its
// setting as the next point's warm start.
func (st *execState) appendSelection(sel *core.Selection, target float64) error {
	eff, err := core.EvaluateSelection(st.n, st.attacks, sel, st.effectivenessCfg())
	if err != nil {
		return err
	}
	st.res.Rows = append(st.res.Rows, Row{
		GammaTarget:  target,
		Gamma:        eff.Gamma,
		Deltas:       eff.Deltas,
		Eta:          eff.Eta,
		CostIncrease: sel.CostIncrease,
		Undetectable: eff.UndetectableFraction,
		Reactances:   sel.Reactances,
		BaselineCost: sel.BaselineCost,
		MTDCost:      sel.OPF.CostPerHour,
	})
	st.warm = [][]float64{st.n.DFACTSSetting(sel.Reactances)}
	return nil
}

// ---- DaySweep -------------------------------------------------------------

// runDay executes the Section VII-C day loop (sim.RunDay builds one
// dispatch engine for the whole day) and maps the hourly records to rows
// labeled with their profile indices.
func (st *execState) runDay() error {
	spec := st.spec
	factors, err := spec.profileFactors(st.n)
	if err != nil {
		return err
	}
	hourIdx := spec.Hours
	selected := factors
	if len(hourIdx) > 0 {
		selected = make([]float64, 0, len(hourIdx))
		for _, h := range hourIdx {
			if h < 0 || h >= len(factors) {
				return fmt.Errorf("scenario: hour index %d out of range", h)
			}
			selected = append(selected, factors[h])
		}
	} else {
		hourIdx = make([]int, len(factors))
		for i := range factors {
			hourIdx[i] = i
		}
	}
	results, err := sim.RunDay(sim.DayConfig{
		Net:               st.n,
		LoadFactors:       selected,
		Tune:              spec.Tune,
		OPFStarts:         spec.OPFStarts,
		Warmup:            spec.Warmup,
		PersistReactances: spec.PersistReactances,
		GammaBackend:      spec.GammaBackend,
		Seed:              spec.Seed,
	})
	if err != nil {
		return err
	}
	for i, r := range results {
		st.res.Rows = append(st.res.Rows, Row{
			Hour:           hourIdx[i],
			TotalLoadMW:    r.TotalLoadMW,
			BaselineCost:   r.BaselineCost,
			MTDCost:        r.MTDCost,
			CostIncrease:   r.CostIncrease,
			GammaThreshold: r.GammaThreshold,
			Gamma:          r.GammaOldMTD,
			GammaOldNew:    r.GammaOldNew,
			GammaNewMTD:    r.GammaNewMTD,
			Eta:            []float64{r.Eta},
		})
	}
	return nil
}

// ---- RandomKeys -----------------------------------------------------------

// setupRandomKeys establishes the operating point, the shared attack set
// and the key sampler.
func (st *execState) setupRandomKeys() error {
	spec := st.spec
	eng, err := st.engineFor()
	if err != nil {
		return err
	}
	st.pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
		Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: spec.OPFSeed,
		Parallelism: spec.Parallelism,
	})
	if err != nil {
		return fmt.Errorf("scenario: pre-perturbation OPF: %w", err)
	}
	st.xOld = st.pre.Reactances
	st.zOld, err = core.OperatingMeasurementsEngine(st.n, eng, st.xOld)
	if err != nil {
		return err
	}
	st.attacks, err = core.SampleAttacks(st.n, st.xOld, st.zOld, spec.Effectiveness)
	if err != nil {
		return err
	}
	st.rng = rand.New(rand.NewSource(spec.Seed))
	return nil
}

// randomKey draws one keyspace perturbation through the shared dispatch
// engine and evaluates it.
func (st *execState) randomKey(trial int) error {
	xRand, _, draws, err := core.RandomKeyWithinCostEngine(st.rng, st.n, st.eng, st.pre.CostPerHour, st.spec.CostBudget, 0)
	if err != nil {
		return err
	}
	eff, err := core.EvaluateAttacks(st.n, st.attacks, xRand, st.effectivenessCfg())
	if err != nil {
		return err
	}
	st.res.Rows = append(st.res.Rows, Row{
		Trial:        trial,
		Draws:        draws,
		Gamma:        eff.Gamma,
		Deltas:       eff.Deltas,
		Eta:          eff.Eta,
		Undetectable: eff.UndetectableFraction,
		Reactances:   xRand,
	})
	return nil
}

// ---- Learning -------------------------------------------------------------

// learnPoint runs the attacker's subspace estimation at one sample count.
func (st *execState) learnPoint(samples int) error {
	out, err := sim.SimulateLearning(st.n, st.n.Reactances(), sim.LearningConfig{
		Samples:  samples,
		Sigma:    st.spec.LearnSigma,
		JitterMW: st.spec.LearnJitterMW,
		Seed:     st.spec.Seed,
	})
	if err != nil {
		return err
	}
	st.res.Rows = append(st.res.Rows, Row{Samples: samples, SubspaceError: out.SubspaceError})
	st.lastLearn = out
	return nil
}

// learnProbe applies one max-γ MTD and records how stale the attacker's
// best estimate becomes. The probe runs on the runner's shared dispatch
// engine, like every other unit.
func (st *execState) learnProbe() error {
	eng, err := st.engineFor()
	if err != nil {
		return err
	}
	x := st.n.Reactances()
	engines := core.NewEnginesSharedBackend(st.n, x, eng, st.spec.GammaBackend)
	st.res.GammaBackendUsed = engines.Gamma().Backend()
	sel, err := core.MaxGammaWith(engines, st.n, x, core.MaxGammaConfig{
		Starts:       st.spec.ProbeStarts,
		Seed:         st.spec.ProbeSeed,
		BaselineCost: st.spec.ProbeBaselineCost,
		Parallelism:  st.spec.Parallelism,
	})
	if err != nil {
		return err
	}
	info := &LearningInfo{Selection: sel, Last: st.lastLearn}
	if st.lastLearn != nil {
		info.Stale = sim.BasisGamma(st.n, sel.Reactances, st.lastLearn)
	}
	st.res.Learning = info
	return nil
}
