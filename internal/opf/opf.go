// Package opf solves the paper's optimal power flow problems. With linear
// generation costs and the DC model, OPF over the generator dispatch
// (problem (1) with fixed reactances) is a linear program, formulated here
// over PTDF sensitivities and solved with the internal simplex. OPF over
// dispatch AND D-FACTS reactance settings (problem (1) in full) is
// non-convex in the reactances; it is solved by derivative-free multi-start
// search over the D-FACTS box with the dispatch LP nested inside — the same
// decomposition MATLAB's fmincon+MultiStart effectively performs in the
// paper's simulations.
package opf

import (
	"errors"
	"fmt"

	"gridmtd/internal/grid"
	"gridmtd/internal/optimize"
)

// ErrInfeasible is returned when no dispatch satisfies the generation,
// balance and flow constraints.
var ErrInfeasible = errors.New("opf: problem is infeasible")

// Result is a solved OPF.
type Result struct {
	// DispatchMW is the generator dispatch (ordered as Network.Gens).
	DispatchMW []float64
	// FlowsMW are branch flows at the optimum.
	FlowsMW []float64
	// ThetaRad are bus voltage angles at the optimum (slack = 0).
	ThetaRad []float64
	// CostPerHour is the generation cost Σ c_i g_i in $/h.
	CostPerHour float64
	// Reactances is the branch reactance vector the OPF was solved for.
	Reactances []float64
}

// SolveDispatch solves the dispatch-only OPF for fixed branch reactances x:
//
//	min  Σ c_i g_i
//	s.t. Σ g = Σ load, |PTDF·(g − load)| <= fmax, gmin <= g <= gmax.
func SolveDispatch(n *grid.Network, x []float64) (*Result, error) {
	e, err := NewDispatchEngine(n)
	if err != nil {
		return nil, err
	}
	return e.Solve(x)
}

// DFACTSConfig tunes the outer reactance search of SolveDFACTS.
type DFACTSConfig struct {
	// Starts is the number of random multi-start points in addition to the
	// current reactance setting (default 8).
	Starts int
	// Seed seeds the multi-start sampler.
	Seed int64
	// MaxEvals bounds objective evaluations per local search (default
	// 60 × #D-FACTS branches).
	MaxEvals int
	// Parallelism bounds the number of concurrent local searches (0 =
	// GOMAXPROCS). The result is identical for any setting.
	Parallelism int
	// Initial, when non-nil, is the full reactance vector whose D-FACTS
	// setting seeds the search instead of the network's nominal reactances
	// (day-sweep loops that keep yesterday's devices installed pass the
	// installed vector here).
	Initial []float64
}

func (c DFACTSConfig) withDefaults(dim int) DFACTSConfig {
	if c.Starts <= 0 {
		c.Starts = 8
	}
	if c.MaxEvals <= 0 {
		c.MaxEvals = 60 * dim
	}
	return c
}

// SolveDFACTS solves the full problem (1): minimize generation cost over
// both the dispatch and the D-FACTS reactance settings. Networks without
// D-FACTS devices reduce to SolveDispatch at the current reactances
// (paper footnote 1).
func SolveDFACTS(n *grid.Network, cfg DFACTSConfig) (*Result, error) {
	engine, err := NewDispatchEngine(n)
	if err != nil {
		return nil, err
	}
	return SolveDFACTSEngine(engine, cfg)
}

// SolveDFACTSEngine is SolveDFACTS against a pre-built dispatch engine —
// the form batched drivers (day sweeps, the planner service) use so one
// engine's cached LP skeleton and factorizer workspaces serve every solve
// on a case. The arithmetic is identical to SolveDFACTS.
func SolveDFACTSEngine(engine *DispatchEngine, cfg DFACTSConfig) (*Result, error) {
	n := engine.n
	idx := n.DFACTSIndices()
	if len(idx) == 0 {
		return engine.Solve(n.Reactances())
	}
	cfg = cfg.withDefaults(len(idx))
	lo, hi := n.DFACTSBounds()
	box := optimize.Bounds{Lower: lo, Upper: hi}

	// Per-worker engine sessions: no pool churn per evaluation, and on the
	// sparse path the warm LP basis is scoped to one local search so the
	// result is identical for every worker count. The driver-level
	// objective comes from the same factory — one definition.
	newWorker := func() (optimize.Objective, func()) {
		s := engine.NewSession()
		obj := func(xd []float64) float64 {
			cost, err := s.Cost(n.ExpandDFACTS(xd))
			if err != nil {
				return optimize.InfeasibleObjective
			}
			return cost
		}
		return obj, s.ResetWarmStart
	}
	obj, _ := newWorker()
	local := func(f optimize.Objective, x0 []float64) (*optimize.Result, error) {
		return optimize.NelderMead(f, x0, optimize.NMConfig{MaxEvals: cfg.MaxEvals})
	}
	initial := cfg.Initial
	if initial == nil {
		initial = n.Reactances()
	}
	best, err := optimize.MultiStart(obj, box, local, optimize.MSConfig{
		Starts:        cfg.Starts,
		Seed:          cfg.Seed,
		InitialPoints: [][]float64{n.DFACTSSetting(initial)},
		Parallelism:   cfg.Parallelism,
		// On the sparse path every evaluation is a full dispatch LP, so a
		// random restart must beat the incumbent initial-point optimum at
		// its start point to earn a Nelder-Mead budget. The dense path
		// keeps the historical every-start search bitwise.
		ScreenRestarts:     engine.Backend() == grid.SparseBackend,
		NewWorkerObjective: newWorker,
	})
	if err != nil {
		return nil, fmt.Errorf("opf: D-FACTS search: %w", err)
	}
	if best.F >= optimize.InfeasibleObjective {
		return nil, ErrInfeasible
	}
	return engine.Solve(n.ExpandDFACTS(best.X))
}
