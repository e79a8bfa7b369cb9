package core

import (
	"math"
	"sync"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/subspace"
)

// GammaBackend selects the γ-evaluation strategy (re-exported from the
// subspace layer so the scenario/planner layers and the facade never
// import subspace directly): the exact reference evaluator or the
// randomized sketch. See subspace.GammaBackend for the per-backend
// contracts.
type GammaBackend = subspace.GammaBackend

// γ-backend choices for NewGammaEvaluatorBackend and the -gamma flag.
const (
	AutoGamma   = subspace.AutoGamma
	ExactGamma  = subspace.ExactGamma
	SketchGamma = subspace.SketchGamma
)

// GammaEvaluator evaluates γ(H(x_old), H(x')) for many candidates x'
// against a fixed pre-perturbation configuration x_old, and it owns that
// x_old side: the exact orthonormal basis of H(x_old) and, on the sketch
// backend, the sketch evaluator's old-side factorization. They are built
// exactly once, at construction; attack sets sampled through the same
// Engines bundle (Engines.SampleAttacks) borrow them instead of building
// their own, so one selection request prepares its x_old side once.
// Per-goroutine workspaces live in a pool, so each evaluation performs only
// the candidate-side work and allocates nothing in steady state.
//
// A GammaEvaluator is safe for concurrent use; the parallel multi-start
// search shares one evaluator across all workers.
//
// The candidate-side strategy is the pluggable γ-backend layer
// (subspace.GammaBackend, selected like grid.BFactorizer's seam):
//
//   - ExactGamma (the default): the reference principal-angle pipeline.
//     Below grid.SparseThreshold buses every float operation matches the
//     uncached subspace.Gamma bitwise; at or above it the
//     multi-accumulator/blocked kernels and the reduced [p; √2·f]
//     representation run under the 1e-9-agreement contract, following the
//     resolved grid backend (-backend dense keeps the bitwise path even on
//     large cases).
//   - SketchGamma: the sparse-Gram Cholesky + seeded-Lanczos evaluator
//     (subspace.SketchEvaluator) — no dense basis is formed at all. It
//     carries the documented sketch error bound, is deterministic per
//     seed, and falls back to the exact path automatically whenever it
//     cannot certify the bound; SelectMTD/MaxGamma additionally re-check
//     the winning candidate exactly, so reported γ values stay exact.
type GammaEvaluator struct {
	n         *grid.Network
	xOld      []float64
	requested GammaBackend // resolved request: Exact or Sketch
	backend   GammaBackend // serving: Exact, or Sketch when its construction succeeded
	fast      bool         // exact-path kernel family (the grid-backend seam)
	qOld      *subspace.Basis
	sketch    *subspace.SketchEvaluator // non-nil iff backend == SketchGamma
	pool      sync.Pool                 // *gammaWorkspace
}

type gammaWorkspace struct {
	ht     *mat.Dense // candidate Hᵀ, (N-1)×M (or reduced (N-1)×(N+L))
	ws     subspace.Workspace
	xFull  []float64 // expanded reactance buffer, length L
	d      []float64 // sketch: candidate diagonal 1/x_l, length L
	sketch *subspace.SketchSession
}

// NewGammaEvaluator builds an evaluator for the pre-perturbation reactance
// vector xOld (full length-L vector) on the default γ backend (the -gamma
// process default; exact when none is set).
func NewGammaEvaluator(n *grid.Network, xOld []float64) *GammaEvaluator {
	return NewGammaEvaluatorBackend(n, xOld, AutoGamma)
}

// NewGammaEvaluatorBackend is NewGammaEvaluator with an explicit γ-backend
// choice. A sketch construction that cannot certify its contract (a
// rank-deficient x_old Gram matrix) degrades to the exact backend, so the
// returned evaluator is always usable; Backend() reports what actually
// serves.
func NewGammaEvaluatorBackend(n *grid.Network, xOld []float64, gb GammaBackend) *GammaEvaluator {
	gb = subspace.EffectiveGammaBackend(gb)
	// The exact path's kernel family follows the resolved grid backend
	// (including the -backend process default), so a dense-forced run is
	// the historical bitwise path end to end and a sparse-forced run gets
	// the whole fast family — γ and LP always sit on the same side of the
	// contract.
	fast := grid.EffectiveBackend(n, grid.AutoBackend) == grid.SparseBackend
	e := &GammaEvaluator{n: n, xOld: mat.CopyVec(xOld), requested: gb, backend: gb, fast: fast}

	if gb == SketchGamma {
		et, g := n.GammaSketchOperands()
		d := make([]float64, n.L())
		invInto(d, xOld)
		sk, err := subspace.NewSketchEvaluator(et, g, d, subspace.SketchConfig{Seed: 1})
		if err != nil {
			e.backend = ExactGamma
		} else {
			e.sketch = sk
		}
	}

	// Exact x_old basis. It doubles as the sketch's fallback side, the
	// SelectMTD/MaxGamma winner re-check and the γ of every attack-set
	// evaluation, so it is always prepared.
	if fast {
		// The fast path works in the reduced γ-equivalent representation
		// (flow block once, √2-weighted): identical angles from 38% fewer
		// reduction rows — see Network.MeasurementMatrixTGammaInto.
		ht := mat.NewDense(n.N()-1, n.GammaAmbient())
		n.MeasurementMatrixTGammaInto(xOld, ht)
		e.qOld = subspace.ComputeBasisTFast(ht, 0)
	} else {
		ht := mat.NewDense(n.N()-1, n.M())
		n.MeasurementMatrixTInto(xOld, ht)
		e.qOld = subspace.ComputeBasisT(ht, 0)
	}

	e.pool.New = func() any {
		cols := n.M()
		if e.exactReduced() {
			cols = n.GammaAmbient()
		}
		w := &gammaWorkspace{
			ht:    mat.NewDense(n.N()-1, cols),
			xFull: make([]float64, n.L()),
		}
		w.ws.Fast = e.fast
		if e.backend == SketchGamma {
			w.d = make([]float64, n.L())
			w.sketch = e.sketch.NewSession()
		}
		return w
	}
	return e
}

// Backend reports the resolved γ backend actually serving this evaluator.
func (e *GammaEvaluator) Backend() GammaBackend { return e.backend }

// sameOldSide reports whether o prepares the same x_old side as e: the
// same network, exact kernel family and bitwise x_old. Exact γ values
// computed against either evaluator are then interchangeable.
func (e *GammaEvaluator) sameOldSide(o *GammaEvaluator) bool {
	if e == o {
		return true
	}
	if o == nil || e.n != o.n || e.fast != o.fast || len(e.xOld) != len(o.xOld) {
		return false
	}
	for i, v := range e.xOld {
		if math.Float64bits(v) != math.Float64bits(o.xOld[i]) {
			return false
		}
	}
	return true
}

// exactReduced reports whether the exact path (primary or fallback) works
// in the reduced representation.
func (e *GammaEvaluator) exactReduced() bool { return e.fast }

// invInto fills d with 1/x.
func invInto(d, x []float64) []float64 {
	for i, v := range x {
		d[i] = 1 / v
	}
	return d
}

// Gamma returns γ(H(x_old), H(x)) for a full reactance vector x.
func (e *GammaEvaluator) Gamma(x []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	g := e.gamma(w, x)
	e.pool.Put(w)
	return g
}

// GammaDFACTS returns γ(H(x_old), H(x')) where x' is the network's current
// reactance vector with the D-FACTS branches set to xd (ordered as
// DFACTSIndices). This is the inner-loop form used by the problem-(4)
// search.
func (e *GammaEvaluator) GammaDFACTS(xd []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	e.n.ExpandDFACTSInto(xd, w.xFull)
	g := e.gamma(w, w.xFull)
	e.pool.Put(w)
	return g
}

// GammaExact returns γ through the exact path regardless of the
// evaluator's backend — the re-check SelectMTD/MaxGamma apply to a
// sketch-guided winner, and the reference the agreement tests compare
// against. For exact evaluators it is the regular evaluation.
func (e *GammaEvaluator) GammaExact(x []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	g := e.exactGamma(w, x)
	e.pool.Put(w)
	return g
}

// GammaDFACTSExact is GammaExact in the D-FACTS-setting form.
func (e *GammaEvaluator) GammaDFACTSExact(xd []float64) float64 {
	w := e.pool.Get().(*gammaWorkspace)
	e.n.ExpandDFACTSInto(xd, w.xFull)
	g := e.exactGamma(w, w.xFull)
	e.pool.Put(w)
	return g
}

func (e *GammaEvaluator) gamma(w *gammaWorkspace, x []float64) float64 {
	if e.backend == SketchGamma {
		if g, ok := w.sketch.Gamma(invInto(w.d, x)); ok {
			return g
		}
		// Automatic exact fallback.
	}
	return e.exactGamma(w, x)
}

// exactGamma is the reference candidate evaluation: dense MGS on the
// bitwise or fast kernel family per the grid seam.
func (e *GammaEvaluator) exactGamma(w *gammaWorkspace, x []float64) float64 {
	if e.exactReduced() {
		e.n.MeasurementMatrixTGammaInto(x, w.ht)
	} else {
		e.n.MeasurementMatrixTInto(x, w.ht)
	}
	qNew := w.ws.BasisT(w.ht, 0)
	return w.ws.GammaBases(e.qOld, qNew)
}

// GammaSession is a single-goroutine view of a GammaEvaluator: it owns one
// workspace outright instead of borrowing from the pool per call, giving
// the parallel multi-start workers engine affinity without sync.Pool
// churn. By default γ evaluation carries no cross-call state, so session
// results are identical to the pooled path; CarryWarmStarts opts a sketch
// session into Lanczos warm-start carrying, after which the caller must
// evaluate a deterministic candidate sequence and call ResetWarmStart at
// each sequence boundary (each local-search start) to keep seed determinism
// and worker-count invariance. Not safe for concurrent use.
type GammaSession struct {
	e *GammaEvaluator
	w *gammaWorkspace
}

// NewSession returns a fresh session with its own workspace.
func (e *GammaEvaluator) NewSession() *GammaSession {
	return &GammaSession{e: e, w: e.pool.New().(*gammaWorkspace)}
}

// CarryWarmStarts enables Lanczos warm-start carrying on a sketch-backend
// session (no-op on the exact backend, whose evaluations have no
// iterative state to carry). See subspace.SketchSession.CarryWarmStarts for
// the determinism obligations.
func (s *GammaSession) CarryWarmStarts() {
	if s.w.sketch != nil {
		s.w.sketch.CarryWarmStarts()
	}
}

// ResetWarmStart discards any carried Lanczos warm start, so the session's
// next evaluation is identical to a fresh session's. No-op on the exact
// backend.
func (s *GammaSession) ResetWarmStart() {
	if s.w.sketch != nil {
		s.w.sketch.ResetWarmStart()
	}
}

// Gamma is GammaEvaluator.Gamma on the session's private workspace.
func (s *GammaSession) Gamma(x []float64) float64 { return s.e.gamma(s.w, x) }

// GammaDFACTS is GammaEvaluator.GammaDFACTS on the session's workspace.
func (s *GammaSession) GammaDFACTS(xd []float64) float64 {
	s.e.n.ExpandDFACTSInto(xd, s.w.xFull)
	return s.e.gamma(s.w, s.w.xFull)
}
