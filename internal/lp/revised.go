package lp

import (
	"errors"
	"math"
	"sort"

	"gridmtd/internal/mat"
)

// errWarmFallback is warmSolve's internal "abandon this attempt and
// re-solve on the flat tableau" signal. It never escapes Solve: the only
// warm error surfaced to callers is a certified ErrInfeasible.
var errWarmFallback = errors.New("lp: warm solve abandoned")

// WarmSolver is a Problem solver that can reuse the optimal basis of the
// previous solve to start the next one. The MTD selection search solves
// long runs of near-identical dispatch LPs (one Nelder-Mead walk perturbs
// a handful of PTDF coefficients per step), where re-solving from the
// previous optimal basis takes a few pivots instead of a full two-phase
// tableau pass. Invalidate drops the warm state; callers that need results
// independent of the solve history (e.g. the deterministic parallel
// multi-start driver) must call it at their determinism boundaries — the
// dispatch engine resets at the start of every local search.
type WarmSolver interface {
	// Solve solves the problem with the package-level Solve error contract.
	Solve(p *Problem) (*Solution, error)
	// Invalidate drops the warm basis; the next Solve starts cold.
	Invalidate()
}

// RevisedStats counts what the revised solver actually did — tests assert
// the warm path is exercised and PERF.md reports pivot counts from it.
type RevisedStats struct {
	// Solves is the total number of Solve calls.
	Solves int `json:"solves"`
	// WarmSolves counts solves completed by the revised warm path.
	WarmSolves int `json:"warm_solves"`
	// ColdSolves counts solves delegated to the flat tableau solver
	// (first solve, structural change, or fallback).
	ColdSolves int `json:"cold_solves"`
	// Fallbacks counts warm attempts abandoned mid-flight (singular or
	// stalled basis, failed verification) that then re-solved cold.
	Fallbacks int `json:"fallbacks"`
	// PrimalPivots and DualPivots count warm-path simplex pivots.
	PrimalPivots int `json:"primal_pivots"`
	DualPivots   int `json:"dual_pivots"`
	// SEPivots counts the dual pivots whose leaving row was chosen by the
	// Devex-weighted steepest-edge rule (as opposed to Bland scans, the
	// anti-cycling fallback).
	SEPivots int `json:"se_pivots"`
	// BoundFlips counts nonbasic bound flips applied by the dual
	// bound-flipping ratio test (long-step dual pivots absorb several
	// breakpoints into one basis exchange; each absorbed breakpoint is one
	// flip).
	BoundFlips int `json:"bound_flips"`
	// EtaUpdates counts basis exchanges absorbed by a product-form eta
	// update instead of a refactorization.
	EtaUpdates int `json:"eta_updates"`
	// Refactorizations counts working-matrix refactorizations: one per
	// warm attempt, plus every eta-file collapse (cap reached, spike
	// retry, or the exact re-derivation before an answer is accepted).
	Refactorizations int `json:"refactorizations"`
	// PrescreenHits counts Solve calls answered by the Farkas-ray
	// pre-screen: a recycled infeasibility certificate, revalidated
	// exactly against the call's own problem data, proved the problem
	// infeasible before any simplex work. Pre-screened calls are NOT
	// counted in Solves — Solves remains the number of full dispatch
	// solves actually run.
	PrescreenHits int `json:"prescreen_hits"`
	// PrescreenProbes counts individual stored-ray revalidations run by
	// the pre-screen (the structural-cause index's per-miss work;
	// PrescreenHits/PrescreenProbes is its precision).
	PrescreenProbes int `json:"prescreen_probes"`
	// InfeasibleSolves counts full solves (counted in Solves) that ended
	// in a certified ErrInfeasible — the pre-screen's remaining misses;
	// each is also a ray-capture opportunity.
	InfeasibleSolves int `json:"infeasible_solves"`
	// BoundProbes and BoundScreens belonged to the retired dual-bound
	// screen and nothing increments them; they stay only because the
	// benchmark still reads them, and go with its next revision.
	BoundProbes, BoundScreens int `json:"-"`
}

// Variable statuses of the bounded-variable revised simplex. Slack
// variables (one per inequality row, bounds [0, +Inf)) follow the
// structural variables in the status array.
const (
	stLower int8 = iota // nonbasic at lower bound
	stUpper             // nonbasic at upper bound
	stBasic
)

const (
	warmMaxIter = 2000
	// ratioTie is the ratio-test tie band, matching the flat solver.
	ratioTie = 1e-12
	// defaultMaxUpdates bounds the product-form eta file between
	// refactorizations. Forty exchanges on a ≤n×n working matrix keep the
	// accumulated forward/backward transformation cost well below one
	// refactorization while bounding update drift; the exact re-derivation
	// at loop exit makes the bound a performance knob, not a correctness
	// one.
	defaultMaxUpdates = 40
	// spikeAbs/spikeRel gate each eta update on its pivot element: a pivot
	// below the absolute floor, or tiny relative to the transformed
	// column's magnitude, would amplify drift through every later solve
	// (the Forrest–Tomlin spike-growth hazard) — such exchanges refactor
	// instead.
	spikeAbs = 1e-11
	spikeRel = 1e-8
)

// RevisedSolver is a bounded-variable revised-simplex solver with
// cross-solve basis warm-starting. It works on the row geometry of the
// Problem directly (equality rows plus slack-extended inequality rows,
// structural variables kept inside their bounds) instead of the flat
// solver's standard form, and it never materializes a tableau: it factors
// only the small "working matrix" — active rows × basic structural
// columns, at most n×n however many inequality rows the problem has —
// because the basic slack columns are unit vectors. Between
// refactorizations, basis exchanges are absorbed by bounded product-form
// eta updates (Forrest–Tomlin-style pivot monitoring with refactor
// fallback; see primalLoop/pivotUpdate), so a typical warm re-solve
// factors the working matrix once and pivots through rank-one updates.
//
// The first solve (and any solve after Invalidate, a structural change, or
// a warm failure) delegates to the embedded flat tableau Solver — the
// historical reference implementation — and crashes a warm basis out of
// its optimal tableau. Subsequent solves restart from the previous optimal
// basis: if the perturbed problem leaves it primal feasible the primal
// simplex finishes in a few pivots; if the perturbation makes it primal
// infeasible but it is still dual feasible, the dual simplex recovers
// feasibility first. Every warm result is verified against the original
// problem (primal feasibility, bound satisfaction, and the reduced-cost
// optimality certificate); any doubt — singular working matrix, stalled
// loop, failed check — falls back to an exact cold solve, so the solver
// never returns an unverified warm answer.
//
// A RevisedSolver is not safe for concurrent use; use one per goroutine.
type RevisedSolver struct {
	cold    Solver
	stats   RevisedStats
	flushed RevisedStats // portion of stats already added to the globals

	// Warm state: statuses per variable (structural then slacks) for the
	// problem signature below.
	hasBasis           bool
	status             []int8
	sigN, sigEq, sigUb int

	// Per-solve model arrays, length nTot = n + nUb.
	lo, up, c []float64
	x, d      []float64
	// Basis bookkeeping, frozen at the last refactorization (eta updates
	// exchange basis positions without touching these).
	activeRows  []int  // eq rows + inequality rows whose slack is nonbasic
	basicStruct []int  // basic structural columns, ascending
	isBasicCol  []bool // length n
	w           mat.Dense
	lu          mat.LU
	// abasic is the contiguous gather of the basic structural columns over
	// the inactive rows, rebuilt at each refactorization:
	// abasic[t*k+b] = A[inactiveRows[t], basicStruct[b]]. The ftran/btran
	// inactive-row sweeps run on these contiguous k-vectors instead of
	// indexed gathers through the problem's row views.
	abasic []float64
	// Product-form eta file: basis B = B₀·E₁·…·E_t where B₀ is the frozen
	// factorization above and each Eᵢ is the identity with basis position
	// etaPos[i] replaced by the column etaBuf[i·m:(i+1)·m] (m = nEq+nUb).
	// varAt/posOf track which variable currently holds each position;
	// inactiveRows lists the rows whose slack was basic at refactor time
	// (positions k..m-1, in row order).
	maxUpdates   int // see SetMaxUpdates; 0 = default, negative = disabled
	etaPos       []int
	etaBuf       []float64
	varAt, posOf []int
	inactiveRows []int
	fresh        bool // x and d were recomputed from a fresh factorization
	// Pricing state: the Devex reference weights per basis position (reset
	// to 1 at every refactorization) and the bound-flipping ratio-test
	// scratch. bland forces the dual loop onto Bland's rule from the first
	// iteration instead of only past half the budget; tests set it to keep
	// the anti-cycling path covered.
	bland   bool
	dw      []float64
	cands   []dualCand
	flips   []int
	flipCol []float64
	fcol    []float64
	// Farkas-ray pre-screen state (see prescreen.go): an MRU index of
	// infeasibility certificates keyed by structural cause, plus scratch.
	// The index survives Invalidate on purpose — rays are never trusted
	// from storage, only after exact revalidation against the current
	// problem's data, so dropping the warm basis has no bearing on their
	// validity.
	rays                []farkasRay
	rayScratch, rayCand []float64
	// Scratch vectors sized to the working dimension k, m or nTot.
	rhs, sol, yAct, colAct, alpha []float64
	col, posv, pi                 []float64
	// Tolerances, refreshed per solve from the problem scale.
	ptol, dtol float64
}

// dualCand is one sign-eligible entering candidate of the dual ratio test:
// its variable index and its dual ratio |d_j|/|α_j|.
type dualCand struct {
	j     int
	ratio float64
}

// NewRevisedSolver returns an empty solver; buffers grow on first use.
func NewRevisedSolver() *RevisedSolver { return &RevisedSolver{} }

// Stats returns the cumulative solve counters.
func (s *RevisedSolver) Stats() RevisedStats { return s.stats }

// Invalidate drops the warm basis; the next Solve starts from scratch —
// a pure function of the problem (crash-basis warm route, flat tableau
// when that fails) with no memory of previous solves.
func (s *RevisedSolver) Invalidate() { s.hasBasis = false }

// HasBasis reports whether a warm basis is loaded (from a previous solve
// or InstallBasis).
func (s *RevisedSolver) HasBasis() bool { return s.hasBasis }

// WarmBasis is a portable snapshot of a solver's optimal basis: the
// per-variable statuses (structural then inequality slacks) plus the
// problem signature they belong to. It is immutable once captured, so one
// snapshot may seed any number of solvers concurrently.
type WarmBasis struct {
	status    []int8
	n, eq, ub int
}

// CaptureBasis snapshots the current warm basis, or returns nil when the
// solver has none.
func (s *RevisedSolver) CaptureBasis() *WarmBasis {
	if !s.hasBasis {
		return nil
	}
	nTot := s.sigN + s.sigUb
	return &WarmBasis{
		status: append([]int8(nil), s.status[:nTot]...),
		n:      s.sigN, eq: s.sigEq, ub: s.sigUb,
	}
}

// InstallBasis seeds the solver's warm state from a snapshot: the next
// Solve of a signature-compatible problem starts from it exactly as it
// would from its own previous optimal basis (with the same verification
// and cold fallback). Solving a problem with a different signature simply
// drops the seed. A nil snapshot is a no-op.
func (s *RevisedSolver) InstallBasis(b *WarmBasis) {
	if b == nil {
		return
	}
	s.status = growI8(s.status, len(b.status))
	copy(s.status, b.status)
	s.sigN, s.sigEq, s.sigUb = b.n, b.eq, b.ub
	s.hasBasis = true
}

// SetMaxUpdates bounds the product-form eta updates accumulated between
// refactorizations. Zero restores the default (defaultMaxUpdates); a
// negative value disables eta updates entirely, refactorizing after every
// basis exchange — the pre-update reference behavior the agreement tests
// compare against.
func (s *RevisedSolver) SetMaxUpdates(n int) { s.maxUpdates = n }

func (s *RevisedSolver) effMaxUpdates() int {
	switch {
	case s.maxUpdates < 0:
		return 0
	case s.maxUpdates == 0:
		return defaultMaxUpdates
	}
	return s.maxUpdates
}

// Solve solves the problem, warm-starting from the previous optimal basis
// when one is available and structurally compatible. The error contract is
// that of the package-level Solve.
func (s *RevisedSolver) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	defer s.flushStats()
	n := len(p.C)
	nEq, nUb := 0, 0
	if p.Aeq != nil {
		nEq = p.Aeq.Rows()
	}
	if p.Aub != nil {
		nUb = p.Aub.Rows()
	}
	// Farkas-ray pre-screen: if a recycled certificate, revalidated against
	// this problem's exact data, proves infeasibility, that IS the answer —
	// no simplex run, no warm-state change, not counted in Solves.
	if len(s.rays) > 0 && s.prescreen(p, n, nEq, nUb) {
		s.stats.PrescreenHits++
		return nil, ErrInfeasible
	}
	s.stats.Solves++
	if s.hasBasis && (n != s.sigN || nEq != s.sigEq || nUb != s.sigUb) {
		s.hasBasis = false
	}
	s.sigN, s.sigEq, s.sigUb = n, nEq, nUb

	if nEq+nUb == 0 || !s.warmEligible(p) {
		// Unconstrained problems never touch the tableau basis, and free
		// variables have no bound to park a nonbasic status at; both stay
		// on the flat path with no warm state.
		s.hasBasis = false
		s.stats.ColdSolves++
		return s.countInfeasible(s.cold.Solve(p))
	}

	if s.hasBasis {
		sol, err := s.warmSolve(p)
		if err == nil || errors.Is(err, ErrInfeasible) {
			s.stats.WarmSolves++
			return s.countInfeasible(sol, err)
		}
		s.stats.Fallbacks++
		s.hasBasis = false
	}
	// No usable basis. Before paying for the flat two-phase tableau solve,
	// try the revised machinery from a deterministic crash basis (all
	// slacks basic, one max-coefficient structural per equality row): the
	// flip repair makes it dual feasible and the dual simplex walks to the
	// optimum in roughly active-set-many cheap pivots instead of the
	// tableau's dense Gauss-Jordan passes. The result passes the same
	// verification as any warm solve; any doubt still lands on the exact
	// cold path. The crash basis is a pure function of the problem, so
	// first-solve answers stay deterministic and scheduling-independent.
	if s.crashBasis(p) {
		sol, err := s.warmSolve(p)
		if err == nil || errors.Is(err, ErrInfeasible) {
			s.stats.WarmSolves++
			return s.countInfeasible(sol, err)
		}
		s.hasBasis = false
	}
	return s.countInfeasible(s.coldSolve(p))
}

// countInfeasible attributes a full solve's infeasible outcome to the
// stats on its way out (pre-screened calls are counted separately).
func (s *RevisedSolver) countInfeasible(sol *Solution, err error) (*Solution, error) {
	if errors.Is(err, ErrInfeasible) {
		s.stats.InfeasibleSolves++
	}
	return sol, err
}

// crashBasis installs the deterministic cold-start basis: every slack
// basic, every structural nonbasic at a finite bound, except one
// structural per equality row — the largest-|coefficient| column not yet
// chosen — to complete the basis. Returns false when an equality row has
// no usable column (the flat path handles it).
func (s *RevisedSolver) crashBasis(p *Problem) bool {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	s.status = growI8(s.status, n+nUb)
	for j := 0; j < n; j++ {
		if lo, _ := p.bound(j); math.IsInf(lo, -1) {
			s.status[j] = stUpper
		} else {
			s.status[j] = stLower
		}
	}
	for i := 0; i < nUb; i++ {
		s.status[n+i] = stBasic
	}
	for r := 0; r < nEq; r++ {
		rv := p.Aeq.RowView(r)
		best, bv := -1, 0.0
		for j := 0; j < n; j++ {
			if s.status[j] == stBasic {
				continue
			}
			if a := math.Abs(rv[j]); a > bv {
				bv, best = a, j
			}
		}
		if best < 0 {
			return false
		}
		s.status[best] = stBasic
	}
	s.hasBasis = true
	return true
}

// coldSolve delegates to the flat tableau solver and crashes a warm basis
// from its optimal tableau.
func (s *RevisedSolver) coldSolve(p *Problem) (*Solution, error) {
	s.stats.ColdSolves++
	sol, err := s.cold.Solve(p)
	if err != nil {
		s.hasBasis = false
		return nil, err
	}
	s.hasBasis = s.crashFromCold(p)
	return sol, nil
}

// warmEligible reports whether every variable has at least one finite
// bound (the nonbasic statuses need a bound to sit at).
func (s *RevisedSolver) warmEligible(p *Problem) bool {
	for j := range p.C {
		lo, up := p.bound(j)
		if math.IsInf(lo, -1) && math.IsInf(up, 1) {
			return false
		}
	}
	return true
}

// crashFromCold derives bounded-form variable statuses from the flat
// solver's final basis. Returns false when no clean basis exists (an
// artificial column is still basic — a redundant row — or the status
// count does not form a basis).
func (s *RevisedSolver) crashFromCold(p *Problem) bool {
	c := &s.cold
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	nUp := len(c.upperCol)
	stdN := c.n
	cols := stdN - nUb - nUp

	// Membership of the final tableau basis over standard-form columns.
	inBasis := make([]bool, stdN)
	for _, b := range c.basis {
		if b >= stdN {
			return false // artificial stuck in basis: redundant row
		}
		inBasis[b] = true
	}
	// Upper-bound row index per standard-form column.
	upOf := make([]int, cols)
	for i := range upOf {
		upOf[i] = -1
	}
	for i, col := range c.upperCol {
		upOf[col] = i
	}

	nTot := n + nUb
	s.status = growI8(s.status, nTot)
	count := 0
	for j := 0; j < n; j++ {
		vm := c.vmap[j]
		switch vm.kind {
		case 0: // x = lo + y
			switch {
			case !inBasis[vm.col]:
				s.status[j] = stLower
			case upOf[vm.col] >= 0 && !inBasis[cols+nUb+upOf[vm.col]]:
				// y basic at its upper-row RHS: the variable sits at its
				// upper bound, nonbasic in the bounded form.
				s.status[j] = stUpper
			default:
				s.status[j] = stBasic
				count++
			}
		case 1: // x = up - y
			if inBasis[vm.col] {
				s.status[j] = stBasic
				count++
			} else {
				s.status[j] = stUpper
			}
		default: // free split: warmEligible filtered these out
			return false
		}
	}
	for i := 0; i < nUb; i++ {
		if inBasis[cols+i] {
			s.status[n+i] = stBasic
			count++
		} else {
			s.status[n+i] = stLower
		}
	}
	return count == nEq+nUb
}

// ---- Warm path ------------------------------------------------------------

// warmSolve re-solves p from the stored statuses. ok=false means "fall
// back to a cold solve" for any reason, including warm-detected
// infeasibility (the cold path re-derives and reports it exactly).
func (s *RevisedSolver) warmSolve(p *Problem) (*Solution, error) {
	n := s.sigN
	s.setupModel(p)
	if s.refresh(p) != nil {
		return nil, errWarmFallback
	}

	// dualStep wraps a dualLoop run: a certified infeasibility verdict —
	// issued only on a fresh factorization with no entering column for a
	// violated row, the Farkas certificate — is a final answer the caller
	// must not re-derive on the flat tableau (on large cases an infeasible
	// candidate costs seconds there, and the selection search probes many);
	// every other failure stays a fallback.
	dualStep := func() error {
		switch err := s.dualLoop(p); {
		case err == nil:
			return nil
		case errors.Is(err, ErrInfeasible):
			return ErrInfeasible
		}
		return errWarmFallback
	}

	pf := s.primalFeasible()
	df := s.dualFeasible()
	switch {
	case pf:
		if s.primalLoop(p) != nil {
			return nil, errWarmFallback
		}
	case df:
		if err := dualStep(); err != nil {
			return nil, err
		}
		if s.primalLoop(p) != nil {
			return nil, errWarmFallback
		}
	default:
		// Neither feasible — the usual fate of a basis seeded from a
		// different problem instance (engine seed basis, crash basis, large
		// candidate jumps). Bound flipping restores dual feasibility without
		// touching the basis matrix: a nonbasic variable whose reduced cost
		// has the wrong sign for its bound moves to the opposite bound,
		// where the same sign is the right one. Only variables with both
		// bounds finite can flip; a wrong-signed variable without a finite
		// opposite bound (a slack) keeps the repair impossible and the
		// solve goes cold. After the flips the factorization and reduced
		// costs are still exact, only the primal values moved, so one
		// computeX refresh feeds the ordinary dual→primal recovery.
		if !s.flipToDualFeasible() {
			return nil, errWarmFallback
		}
		s.computeX(p)
		if err := dualStep(); err != nil {
			return nil, err
		}
		if s.primalLoop(p) != nil {
			return nil, errWarmFallback
		}
	}
	if !s.verify(p) {
		return nil, errWarmFallback
	}
	xOut := make([]float64, n)
	copy(xOut, s.x[:n])
	return &Solution{X: xOut, Objective: mat.Dot(p.C, xOut), Status: StatusOptimal}, nil
}

// setupModel fills the per-variable bound and cost arrays and the
// scale-aware tolerances.
func (s *RevisedSolver) setupModel(p *Problem) {
	n, nUb := s.sigN, s.sigUb
	nTot := n + nUb
	s.lo = growF(s.lo, nTot)
	s.up = growF(s.up, nTot)
	s.c = growF(s.c, nTot)
	s.x = growF(s.x, nTot)
	s.d = growF(s.d, nTot)
	var cScale float64
	for j := 0; j < n; j++ {
		s.lo[j], s.up[j] = p.bound(j)
		s.c[j] = p.C[j]
		if a := math.Abs(p.C[j]); a > cScale {
			cScale = a
		}
	}
	for i := 0; i < nUb; i++ {
		s.lo[n+i], s.up[n+i] = 0, math.Inf(1)
		s.c[n+i] = 0
	}
	var bScale float64
	for _, v := range p.Beq {
		if a := math.Abs(v); a > bScale {
			bScale = a
		}
	}
	for _, v := range p.Bub {
		if a := math.Abs(v); a > bScale {
			bScale = a
		}
	}
	for j := 0; j < n; j++ {
		if a := math.Abs(s.lo[j]); a > bScale && !math.IsInf(a, 1) {
			bScale = a
		}
		if a := math.Abs(s.up[j]); a > bScale && !math.IsInf(a, 1) {
			bScale = a
		}
	}
	s.ptol = feasTol * (1 + bScale)
	s.dtol = feasTol * (1 + cScale)
}

// rowView returns row r of the stacked [Aeq; Aub] constraint matrix.
func (s *RevisedSolver) rowView(p *Problem, r int) []float64 {
	if r < s.sigEq {
		return p.Aeq.RowView(r)
	}
	return p.Aub.RowView(r - s.sigEq)
}

// rowRHS returns the right-hand side of stacked row r.
func (s *RevisedSolver) rowRHS(p *Problem, r int) float64 {
	if r < s.sigEq {
		return p.Beq[r]
	}
	return p.Bub[r-s.sigEq]
}

// factorBasis rebuilds the active-row and basic-column lists from the
// statuses and factors the working matrix W = A[active rows, basic
// structural columns]. Any structural defect (cardinality mismatch,
// singular W) is an error that sends the caller cold.
func (s *RevisedSolver) factorBasis(p *Problem) error {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	s.activeRows = s.activeRows[:0]
	for r := 0; r < nEq; r++ {
		s.activeRows = append(s.activeRows, r)
	}
	for i := 0; i < nUb; i++ {
		if s.status[n+i] != stBasic {
			s.activeRows = append(s.activeRows, nEq+i)
		}
	}
	s.basicStruct = s.basicStruct[:0]
	if cap(s.isBasicCol) < n {
		s.isBasicCol = make([]bool, n)
	}
	s.isBasicCol = s.isBasicCol[:n]
	for j := 0; j < n; j++ {
		s.isBasicCol[j] = s.status[j] == stBasic
		if s.isBasicCol[j] {
			s.basicStruct = append(s.basicStruct, j)
		}
	}
	k := len(s.activeRows)
	if len(s.basicStruct) != k {
		return ErrMaxIterations // structural defect; exact error unused
	}
	// Freeze the position bookkeeping the eta file pivots against:
	// positions 0..k-1 hold the basic structural columns, positions
	// k..m-1 the basic slacks in row order.
	m := nEq + nUb
	s.varAt = growInt(s.varAt, m)
	s.posOf = growInt(s.posOf, n+nUb)
	for j := range s.posOf {
		s.posOf[j] = -1
	}
	for b, j := range s.basicStruct {
		s.varAt[b] = j
		s.posOf[j] = b
	}
	s.inactiveRows = s.inactiveRows[:0]
	for i, t := 0, 0; i < nUb; i++ {
		if s.status[n+i] == stBasic {
			s.inactiveRows = append(s.inactiveRows, nEq+i)
			s.varAt[k+t] = n + i
			s.posOf[n+i] = k + t
			t++
		}
	}
	s.etaPos = s.etaPos[:0]
	s.etaBuf = s.etaBuf[:0]
	s.stats.Refactorizations++
	// Devex reference framework restart: the weights approximate dual
	// steepest-edge norms relative to the factorization they were
	// accumulated against, so every refactorization re-references them at 1.
	s.dw = growF(s.dw, m)
	for i := range s.dw {
		s.dw[i] = 1
	}

	// Contiguous gather of the basic structural columns over the inactive
	// rows: the ftran/btran inactive-row sweeps run Dot/Axpy kernels on
	// these k-vectors instead of indexed gathers through the row views.
	nIn := len(s.inactiveRows)
	s.abasic = growF(s.abasic, nIn*k)
	for t, r := range s.inactiveRows {
		rv := s.rowView(p, r)
		row := s.abasic[t*k : (t+1)*k]
		for b, j := range s.basicStruct {
			row[b] = rv[j]
		}
	}

	s.w.ReuseAs(k, k)
	wd := s.w.RawData()
	for a, r := range s.activeRows {
		rv := s.rowView(p, r)
		row := wd[a*k : (a+1)*k]
		for b, j := range s.basicStruct {
			row[b] = rv[j]
		}
	}
	if k == 0 {
		return nil
	}
	return s.lu.Reset(&s.w)
}

// refresh refactors the working matrix from the current statuses and
// re-derives primal values and reduced costs from scratch, collapsing any
// accumulated eta file together with its drift.
func (s *RevisedSolver) refresh(p *Problem) error {
	if err := s.factorBasis(p); err != nil {
		return err
	}
	s.computeX(p)
	s.computeDualsAndReducedCosts(p)
	s.fresh = true
	return nil
}

// computeX sets every variable's value from the statuses: nonbasic at
// bounds, basic structurals from the working-matrix solve, basic slacks
// from their row residuals.
func (s *RevisedSolver) computeX(p *Problem) {
	n, nUb := s.sigN, s.sigUb
	for j := 0; j < n+nUb; j++ {
		switch s.status[j] {
		case stLower:
			s.x[j] = s.lo[j]
		case stUpper:
			s.x[j] = s.up[j]
		}
	}
	k := len(s.activeRows)
	s.rhs = growF(s.rhs, k)
	s.sol = growF(s.sol, k)
	for a, r := range s.activeRows {
		rv := s.rowView(p, r)
		sum := s.rowRHS(p, r)
		for j := 0; j < n; j++ {
			if !s.isBasicCol[j] {
				sum -= rv[j] * s.x[j]
			}
		}
		s.rhs[a] = sum
	}
	if k > 0 {
		s.lu.SolveInto(s.sol, s.rhs)
		for b, j := range s.basicStruct {
			s.x[j] = s.sol[b]
		}
	}
	for i := 0; i < nUb; i++ {
		if s.status[n+i] != stBasic {
			continue
		}
		rv := p.Aub.RowView(i)
		sum := p.Bub[i]
		for j := 0; j < n; j++ {
			sum -= rv[j] * s.x[j]
		}
		s.x[n+i] = sum
	}
}

// computeDualsAndReducedCosts solves Wᵀy = c_B for the active-row duals
// and prices every column: d = c − yᵀA (zero dual on inactive rows).
func (s *RevisedSolver) computeDualsAndReducedCosts(p *Problem) {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	k := len(s.activeRows)
	s.yAct = growF(s.yAct, k)
	s.rhs = growF(s.rhs, k)
	for b, j := range s.basicStruct {
		s.rhs[b] = s.c[j]
	}
	if k > 0 {
		s.lu.SolveTransposeInto(s.yAct, s.rhs)
	}
	copy(s.d[:n], s.c[:n])
	for i := 0; i < nUb; i++ {
		s.d[n+i] = 0
	}
	for a, r := range s.activeRows {
		y := s.yAct[a]
		if y != 0 {
			mat.AxpyVec(-y, s.rowView(p, r), s.d[:n])
		}
		if r >= nEq {
			s.d[n+(r-nEq)] = -y
		}
	}
}

// flipToDualFeasible flips nonbasic variables with wrong-signed reduced
// costs to their opposite bound, making the basis dual feasible without
// changing the basis matrix (flips only move nonbasic values, so the
// factorization and the reduced costs stay exact). Returns false when a
// wrong-signed variable has no finite opposite bound to flip to; statuses
// may then be partially flipped, which is fine — every failure path
// discards the warm state and re-derives it cold.
func (s *RevisedSolver) flipToDualFeasible() bool {
	for j, st := range s.status[:s.sigN+s.sigUb] {
		if s.up[j] <= s.lo[j] {
			continue // fixed variable: any sign is optimal
		}
		switch st {
		case stLower:
			if s.d[j] < -s.dtol {
				if math.IsInf(s.up[j], 1) {
					return false
				}
				s.status[j] = stUpper
			}
		case stUpper:
			if s.d[j] > s.dtol {
				if math.IsInf(s.lo[j], -1) {
					return false
				}
				s.status[j] = stLower
			}
		}
	}
	return true
}

// primalFeasible reports whether every basic variable is inside its
// bounds (nonbasic variables sit on a bound by construction).
func (s *RevisedSolver) primalFeasible() bool {
	for j, st := range s.status[:s.sigN+s.sigUb] {
		if st != stBasic {
			continue
		}
		if s.x[j] < s.lo[j]-s.ptol || s.x[j] > s.up[j]+s.ptol {
			return false
		}
	}
	return true
}

// dualFeasible reports whether the reduced costs certify the current
// basis: nonnegative at lower bounds, nonpositive at upper bounds.
func (s *RevisedSolver) dualFeasible() bool {
	for j, st := range s.status[:s.sigN+s.sigUb] {
		switch st {
		case stLower:
			if s.d[j] < -s.dtol && s.up[j] > s.lo[j] {
				return false
			}
		case stUpper:
			if s.d[j] > s.dtol && s.up[j] > s.lo[j] {
				return false
			}
		}
	}
	return true
}

// ftran computes w = B⁻¹·a_q over basis positions for column q. The frozen
// factorization handles the B₀ part — the LU solves the active rows and the
// frozen-basic slack positions are row residuals — and the eta file is then
// applied in pivot order (E_i⁻¹ touches only its pivot position's multiple
// of the stored column).
func (s *RevisedSolver) ftran(p *Problem, q int) []float64 {
	n, nEq := s.sigN, s.sigEq
	k := len(s.activeRows)
	m := s.sigEq + s.sigUb
	s.colAct = growF(s.colAct, k)
	s.sol = growF(s.sol, k)
	if q < n {
		for a, r := range s.activeRows {
			s.colAct[a] = s.rowView(p, r)[q]
		}
	} else {
		// Slack column: unit vector on its row.
		row := nEq + (q - n)
		for a := range s.colAct {
			s.colAct[a] = 0
		}
		for a, r := range s.activeRows {
			if r == row {
				s.colAct[a] = 1
				break
			}
		}
	}
	if k > 0 {
		s.lu.SolveInto(s.sol, s.colAct)
	}
	s.col = growF(s.col, m)
	copy(s.col, s.sol[:k])
	for t, r := range s.inactiveRows {
		var v float64
		if q < n {
			v = s.rowView(p, r)[q]
		} else if r == nEq+(q-n) {
			v = 1
		}
		v -= mat.Dot(s.abasic[t*k:(t+1)*k], s.sol[:k])
		s.col[k+t] = v
	}
	for t, pp := range s.etaPos {
		e := s.etaBuf[t*m : (t+1)*m]
		wp := s.col[pp] / e[pp]
		if wp != 0 {
			for i := 0; i < m; i++ {
				if i != pp {
					s.col[i] -= e[i] * wp
				}
			}
		}
		s.col[pp] = wp
	}
	return s.col
}

// btranUnit computes π = B⁻ᵀ·e_pos over the stacked rows: the eta file's
// transposed solves run in reverse pivot order on the position vector, then
// the frozen B₀ᵀ turns positions into row duals — frozen-basic slack rows
// read their position directly, the active rows go through the transposed
// LU after eliminating the slack-row contributions of the basic structural
// columns.
func (s *RevisedSolver) btranUnit(p *Problem, pos int) []float64 {
	k := len(s.activeRows)
	m := s.sigEq + s.sigUb
	s.posv = growF(s.posv, m)
	for i := range s.posv {
		s.posv[i] = 0
	}
	s.posv[pos] = 1
	for t := len(s.etaPos) - 1; t >= 0; t-- {
		pp := s.etaPos[t]
		e := s.etaBuf[t*m : (t+1)*m]
		var sum float64
		for j := 0; j < m; j++ {
			if j != pp {
				sum += e[j] * s.posv[j]
			}
		}
		s.posv[pp] = (s.posv[pp] - sum) / e[pp]
	}
	s.pi = growF(s.pi, m)
	for i := range s.pi {
		s.pi[i] = 0
	}
	for t, r := range s.inactiveRows {
		s.pi[r] = s.posv[k+t]
	}
	if k > 0 {
		s.rhs = growF(s.rhs, k)
		copy(s.rhs, s.posv[:k])
		for t := range s.inactiveRows {
			pr := s.posv[k+t]
			if pr == 0 {
				continue
			}
			mat.AxpyVec(-pr, s.abasic[t*k:(t+1)*k], s.rhs[:k])
		}
		s.yAct = growF(s.yAct, k)
		s.lu.SolveTransposeInto(s.yAct, s.rhs)
		for a, r := range s.activeRows {
			s.pi[r] = s.yAct[a]
		}
	}
	return s.pi
}

// priceAlpha fills s.alpha with α_j = πᵀ·A[:,j] for every column from the
// row duals π: structural columns accumulate over the rows with nonzero
// dual, slack columns read their row's dual directly.
func (s *RevisedSolver) priceAlpha(p *Problem, pi []float64) {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	s.alpha = growF(s.alpha, n+nUb)
	for j := 0; j < n; j++ {
		s.alpha[j] = 0
	}
	for r := 0; r < nEq+nUb; r++ {
		if pi[r] != 0 {
			mat.AxpyVec(pi[r], s.rowView(p, r), s.alpha[:n])
		}
	}
	for i := 0; i < nUb; i++ {
		s.alpha[n+i] = pi[nEq+i]
	}
}

// etaSpike reports whether the basis exchange at position pos is too
// ill-conditioned to absorb as an eta update: product-form solves divide by
// w[pos], so a pivot element far below the transformed column's magnitude
// (or below absolute noise) would amplify drift through every later solve.
func etaSpike(w []float64, pos int) bool {
	wp := math.Abs(w[pos])
	if wp < spikeAbs {
		return true
	}
	var max float64
	for _, v := range w {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return wp < spikeRel*max
}

// pivotUpdate applies the basis exchange enter↔(leave at position pos)
// without refactorizing: primal values move along w = B⁻¹·a_enter by delta
// (the entering variable's signed step off its bound), reduced costs by the
// standard pivot-row update through ρ = B⁻ᵀ·e_pos, and w joins the eta
// file. The caller has already chosen the exchange and cleared the spike
// check; the update collapses into a refactorization when the eta cap is
// reached.
func (s *RevisedSolver) pivotUpdate(p *Problem, enter, leave, pos int, w []float64, delta float64, leaveAtUpper bool) error {
	m := s.sigEq + s.sigUb
	if delta != 0 {
		for b := 0; b < m; b++ {
			if v := w[b]; v != 0 {
				s.x[s.varAt[b]] -= delta * v
			}
		}
	}
	s.x[enter] += delta
	if leaveAtUpper {
		s.x[leave] = s.up[leave]
	} else {
		s.x[leave] = s.lo[leave]
	}

	// ρ is taken against the pre-exchange basis, so it must precede the
	// eta append; the status swap follows the dual update so that the loop
	// below skips exactly the pre-exchange basic columns.
	pi := s.btranUnit(p, pos)
	s.priceAlpha(p, pi)
	rate := s.d[enter] / w[pos]
	if rate != 0 {
		nTot := s.sigN + s.sigUb
		for j := 0; j < nTot; j++ {
			if s.status[j] != stBasic && j != enter {
				s.d[j] -= rate * s.alpha[j]
			}
		}
	}
	s.d[leave] = -rate
	s.d[enter] = 0

	s.status[enter] = stBasic
	if leaveAtUpper {
		s.status[leave] = stUpper
	} else {
		s.status[leave] = stLower
	}
	s.varAt[pos] = enter
	s.posOf[enter] = pos
	s.posOf[leave] = -1
	s.etaPos = append(s.etaPos, pos)
	s.etaBuf = append(s.etaBuf, w...)
	s.stats.EtaUpdates++
	s.fresh = false
	if len(s.etaPos) >= s.effMaxUpdates() {
		return s.refresh(p)
	}
	return nil
}

// primalLoop runs bounded-variable primal simplex pivots (Bland's rule)
// from a primal-feasible basis until optimality. Basis exchanges are
// absorbed by product-form eta updates (pivotUpdate) instead of per-pivot
// refactorizations; the working matrix refactors only when the eta cap or
// the spike monitor demands it, and always once more before optimality is
// accepted, so a nil return means the statuses describe an optimal basis
// with s.x/s.d freshly re-derived for it — eta drift can steer the pivot
// path, never the answer.
func (s *RevisedSolver) primalLoop(p *Problem) error {
	nTot := s.sigN + s.sigUb
	m := s.sigEq + s.sigUb
	for iter := 0; iter < warmMaxIter; iter++ {
		// Entering variable: Bland's smallest index with an improving
		// reduced cost. Fixed variables (lo == up) cannot move.
		enter := -1
		var sigma float64
		for j := 0; j < nTot; j++ {
			switch s.status[j] {
			case stLower:
				if s.d[j] < -s.dtol && s.up[j] > s.lo[j] {
					enter, sigma = j, 1
				}
			case stUpper:
				if s.d[j] > s.dtol && s.up[j] > s.lo[j] {
					enter, sigma = j, -1
				}
			}
			if enter >= 0 {
				break
			}
		}
		if enter < 0 {
			if s.fresh {
				return nil // optimal, on exactly re-derived numbers
			}
			if err := s.refresh(p); err != nil {
				return err
			}
			continue
		}
		w := s.ftran(p, enter)

		// Ratio test: the entering variable moves by t >= 0 toward its
		// opposite bound; basic variables move at rate -sigma * w.
		tBest := s.up[enter] - s.lo[enter] // own-range bound flip, may be +Inf
		leave, leaveAtUpper := -1, false
		consider := func(j int, rate float64) {
			var ratio float64
			var hitsUpper bool
			switch {
			case rate < -pivotTol:
				if math.IsInf(s.lo[j], -1) {
					return
				}
				ratio = (s.x[j] - s.lo[j]) / -rate
			case rate > pivotTol:
				if math.IsInf(s.up[j], 1) {
					return
				}
				ratio = (s.up[j] - s.x[j]) / rate
				hitsUpper = true
			default:
				return
			}
			if ratio < 0 {
				ratio = 0 // degenerate overshoot from roundoff
			}
			if ratio < tBest-ratioTie || (ratio <= tBest+ratioTie && (leave == -1 || j < leave)) {
				tBest = ratio
				leave = j
				leaveAtUpper = hitsUpper
			}
		}
		for b := 0; b < m; b++ {
			consider(s.varAt[b], -sigma*w[b])
		}
		if math.IsInf(tBest, 1) {
			return ErrUnbounded
		}
		if leave < 0 {
			// Bound flip: the entering variable crosses its own range
			// before any basic variable blocks. No basis change — the
			// primal values just shift along w.
			s.stats.PrimalPivots++
			for b := 0; b < m; b++ {
				if v := w[b]; v != 0 {
					s.x[s.varAt[b]] -= sigma * tBest * v
				}
			}
			if s.status[enter] == stLower {
				s.status[enter] = stUpper
				s.x[enter] = s.up[enter]
			} else {
				s.status[enter] = stLower
				s.x[enter] = s.lo[enter]
			}
			s.fresh = false
			continue
		}
		pos := s.posOf[leave]
		if pos < 0 {
			return ErrMaxIterations
		}
		if s.effMaxUpdates() == 0 || etaSpike(w, pos) {
			if len(s.etaPos) > 0 {
				// Spike under an accumulated eta file: retry the iteration
				// on a fresh factorization before committing to anything —
				// most spikes are artifacts of update drift.
				if err := s.refresh(p); err != nil {
					return err
				}
				continue
			}
			// Fresh-basis spike (or updates disabled): exchange, then
			// refactor — the reference per-pivot path.
			s.stats.PrimalPivots++
			s.status[enter] = stBasic
			if leaveAtUpper {
				s.status[leave] = stUpper
			} else {
				s.status[leave] = stLower
			}
			if err := s.refresh(p); err != nil {
				return err
			}
			continue
		}
		s.stats.PrimalPivots++
		if err := s.pivotUpdate(p, enter, leave, pos, w, sigma*tBest, leaveAtUpper); err != nil {
			return err
		}
	}
	return ErrMaxIterations
}

// dualLoop runs bounded-variable dual simplex pivots from a dual-feasible
// basis until primal feasibility — the recovery path when a perturbed
// candidate makes the previous optimal basis primal infeasible. Exchanges
// go through the same eta-update machinery as the primal loop (the uniform
// π = B⁻ᵀ·e_pos row direction replaces the old active-row special-casing),
// and feasibility — like primal optimality — is only accepted on freshly
// re-derived numbers: a nil return means s.x is primal feasible for the
// current statuses, exactly recomputed.
func (s *RevisedSolver) dualLoop(p *Problem) error {
	nTot := s.sigN + s.sigUb
	m := s.sigEq + s.sigUb
	for iter := 0; iter < warmMaxIter; iter++ {
		// Past half the iteration budget the loop abandons Devex for
		// Bland's rule — the anti-cycling guarantee the weighted pricing
		// lacks. The selection rule only steers the pivot path; the answer
		// is still accepted only on freshly re-derived numbers.
		bland := s.bland || iter >= warmMaxIter/2

		// Leaving variable.
		leave := -1
		var belowLower bool
		var viol float64
		if bland {
			// Historical rule: smallest-index basic variable outside its
			// bounds (Bland-style anti-cycling for the dual method).
			for j := 0; j < nTot; j++ {
				if s.status[j] != stBasic {
					continue
				}
				if s.x[j] < s.lo[j]-s.ptol {
					leave, belowLower, viol = j, true, s.lo[j]-s.x[j]
					break
				}
				if s.x[j] > s.up[j]+s.ptol {
					leave, belowLower, viol = j, false, s.x[j]-s.up[j]
					break
				}
			}
		} else {
			// Devex: the row maximizing violation²/β, with a deterministic
			// smallest-variable tie-break.
			best := 0.0
			for b := 0; b < m; b++ {
				j := s.varAt[b]
				var v float64
				var bl bool
				switch {
				case s.x[j] < s.lo[j]-s.ptol:
					v, bl = s.lo[j]-s.x[j], true
				case s.x[j] > s.up[j]+s.ptol:
					v, bl = s.x[j]-s.up[j], false
				default:
					continue
				}
				score := v * v / s.dw[b]
				if leave < 0 || score > best || (score == best && j < leave) {
					best, leave, belowLower, viol = score, j, bl, v
				}
			}
		}
		if leave < 0 {
			if s.fresh {
				return nil // primal feasible, on exactly re-derived numbers
			}
			if err := s.refresh(p); err != nil {
				return err
			}
			continue
		}
		pos := s.posOf[leave]
		if pos < 0 {
			return ErrMaxIterations
		}

		// Row direction and pricing: alpha_j = pi . A[:, j] with
		// pi = B^-T e_pos through the eta file.
		pi := s.btranUnit(p, pos)
		s.priceAlpha(p, pi)

		// Entering candidates: sign-eligible nonbasic columns with their
		// dual ratios |d|/|alpha|.
		s.cands = s.cands[:0]
		for j := 0; j < nTot; j++ {
			st := s.status[j]
			if st == stBasic || s.up[j] <= s.lo[j] {
				continue
			}
			a := s.alpha[j]
			if math.Abs(a) <= pivotTol {
				continue
			}
			// x_leave changes by -alpha_j * dx_j; pick directions that
			// push it back toward the violated bound.
			var elig bool
			if belowLower {
				elig = (st == stLower && a < 0) || (st == stUpper && a > 0)
			} else {
				elig = (st == stLower && a > 0) || (st == stUpper && a < 0)
			}
			if !elig {
				continue
			}
			dj := s.d[j]
			// Clamp tiny wrong-signed reduced costs (inside the dual
			// tolerance) to zero so the ratio stays nonnegative.
			if st == stLower && dj < 0 {
				dj = 0
			}
			if st == stUpper && dj > 0 {
				dj = 0
			}
			s.cands = append(s.cands, dualCand{j: j, ratio: math.Abs(dj) / math.Abs(a)})
		}
		if len(s.cands) == 0 {
			if !s.fresh {
				// The violation may be an artifact of eta drift: re-derive
				// exactly before declaring the problem infeasible.
				if err := s.refresh(p); err != nil {
					return err
				}
				continue
			}
			// No column can repair the violated row: primal infeasible.
			// Bank the dual ray as a recyclable certificate before
			// reporting, indexed by its structural cause — the violated
			// basic variable and direction (see prescreen.go).
			s.captureRay(p, farkasCause{leave: leave, belowLower: belowLower})
			return ErrInfeasible
		}
		enter := -1
		s.flips = s.flips[:0]
		if bland {
			// Historical entering rule: smallest ratio with Bland
			// tie-breaking, no bound flips.
			best := math.Inf(1)
			for _, c := range s.cands {
				if c.ratio < best-ratioTie || (c.ratio <= best+ratioTie && (enter == -1 || c.j < enter)) {
					best, enter = c.ratio, c.j
				}
			}
		} else {
			// Bound-flipping ratio test: walk the breakpoints in dual-step
			// order. Passing a boxed candidate's breakpoint flips it to the
			// opposite bound (its reduced cost changes sign there, so the
			// flip keeps dual feasibility) and reduces the improvement slope
			// — the leaving variable's remaining violation — by |α|·range.
			// The entering column is the breakpoint at which the slope would
			// be exhausted, or the first candidate with no finite opposite
			// bound to flip to. One long dual step absorbs every flipped
			// breakpoint into a single basis exchange.
			sort.Slice(s.cands, func(a, b int) bool {
				ca, cb := s.cands[a], s.cands[b]
				return ca.ratio < cb.ratio || (ca.ratio == cb.ratio && ca.j < cb.j)
			})
			slope := viol
			for _, c := range s.cands {
				rng := s.up[c.j] - s.lo[c.j]
				if math.IsInf(rng, 1) {
					enter = c.j
					break
				}
				dec := math.Abs(s.alpha[c.j]) * rng
				if slope-dec <= s.ptol {
					enter = c.j
					break
				}
				slope -= dec
				s.flips = append(s.flips, c.j)
			}
			if enter < 0 {
				// Every candidate is a flippable breakpoint and the slope
				// never exhausts. Enter at the last breakpoint instead of
				// inventing an unbounded dual ray — infeasibility verdicts
				// stay with the fresh-basis Farkas branch above.
				enter = s.flips[len(s.flips)-1]
				s.flips = s.flips[:len(s.flips)-1]
			}
			if len(s.flips) > 0 {
				s.applyFlips(p)
			}
		}
		w := s.ftran(p, enter)
		if s.effMaxUpdates() == 0 || etaSpike(w, pos) {
			if len(s.etaPos) > 0 {
				if err := s.refresh(p); err != nil {
					return err
				}
				continue
			}
			s.stats.DualPivots++
			if !bland {
				s.stats.SEPivots++
			}
			s.status[enter] = stBasic
			if belowLower {
				s.status[leave] = stLower
			} else {
				s.status[leave] = stUpper
			}
			if err := s.refresh(p); err != nil {
				return err
			}
			continue
		}
		var bound float64
		if belowLower {
			bound = s.lo[leave]
		} else {
			bound = s.up[leave]
		}
		delta := (s.x[leave] - bound) / w[pos]
		s.stats.DualPivots++
		if !bland {
			s.stats.SEPivots++
			s.devexUpdate(w, pos, m)
		}
		if err := s.pivotUpdate(p, enter, leave, pos, w, delta, !belowLower); err != nil {
			return err
		}
	}
	return ErrMaxIterations
}

// devexUpdate propagates the Devex reference weights through the basis
// exchange at position pos with transformed column w (taken against the
// pre-exchange basis): every touched position's weight rises to at least
// its steepest-edge estimate through the pivot, and the pivot position
// restarts from the reference floor of 1. Weights only steer leaving-row
// selection, so approximation error here costs pivots, never correctness.
func (s *RevisedSolver) devexUpdate(w []float64, pos, m int) {
	wp := w[pos]
	bp := s.dw[pos]
	for i := 0; i < m; i++ {
		if i == pos || w[i] == 0 {
			continue
		}
		r := w[i] / wp
		if cand := r * r * bp; cand > s.dw[i] {
			s.dw[i] = cand
		}
	}
	if d := bp / (wp * wp); d > 1 {
		s.dw[pos] = d
	} else {
		s.dw[pos] = 1
	}
}

// applyFlips moves every variable in s.flips to its opposite bound and
// repairs the basic values with one combined ftran: Δx_B = −B⁻¹·A_F·Δx_F,
// where the flipped columns' deltas are accumulated into a single stacked-row
// vector first. Flips never touch the basis matrix or the reduced costs —
// only primal values move.
func (s *RevisedSolver) applyFlips(p *Problem) {
	n, nEq := s.sigN, s.sigEq
	m := s.sigEq + s.sigUb
	s.flipCol = growF(s.flipCol, m)
	for i := range s.flipCol {
		s.flipCol[i] = 0
	}
	for _, j := range s.flips {
		var dx float64
		if s.status[j] == stLower {
			dx = s.up[j] - s.lo[j]
			s.status[j] = stUpper
			s.x[j] = s.up[j]
		} else {
			dx = s.lo[j] - s.up[j]
			s.status[j] = stLower
			s.x[j] = s.lo[j]
		}
		if j < n {
			for r := 0; r < m; r++ {
				if v := s.rowView(p, r)[j]; v != 0 {
					s.flipCol[r] += dx * v
				}
			}
		} else {
			s.flipCol[nEq+(j-n)] += dx
		}
	}
	s.stats.BoundFlips += len(s.flips)
	wf := s.ftranRows(p, s.flipCol)
	for b := 0; b < m; b++ {
		if v := wf[b]; v != 0 {
			s.x[s.varAt[b]] -= v
		}
	}
	s.fresh = false
}

// ftranRows is ftran for an arbitrary stacked-row vector instead of a
// single constraint column: it computes B⁻¹·col over basis positions
// through the frozen factorization and the eta file. Used by the
// bound-flipping ratio test to repair the basic values after a batch of
// flips with one solve.
func (s *RevisedSolver) ftranRows(p *Problem, col []float64) []float64 {
	k := len(s.activeRows)
	m := s.sigEq + s.sigUb
	s.colAct = growF(s.colAct, k)
	s.sol = growF(s.sol, k)
	for a, r := range s.activeRows {
		s.colAct[a] = col[r]
	}
	if k > 0 {
		s.lu.SolveInto(s.sol, s.colAct)
	}
	s.fcol = growF(s.fcol, m)
	copy(s.fcol, s.sol[:k])
	for t, r := range s.inactiveRows {
		s.fcol[k+t] = col[r] - mat.Dot(s.abasic[t*k:(t+1)*k], s.sol[:k])
	}
	for t, pp := range s.etaPos {
		e := s.etaBuf[t*m : (t+1)*m]
		wp := s.fcol[pp] / e[pp]
		if wp != 0 {
			for i := 0; i < m; i++ {
				if i != pp {
					s.fcol[i] -= e[i] * wp
				}
			}
		}
		s.fcol[pp] = wp
	}
	return s.fcol
}

// verify checks the warm result against the original problem: bounds and
// rows within the scale-aware primal tolerance, and the reduced-cost
// optimality certificate within the dual tolerance. It is the exact
// feasibility/optimality cross-check gating every warm answer; failure
// sends the solve to the flat tableau solver.
func (s *RevisedSolver) verify(p *Problem) bool {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	for j := 0; j < n; j++ {
		if s.x[j] < s.lo[j]-s.ptol || s.x[j] > s.up[j]+s.ptol {
			return false
		}
	}
	for r := 0; r < nEq; r++ {
		rv := p.Aeq.RowView(r)
		var sum, scale float64
		for j := 0; j < n; j++ {
			v := rv[j] * s.x[j]
			sum += v
			scale += math.Abs(v)
		}
		if math.Abs(sum-p.Beq[r]) > feasTol*(1+scale+math.Abs(p.Beq[r])) {
			return false
		}
	}
	for r := 0; r < nUb; r++ {
		rv := p.Aub.RowView(r)
		var sum, scale float64
		for j := 0; j < n; j++ {
			v := rv[j] * s.x[j]
			sum += v
			scale += math.Abs(v)
		}
		if sum > p.Bub[r]+feasTol*(1+scale+math.Abs(p.Bub[r])) {
			return false
		}
	}
	return s.dualFeasible()
}

// growI8 is growF for status slices.
func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

// growInt is growF for index slices.
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
