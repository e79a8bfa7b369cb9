package subspace

import (
	"errors"
	"math"
	"math/rand"

	"gridmtd/internal/mat"
)

// The sketch backend never forms an orthonormal basis. It exploits the
// structural factorization of the measurement matrix: in the reduced
// γ-equivalent representation every candidate column matrix is
//
//	B(x) = Ĉ · D(x) · E,   Ĉ = [A; √2·I] fixed,  E = Ãᵀ fixed,
//	                        D(x) = diag(1/x_l),
//
// so every inner product between candidate columns is a quadratic form in
// the sparse, topology-fixed Gram kernel G = ĈᵀĈ = AᵀA + 2I:
//
//	B(x₁)ᵀB(x₂) = Eᵀ·D₁·G·D₂·E.
//
// These k×k Gram matrices (k = N−1) share one sparsity pattern — the 2-hop
// bus adjacency — and revalue in O(nnz(G)) per candidate. Orthonormal bases
// then exist implicitly through sparse Cholesky factors: with
// P·M₂₂·Pᵀ = L₂·L₂ᵀ the matrix Q₂ = B₂·P₂ᵀ·L₂⁻ᵀ has orthonormal columns,
// and the cross operator whose smallest singular value is cos γ is
//
//	W = Q₁ᵀQ₂ = L₁⁻¹·P₁·M₁₂·P₂ᵀ·L₂⁻ᵀ,
//
// applied matrix-free via two triangular half-solves and one sparse
// matvec. sin²γ = λ_max(I − WᵀW) is extracted by a Lanczos iteration from
// a seeded random start vector — the randomized part of the sketch, which
// makes every evaluation deterministic per seed regardless of evaluation
// order or worker count.
//
// Error contract: the Gram route squares the candidate matrix's
// conditioning (the classic CholeskyQR tradeoff) and the Lanczos value
// approaches λ_max from below, so γ values agree with the exact evaluator
// only to the documented sketch bound (PERF.md; the property tests pin
// |γ_sketch − γ_exact| ≤ 1e-6·max(1, γ_exact) across the registered
// cases). Evaluations that cannot honor the bound — a candidate Gram
// matrix that fails the Cholesky (rank within roundoff of deficiency), a
// sketched σ_min within RankCutoff of the rank boundary, or a
// non-converged iteration — report ok=false so the caller falls back to
// the exact evaluator.

// SketchConfig tunes a SketchEvaluator.
type SketchConfig struct {
	// Seed drives the Lanczos start vectors. Every evaluation derives its
	// randomness from the seed alone, so results are identical across runs
	// and worker counts.
	Seed int64
	// RankCutoff is the σ_min (= cos γ) level below which the sketch
	// refuses the evaluation and requests the exact fallback: near the rank
	// boundary the squared-Gram route cannot certify the documented bound
	// (default 1e-6).
	RankCutoff float64
	// MaxIter caps the Lanczos iterations (default min(k, 160)); hitting
	// the cap reports ok=false.
	MaxIter int
}

func (c SketchConfig) withDefaults(k int) SketchConfig {
	if c.RankCutoff <= 0 {
		c.RankCutoff = 1e-6
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 160
	}
	if c.MaxIter > k {
		c.MaxIter = k
	}
	return c
}

// sketchContrib scatters one Gram-kernel entry into the candidate Gram
// pattern: M[slot] += coeff · d1[l] · d2[m].
type sketchContrib struct {
	slot  int
	l, m  int32
	coeff float64
}

// SketchEvaluator evaluates γ(old, candidate) through the sparse-Gram
// Cholesky route described above. The evaluator itself is immutable after
// construction (pattern, contribution list, the old side's factor);
// numeric per-candidate state lives in SketchSessions, one per goroutine.
type SketchEvaluator struct {
	k        int
	dim      int // number of diagonal entries (branches)
	cfg      SketchConfig
	contribs []sketchContrib
	pattern  *mat.CSC // k×k candidate Gram pattern, zero values
	dOld     []float64
	chol1    *SparseCholRef
}

// SparseCholRef wraps the immutable old-side factorization so sessions can
// clone it without redoing the symbolic analysis.
type SparseCholRef struct{ c *mat.SparseChol }

// NewSketchEvaluator builds the sketch evaluator for a fixed old side.
// et is Eᵀ in CSC form (k×L: column l holds the ±1 entries of the reduced
// incidence row of branch l), g the L×L Gram kernel ĈᵀĈ, and dOld the old
// side's diagonal (1/x_l). The construction fails if the old side's Gram
// matrix is not numerically positive definite (a rank-deficient old
// configuration), in which case callers should stay on the exact
// evaluator.
func NewSketchEvaluator(et, g *mat.CSC, dOld []float64, cfg SketchConfig) (*SketchEvaluator, error) {
	buildCounts.sketches.Add(1)
	k, l := et.Rows(), et.Cols()
	if g.Rows() != l || g.Cols() != l || len(dOld) != l {
		return nil, errors.New("subspace: sketch operand shapes disagree")
	}
	e := &SketchEvaluator{k: k, dim: l, cfg: cfg.withDefaults(k), dOld: append([]float64(nil), dOld...)}

	// Candidate Gram pattern and contribution list. Each kernel entry
	// (l, m) meets ≤ 2 incidence entries per side, so the list holds at
	// most 4·nnz(G) records; the pattern is the 2-hop bus adjacency.
	etPtr, etIdx, etVal := cscParts(et)
	gPtr, gIdx, gVal := cscParts(g)
	var is, js []int
	for m := 0; m < l; m++ {
		for p := gPtr[m]; p < gPtr[m+1]; p++ {
			lrow := gIdx[p]
			for p1 := etPtr[lrow]; p1 < etPtr[lrow+1]; p1++ {
				for p2 := etPtr[m]; p2 < etPtr[m+1]; p2++ {
					is = append(is, etIdx[p1])
					js = append(js, etIdx[p2])
				}
			}
		}
	}
	e.pattern = mat.NewCSCFromTriplets(k, k, is, js, make([]float64, len(is)))
	for m := 0; m < l; m++ {
		for p := gPtr[m]; p < gPtr[m+1]; p++ {
			lrow := gIdx[p]
			gv := gVal[p]
			for p1 := etPtr[lrow]; p1 < etPtr[lrow+1]; p1++ {
				for p2 := etPtr[m]; p2 < etPtr[m+1]; p2++ {
					slot := e.pattern.Pos(etIdx[p1], etIdx[p2])
					e.contribs = append(e.contribs, sketchContrib{
						slot:  slot,
						l:     int32(lrow),
						m:     int32(m),
						coeff: etVal[p1] * etVal[p2] * gv,
					})
				}
			}
		}
	}

	m11 := e.pattern.Clone()
	e.revalue(m11, e.dOld, e.dOld)
	chol, err := mat.NewSparseChol(m11)
	if err != nil {
		return nil, err
	}
	e.chol1 = &SparseCholRef{c: chol}
	return e, nil
}

// Dim returns the subspace dimension k the evaluator compares at.
func (e *SketchEvaluator) Dim() int { return e.k }

// revalue fills dst (a clone of the candidate Gram pattern) with
// Eᵀ·D₁·G·D₂·E.
func (e *SketchEvaluator) revalue(dst *mat.CSC, d1, d2 []float64) {
	vals := dst.Values()
	for i := range vals {
		vals[i] = 0
	}
	for _, c := range e.contribs {
		vals[c.slot] += c.coeff * d1[c.l] * d2[c.m]
	}
}

// cscParts exposes a CSC's internals for the pattern construction.
func cscParts(m *mat.CSC) (colPtr, rowIdx []int, values []float64) {
	return m.ColPtr(), m.RowIdx(), m.Values()
}

// SketchSession is a single-goroutine evaluation state: its own clones of
// the Cholesky factors, the candidate Gram values and the Lanczos buffers.
//
// A session can optionally carry the previous candidate's top Ritz vector
// as the next evaluation's Lanczos start (CarryWarmStarts). Local-search
// candidates are tiny perturbations of each other, so the dominant
// eigenvector of I − WᵀW barely moves between evaluations and the carried
// start converges in a fraction of the cold iteration count. Carrying makes
// a γ value depend on the session's evaluation history, so it is strictly
// opt-in: callers must evaluate a deterministic candidate sequence per
// session and call ResetWarmStart at every sequence boundary (each
// local-search start) — that is what keeps seed determinism and
// worker-count invariance intact. Pooled evaluations never carry.
type SketchSession struct {
	e                 *SketchEvaluator
	chol1, chol2      *mat.SparseChol
	m12, m22          *mat.CSC
	t1, t2, t3, t4, w []float64
	vbuf              []float64
	alpha, beta       []float64
	carry             bool
	hasWarm           bool
	warm              []float64 // previous top Ritz vector, length k when hasWarm
	u1, u2            []float64 // inverse-iteration scratch, tridiagonal order
}

// CarryWarmStarts enables Ritz-vector carrying for this session. See the
// type comment for the determinism obligations this places on the caller.
func (s *SketchSession) CarryWarmStarts() { s.carry = true }

// ResetWarmStart discards any carried Ritz vector, so the next evaluation
// starts from the seeded random vector exactly like a fresh session. Called
// at every local-search start to pin worker-count invariance.
func (s *SketchSession) ResetWarmStart() { s.hasWarm = false }

// NewSession returns a fresh session. Sessions are cheap: the symbolic
// Cholesky analysis is shared, only numeric state is copied.
func (e *SketchEvaluator) NewSession() *SketchSession {
	k := e.k
	return &SketchSession{
		e:     e,
		chol1: e.chol1.c.Clone(),
		chol2: e.chol1.c.Clone(),
		m12:   e.pattern.Clone(),
		m22:   e.pattern.Clone(),
		t1:    make([]float64, k),
		t2:    make([]float64, k),
		t3:    make([]float64, k),
		t4:    make([]float64, k),
		w:     make([]float64, k),
	}
}

// Gamma evaluates γ(old, candidate) for the candidate diagonal d (1/x_l).
// ok=false requests the exact fallback (see the error contract above);
// when ok is true the value honors the documented sketch bound.
func (s *SketchSession) Gamma(d []float64) (gamma float64, ok bool) {
	e := s.e
	if len(d) != e.dim {
		panic("subspace: sketch diagonal length mismatch")
	}
	if e.k == 0 {
		return 0, true
	}
	e.revalue(s.m22, d, d)
	if err := s.chol2.Refactor(s.m22); err != nil {
		return 0, false // candidate within roundoff of rank deficiency
	}
	e.revalue(s.m12, e.dOld, d)
	lam, converged := s.lanczosSin2()
	if !converged {
		return 0, false
	}
	if lam < 0 {
		lam = 0
	}
	if lam > 1 {
		lam = 1
	}
	if math.Sqrt(1-lam) < e.cfg.RankCutoff {
		return 0, false // σ_min within tolerance of the rank cutoff
	}
	return math.Asin(math.Sqrt(lam)), true
}

// PrepareCandidate revalues and factors the candidate-side Gram data for
// the diagonal d (1/x_l), readying ResidualSq for a batch of attacks
// against the same candidate. ok=false means the candidate Gram matrix sits
// within roundoff of rank deficiency, in which case callers must take their
// exact path.
func (s *SketchSession) PrepareCandidate(d []float64) bool {
	e := s.e
	if len(d) != e.dim {
		panic("subspace: sketch diagonal length mismatch")
	}
	if e.k == 0 {
		return false
	}
	e.revalue(s.m22, d, d)
	if err := s.chol2.Refactor(s.m22); err != nil {
		return false
	}
	e.revalue(s.m12, e.dOld, d)
	return true
}

// ResidualSq returns the squared state-estimation residual
// ‖(I − Π_new)·a‖² of the stealthy attack a = H_old·c under the prepared
// candidate, where Π_new projects onto Col(H_new). Everything reduces to
// the Gram representation: H_newᵀ·a = M₁₂ᵀ·c and
//
//	‖Π_new·a‖² = (M₁₂ᵀc)ᵀ·M₂₂⁻¹·(M₁₂ᵀc) = ‖L₂⁻¹·P₂·(M₁₂ᵀc)‖²,
//
// so one sparse matvec and one triangular half-solve replace the dense
// QR-based residual. anorm2 is the exact ‖a‖² (candidate-independent, so
// callers precompute it once per attack). The subtraction cancels
// catastrophically when the true residual is near zero — the value guides
// screening only; any decision within a tolerance band of a threshold must
// be re-checked exactly.
func (s *SketchSession) ResidualSq(c []float64, anorm2 float64) float64 {
	s.m12.MulVecTransposeInto(s.t1, c)
	s.chol2.HalfSolveInto(s.t2, s.t1)
	return anorm2 - mat.Norm2SqFast(s.t2)
}

// apply computes dst = v − Wᵀ(W·v) with W applied matrix-free.
func (s *SketchSession) apply(dst, v []float64) {
	s.chol2.HalfSolveTransposeInto(s.t1, v)
	s.m12.MulVecInto(s.t2, s.t1)
	s.chol1.HalfSolveInto(s.t3, s.t2)
	s.chol1.HalfSolveTransposeInto(s.t4, s.t3)
	s.m12.MulVecTransposeInto(s.t1, s.t4)
	s.chol2.HalfSolveInto(s.t2, s.t1)
	for i := range dst {
		dst[i] = v[i] - s.t2[i]
	}
}

// lanczosSin2 runs a fully-reorthogonalized Lanczos iteration on
// B = I − WᵀW and returns the converged Ritz estimate of
// λ_max(B) = sin²γ. The start vector is the carried Ritz vector when the
// session carries one (CarryWarmStarts), else a seeded random draw. The
// Ritz value is monotone over the nested Krylov spaces, so stagnation
// across consecutive iterations is the convergence signal; exhausting the
// subspace dimension is exact by construction.
func (s *SketchSession) lanczosSin2() (float64, bool) {
	e := s.e
	k := e.k
	maxIter := e.cfg.MaxIter
	if cap(s.vbuf) < (maxIter+1)*k {
		s.vbuf = make([]float64, (maxIter+1)*k)
	}
	v := s.vbuf[:(maxIter+1)*k]
	s.alpha = s.alpha[:0]
	s.beta = s.beta[:0]

	v0 := v[:k]
	// A carried Ritz start is already concentrated on the dominant
	// eigenvector, so the stagnation rule may engage almost immediately; the
	// tight stagnation tolerance is what guards against stopping on a poor
	// carried vector (a genuinely bad start keeps making progress and never
	// stagnates early).
	minStagJ := 8
	if s.carry && s.hasWarm {
		copy(v0, s.warm) // already unit-norm
		minStagJ = 2
	} else {
		rng := rand.New(rand.NewSource(e.cfg.Seed))
		for i := range v0 {
			v0[i] = rng.NormFloat64()
		}
		nrm := math.Sqrt(mat.Norm2SqFast(v0))
		if nrm == 0 {
			return 0, false
		}
		for i := range v0 {
			v0[i] /= nrm
		}
	}

	prevLam := -1.0
	stagnant := 0
	for j := 0; j < maxIter; j++ {
		vj := v[j*k : (j+1)*k]
		s.apply(s.w, vj)
		a := mat.DotFast(vj, s.w)
		s.alpha = append(s.alpha, a)
		mat.AxpyFast(-a, vj, s.w)
		if j > 0 {
			mat.AxpyFast(-s.beta[j-1], v[(j-1)*k:j*k], s.w)
		}
		// Full reorthogonalization: k is a few hundred at most, and a clean
		// Krylov basis is what keeps the monotone-Ritz stopping rule honest.
		for i := 0; i <= j; i++ {
			vi := v[i*k : (i+1)*k]
			mat.AxpyFast(-mat.DotFast(vi, s.w), vi, s.w)
		}
		lam := tridiagMaxEig(s.alpha, s.beta)
		if lam < 0 {
			lam = 0
		}
		b := math.Sqrt(mat.Norm2SqFast(s.w))
		if b <= 1e-14 || j+1 >= k {
			// Invariant subspace reached (or the Krylov space is the whole
			// space): the Ritz value is λ_max up to roundoff.
			s.storeRitz(v, lam)
			return lam, true
		}
		if j >= minStagJ {
			if lam-prevLam <= 1e-13+1e-11*lam {
				stagnant++
			} else {
				stagnant = 0
			}
			if stagnant >= 3 {
				s.storeRitz(v, lam)
				return lam, true
			}
		}
		prevLam = lam
		s.beta = append(s.beta, b)
		vnext := v[(j+1)*k : (j+2)*k]
		for i := range vnext {
			vnext[i] = s.w[i] / b
		}
	}
	return 0, false
}

// storeRitz keeps the top Ritz vector y = V·u of the just-converged
// iteration as the next evaluation's warm start: u is the λ_max eigenvector
// of the final tridiagonal, recovered by two rounds of deterministic
// inverse iteration from the all-ones vector. Any numerical degeneracy
// (overflow, a zero direction) simply keeps the previous warm start — the
// carry is an accelerator, never a correctness dependency.
func (s *SketchSession) storeRitz(v []float64, lam float64) {
	if !s.carry {
		return
	}
	k := s.e.k
	j := len(s.alpha)
	if cap(s.u1) < j {
		s.u1 = make([]float64, j)
		s.u2 = make([]float64, j)
	}
	u, diag := s.u1[:j], s.u2[:j]
	for i := range u {
		u[i] = 1
	}
	sigma := lam + 1e-12*(1+math.Abs(lam))
	for it := 0; it < 2; it++ {
		tridiagSolveShifted(s.alpha, s.beta, sigma, u, diag)
		nrm := math.Sqrt(mat.Norm2SqFast(u))
		if nrm == 0 || math.IsInf(nrm, 0) || math.IsNaN(nrm) {
			return
		}
		for i := range u {
			u[i] /= nrm
		}
	}
	if cap(s.warm) < k {
		s.warm = make([]float64, k)
	}
	y := s.warm[:k]
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < j; i++ {
		mat.AxpyFast(u[i], v[i*k:(i+1)*k], y)
	}
	nrm := math.Sqrt(mat.Norm2SqFast(y))
	if nrm == 0 || math.IsInf(nrm, 0) || math.IsNaN(nrm) {
		return
	}
	for i := range y {
		y[i] /= nrm
	}
	s.warm = y
	s.hasWarm = true
}

// tridiagSolveShifted solves (T − σI)·x = b in place (x holds b on entry)
// for the symmetric tridiagonal T with diagonal d and off-diagonal e, by
// the Thomas recurrence with guarded pivots: near-singular shifts — the
// whole point of inverse iteration — just produce a large solution in the
// eigenvector's direction, which the caller normalizes. diag is scratch.
func tridiagSolveShifted(d, e []float64, sigma float64, x, diag []float64) {
	n := len(d)
	const tiny = 1e-300
	piv := d[0] - sigma
	if math.Abs(piv) < tiny {
		piv = tiny
	}
	diag[0] = piv
	for i := 1; i < n; i++ {
		m := e[i-1] / diag[i-1]
		piv = d[i] - sigma - m*e[i-1]
		if math.Abs(piv) < tiny {
			piv = tiny
		}
		diag[i] = piv
		x[i] -= m * x[i-1]
	}
	x[n-1] /= diag[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = (x[i] - e[i]*x[i+1]) / diag[i]
	}
}

// tridiagMaxEig returns the largest eigenvalue of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) =
// len(d)−1) by Sturm bisection — the same LDLᵀ sign-count recurrence the
// σ_min kernel uses, aimed at the other end of the spectrum.
func tridiagMaxEig(d, e []float64) float64 {
	n := len(d)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return d[0]
	}
	countBelow := func(t float64) int {
		cnt := 0
		q := 1.0
		for i := 0; i < n; i++ {
			var esq float64
			if i > 0 {
				esq = e[i-1] * e[i-1]
			}
			q = d[i] - t - esq/q
			if q < 0 {
				cnt++
			}
			if q == 0 {
				q = 1e-300
			}
		}
		return cnt
	}
	lo, hi := d[0], d[0]
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		if d[i]-r < lo {
			lo = d[i] - r
		}
		if d[i]+r > hi {
			hi = d[i] + r
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-15*(1+math.Abs(hi)); iter++ {
		mid := 0.5 * (lo + hi)
		if countBelow(mid) >= n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
