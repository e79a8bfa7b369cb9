package subspace

import (
	"math"
	"sync/atomic"

	"gridmtd/internal/mat"
)

// buildCounts tallies the expensive constructions of this package
// process-wide: every exact orthonormal basis (old side or candidate, on
// either kernel family) and every sketch evaluator. They are pure work
// counts, so a request's delta is deterministic and pins how often a
// caller rebuilds the same x_old side or re-evaluates the same candidate.
var buildCounts struct{ bases, sketches atomic.Int64 }

// BuildStats is a snapshot of the process-wide construction counters.
type BuildStats struct {
	// Bases counts exact basis builds: ComputeBasis, ComputeBasisT,
	// ComputeBasisTFast and Workspace.BasisT.
	Bases int `json:"bases"`
	// Sketches counts NewSketchEvaluator calls, failed constructions
	// included.
	Sketches int `json:"sketches"`
}

// GlobalBuildStats returns the process-wide construction counters.
func GlobalBuildStats() BuildStats {
	return BuildStats{Bases: int(buildCounts.bases.Load()), Sketches: int(buildCounts.sketches.Load())}
}

// Delta returns the field-wise counter increments s − since.
func (s BuildStats) Delta(since BuildStats) BuildStats {
	return BuildStats{Bases: s.Bases - since.Bases, Sketches: s.Sketches - since.Sketches}
}

// Basis is an orthonormal basis for the column space of a matrix, stored
// one vector per contiguous row (i.e. transposed relative to the matrix it
// was computed from). The contiguous layout makes the inner products of the
// principal-angle computation cache-friendly, and caching a Basis lets the
// γ-evaluation engine orthonormalize the fixed pre-perturbation matrix
// H(x_old) exactly once instead of once per candidate.
//
// The vectors are produced by the same twice-applied modified Gram-Schmidt
// procedure as mat.OrthonormalBasis, in the same floating-point order, so
// every downstream angle is bitwise identical to the uncached path.
type Basis struct {
	ambient int // dimension of the space the vectors live in
	k       int // number of basis vectors (the numerical rank)
	vecs    []float64
}

// Dim returns the number of basis vectors (the subspace dimension).
func (b *Basis) Dim() int { return b.k }

// Ambient returns the dimension of the ambient space.
func (b *Basis) Ambient() int { return b.ambient }

// vec returns basis vector i as a view into the backing array.
func (b *Basis) vec(i int) []float64 {
	return b.vecs[i*b.ambient : (i+1)*b.ambient]
}

// ComputeBasis computes an orthonormal basis for the column space of a.
// tol <= 0 selects the default rank tolerance of mat.OrthonormalBasis.
func ComputeBasis(a *mat.Dense, tol float64) *Basis {
	at := mat.TransposeInto(mat.NewDense(a.Cols(), a.Rows()), a)
	b := &Basis{}
	computeBasisT(b, at, tol)
	return b
}

// ComputeBasisT is ComputeBasis for a matrix given in transposed (row per
// column) layout: row j of at is column j of the matrix whose column space
// is orthonormalized.
func ComputeBasisT(at *mat.Dense, tol float64) *Basis {
	b := &Basis{}
	computeBasisT(b, at, tol)
	return b
}

// ComputeBasisTFast is ComputeBasisT with the multi-accumulator large-case
// kernels (mat.DotFast / mat.Norm2SqFast / mat.AxpyFast). The resulting
// basis spans the same subspace but its vectors differ from ComputeBasisT
// in the last bits (different summation order), so it must only be paired
// with the fast evaluation path (Workspace.Fast = true); the sub-threshold
// dense path keeps the bitwise-stable ComputeBasisT.
func ComputeBasisTFast(at *mat.Dense, tol float64) *Basis {
	b := &Basis{}
	computeBasisTFast(b, at, tol)
	return b
}

// computeBasisT runs the modified Gram-Schmidt of mat.OrthonormalBasis over
// the rows of at, writing the accepted vectors into dst's backing array.
// The candidate vector is staged in the next free row of the output buffer
// and kept only if it survives the rank test, so no per-column scratch is
// allocated.
func computeBasisT(dst *Basis, at *mat.Dense, tol float64) {
	buildCounts.bases.Add(1)
	if tol <= 0 {
		tol = 1e-12
	}
	cols, m := at.Rows(), at.Cols() // at is (columns of A) × (ambient dim)
	dst.ambient = m
	dst.k = 0
	if cap(dst.vecs) < cols*m {
		dst.vecs = make([]float64, cols*m)
	}
	dst.vecs = dst.vecs[:cols*m]

	var maxNorm float64
	for j := 0; j < cols; j++ {
		if n := mat.Norm2(at.RowView(j)); n > maxNorm {
			maxNorm = n
		}
	}
	if maxNorm == 0 {
		return
	}
	thresh := tol * maxNorm
	for j := 0; j < cols; j++ {
		v := dst.vecs[dst.k*m : (dst.k+1)*m]
		copy(v, at.RowView(j))
		// Twice-applied modified Gram-Schmidt for robustness (same as
		// mat.OrthonormalBasis).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < dst.k; i++ {
				b := dst.vec(i)
				mat.AxpyVec(-mat.Dot(b, v), b, v)
			}
		}
		if n := mat.Norm2(v); n > thresh {
			for i := range v {
				v[i] /= n
			}
			dst.k++
		}
	}
}

// computeBasisTFast is computeBasisT with the multi-accumulator kernels:
// the projections use mat.DotFast/mat.AxpyFast and the norms the plain
// (unscaled) fused sum of squares. The accepted-vector sequence and rank
// decisions follow the same twice-applied modified Gram-Schmidt; only the
// reduction orders differ.
func computeBasisTFast(dst *Basis, at *mat.Dense, tol float64) {
	buildCounts.bases.Add(1)
	if tol <= 0 {
		tol = 1e-12
	}
	cols, m := at.Rows(), at.Cols()
	dst.ambient = m
	dst.k = 0
	if cap(dst.vecs) < cols*m {
		dst.vecs = make([]float64, cols*m)
	}
	dst.vecs = dst.vecs[:cols*m]

	var maxSq float64
	for j := 0; j < cols; j++ {
		if s := mat.Norm2SqFast(at.RowView(j)); s > maxSq {
			maxSq = s
		}
	}
	if maxSq == 0 {
		return
	}
	thresh := tol * math.Sqrt(maxSq)
	for j := 0; j < cols; j++ {
		v := dst.vecs[dst.k*m : (dst.k+1)*m]
		copy(v, at.RowView(j))
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < dst.k; i++ {
				b := dst.vec(i)
				mat.AxpyFast(-mat.DotFast(b, v), b, v)
			}
		}
		if n := math.Sqrt(mat.Norm2SqFast(v)); n > thresh {
			inv := 1 / n
			for i := range v {
				v[i] *= inv
			}
			dst.k++
		}
	}
}

// Workspace holds every scratch buffer of a cached principal-angle
// evaluation: the candidate basis, the cross-Gram matrix and the SVD
// workspace. The zero value is ready to use. A Workspace is not safe for
// concurrent use; per-goroutine workspaces (e.g. via sync.Pool) make the
// evaluation embarrassingly parallel.
//
// Fast selects the multi-accumulator/blocked large-case kernels for the
// basis, cross-Gram and SVD stages. It changes summation orders, so it
// must stay false on the sub-threshold dense path whose outputs are
// bitwise contracts; the ≥ grid.SparseThreshold path sets it and carries a
// 1e-9-agreement contract instead.
type Workspace struct {
	Fast   bool
	basis  Basis
	cross  *mat.Dense
	svd    mat.SVDWorkspace
	angles []float64
}

// BasisT computes the orthonormal basis of the matrix given in transposed
// layout (see ComputeBasisT) into the workspace and returns it. The result
// is overwritten by the next BasisT call on the same workspace.
func (ws *Workspace) BasisT(at *mat.Dense, tol float64) *Basis {
	if ws.Fast {
		computeBasisTFast(&ws.basis, at, tol)
	} else {
		computeBasisT(&ws.basis, at, tol)
	}
	return &ws.basis
}

// PrincipalAnglesBases returns the principal angles (radians, ascending)
// between the subspaces spanned by the two bases, reusing the workspace
// buffers. The returned slice is owned by the workspace. Results are
// bitwise identical to PrincipalAngles on the matrices the bases were
// computed from.
func (ws *Workspace) PrincipalAnglesBases(qa, qb *Basis) []float64 {
	if qa.Dim() == 0 || qb.Dim() == 0 {
		return nil
	}
	ws.buildCross(qa, qb)
	var sv []float64
	if ws.Fast {
		sv = ws.svd.SingularValuesFast(ws.cross)
	} else {
		sv = ws.svd.SingularValues(ws.cross)
	}
	if cap(ws.angles) < len(sv) {
		ws.angles = make([]float64, len(sv))
	}
	ws.angles = ws.angles[:len(sv)]
	for i, s := range sv {
		ws.angles[i] = math.Acos(clampCos(s))
	}
	return ws.angles
}

// buildCross fills ws.cross with QaᵀQb, transposed when needed so the SVD
// always sees rows >= cols (as PrincipalAngles arranges via T()).
func (ws *Workspace) buildCross(qa, qb *Basis) {
	if qa.Ambient() != qb.Ambient() {
		panic("subspace: bases live in different ambient spaces")
	}
	ra, rb := qa, qb
	if qa.Dim() < qb.Dim() {
		ra, rb = qb, qa
	}
	if ws.cross == nil || ws.cross.Rows() != ra.Dim() || ws.cross.Cols() != rb.Dim() {
		ws.cross = mat.NewDense(ra.Dim(), rb.Dim())
	}
	if ws.Fast {
		for i := 0; i < ra.Dim(); i++ {
			row := ws.cross.RowView(i)
			for j := 0; j < rb.Dim(); j++ {
				row[j] = mat.DotFast(ra.vec(i), rb.vec(j))
			}
		}
	} else {
		for i := 0; i < ra.Dim(); i++ {
			row := ws.cross.RowView(i)
			for j := 0; j < rb.Dim(); j++ {
				row[j] = mat.Dot(ra.vec(i), rb.vec(j))
			}
		}
	}
}

func clampCos(s float64) float64 {
	if s > 1 {
		return 1
	}
	if s < -1 {
		return -1
	}
	return s
}

// GammaBases returns γ for two precomputed bases: the largest principal
// angle between the spanned subspaces (0 for empty subspaces). The fast
// path computes only the smallest singular value of the cross-Gram matrix
// (the largest angle's cosine) via tridiagonal bisection instead of the
// full Jacobi spectrum — the one number γ needs.
func (ws *Workspace) GammaBases(qa, qb *Basis) float64 {
	if qa.Dim() == 0 || qb.Dim() == 0 {
		return 0
	}
	if ws.Fast {
		ws.buildCross(qa, qb)
		s := ws.svd.SmallestSingularValueFast(ws.cross)
		// The bisection works on the squared spectrum, so σ below ~1e-7
		// carries only ~1e-8 absolute accuracy — and near σ = 0 the acos
		// derivative is -1, which would leak that error straight into γ
		// past the 1e-9 contract. Near-orthogonal subspaces are a sliver
		// of the search space, so re-resolve them with the full-precision
		// Jacobi sweep instead of weakening the contract.
		if s < 1e-7 {
			sv := ws.svd.SingularValuesFast(ws.cross)
			s = sv[len(sv)-1]
		}
		return math.Acos(clampCos(s))
	}
	angles := ws.PrincipalAnglesBases(qa, qb)
	if len(angles) == 0 {
		return 0
	}
	return angles[len(angles)-1]
}
