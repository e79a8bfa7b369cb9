// Package lp implements a dense two-phase simplex solver for linear
// programs of the form
//
//	min  cᵀx
//	s.t. Aeq·x  = beq
//	     Aub·x <= bub
//	     lower <= x <= upper
//
// It is the workhorse behind the DC optimal power flow: with linear
// generation costs the DC OPF is exactly such an LP. The flat-tableau
// two-phase solver (Solver) favours robustness (Bland's anti-cycling
// rule, explicit infeasible/unbounded detection) and performs the
// historical floating-point operations bit for bit — it anchors the
// bitwise-reproducible dense path. For the rating-heavy large cases the
// package also provides a bounded-variable revised simplex with
// cross-solve basis warm-starting (RevisedSolver, behind the WarmSolver
// interface; see revised.go) that re-solves the near-identical LPs of a
// local search in a few pivots and cross-checks every warm answer against
// a feasibility/optimality certificate, falling back to the flat solver
// on any doubt.
//
// The revised solver prices the dual simplex with Devex weights and a
// bound-flipping ratio test, falling back to Bland's rule past half its
// iteration budget for anti-cycling; it factors its working matrix with
// one dense LU. It also answers infeasibility without solving: recycled
// Farkas rays (prescreen.go), held in a structural-cause index so distinct
// failure modes screen concurrently, certify infeasibility of perturbed
// candidates before any pivoting. A ray is trusted only after it is
// re-evaluated against the candidate's exact data with a conservative
// margin: float error can weaken the screen (a missed skip), never produce
// a wrong verdict.
package lp

import (
	"errors"
	"fmt"
	"math"

	"gridmtd/internal/mat"
)

// Status describes the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal solution was found.
	StatusOptimal Status = iota + 1
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrInfeasible is returned when the problem has no feasible point.
var ErrInfeasible = errors.New("lp: problem is infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: problem is unbounded")

// ErrMaxIterations is returned if the simplex method fails to terminate
// within its iteration budget (should not happen with Bland's rule unless
// the problem is numerically pathological).
var ErrMaxIterations = errors.New("lp: iteration limit exceeded")

// Problem is an LP in the general form documented at the package level.
// Aeq/Beq and Aub/Bub may be nil (no constraints of that kind). Lower and
// Upper may be nil (interpreted as -Inf/+Inf) or contain ±Inf entries.
type Problem struct {
	C     []float64
	Aeq   *mat.Dense
	Beq   []float64
	Aub   *mat.Dense
	Bub   []float64
	Lower []float64
	Upper []float64
}

// Solution is the result of a successful solve.
type Solution struct {
	X         []float64
	Objective float64
	Status    Status
}

// Validate checks the dimensional consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: empty objective")
	}
	if p.Aeq != nil {
		if p.Aeq.Cols() != n {
			return fmt.Errorf("lp: Aeq has %d columns, want %d", p.Aeq.Cols(), n)
		}
		if len(p.Beq) != p.Aeq.Rows() {
			return fmt.Errorf("lp: Beq has length %d, want %d", len(p.Beq), p.Aeq.Rows())
		}
	} else if len(p.Beq) != 0 {
		return errors.New("lp: Beq without Aeq")
	}
	if p.Aub != nil {
		if p.Aub.Cols() != n {
			return fmt.Errorf("lp: Aub has %d columns, want %d", p.Aub.Cols(), n)
		}
		if len(p.Bub) != p.Aub.Rows() {
			return fmt.Errorf("lp: Bub has length %d, want %d", len(p.Bub), p.Aub.Rows())
		}
	} else if len(p.Bub) != 0 {
		return errors.New("lp: Bub without Aub")
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: Lower has length %d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: Upper has length %d, want %d", len(p.Upper), n)
	}
	for j := 0; j < n; j++ {
		lo, up := p.bound(j)
		if lo > up {
			return fmt.Errorf("lp: variable %d has lower bound %g > upper bound %g", j, lo, up)
		}
	}
	return nil
}

func (p *Problem) bound(j int) (lo, up float64) {
	lo, up = math.Inf(-1), math.Inf(1)
	if p.Lower != nil {
		lo = p.Lower[j]
	}
	if p.Upper != nil {
		up = p.Upper[j]
	}
	return lo, up
}

// Solve solves the problem. On success Status is StatusOptimal; otherwise
// the error is ErrInfeasible, ErrUnbounded or ErrMaxIterations. Callers
// solving many LPs should hold a Solver and call its Solve method to reuse
// the tableau buffers; this function is the one-shot convenience form.
func Solve(p *Problem) (*Solution, error) {
	return NewSolver().Solve(p)
}

// varMap records how original variable j maps onto standard-form variables.
type varMap struct {
	kind  int // 0: shifted by lower (x = lo + y), 1: reflected (x = up - y), 2: free split (x = y+ - y-)
	col   int // first standard-form column
	shift float64
}

const (
	pivotTol   = 1e-9
	feasTol    = 1e-7
	maxSimplex = 20000
)
