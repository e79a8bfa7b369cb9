// Package optimize implements the derivative-free optimizers used to solve
// the paper's non-convex MTD selection problem (4): Nelder-Mead simplex
// search, compass pattern search, a multi-start driver, and a quadratic
// penalty wrapper for constraints. Together they substitute for MATLAB's
// fmincon + MultiStart on the small (≤ ~10-dimensional) reactance search
// spaces in this project.
package optimize

import (
	"errors"
	"math"
	"sort"
)

// Objective is a function to be minimized.
type Objective func(x []float64) float64

// Result reports the outcome of a minimization.
type Result struct {
	X         []float64 // best point found
	F         float64   // objective value at X
	Evals     int       // number of objective evaluations
	Converged bool      // whether the tolerance criterion was met
}

// NMConfig configures Nelder-Mead. The zero value selects sensible
// defaults.
type NMConfig struct {
	// InitialStep is the size of the initial simplex around x0 per
	// coordinate (default 0.05 + 5% of |x0_i|).
	InitialStep float64
	// TolF stops when the simplex function-value spread falls below it
	// (default 1e-10).
	TolF float64
	// TolX stops when the simplex diameter falls below it (default 1e-10).
	TolX float64
	// MaxEvals bounds objective evaluations (default 200 * dim).
	MaxEvals int
}

func (c NMConfig) withDefaults(dim int) NMConfig {
	if c.InitialStep <= 0 {
		c.InitialStep = 0.05
	}
	if c.TolF <= 0 {
		c.TolF = 1e-10
	}
	if c.TolX <= 0 {
		c.TolX = 1e-10
	}
	if c.MaxEvals <= 0 {
		c.MaxEvals = 200 * dim
	}
	return c
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead downhill
// simplex method with standard coefficients (reflection 1, expansion 2,
// contraction 0.5, shrink 0.5).
func NelderMead(f Objective, x0 []float64, cfg NMConfig) (*Result, error) {
	n := len(x0)
	if n == 0 {
		return nil, errors.New("optimize: empty starting point")
	}
	cfg = cfg.withDefaults(n)

	type vertex struct {
		x []float64
		f float64
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	// Initial simplex: x0 plus a perturbation along each axis.
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...)}
	simplex[0].f = eval(simplex[0].x)
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		step := cfg.InitialStep * (1 + math.Abs(x[i]))
		x[i] += step
		simplex[i+1] = vertex{x: x, f: eval(x)}
	}

	order := func() {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	}
	order()

	for evals < cfg.MaxEvals {
		best, worst := simplex[0], simplex[n]

		// Convergence checks.
		spread := math.Abs(worst.f - best.f)
		var diam float64
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(simplex[i].x[j] - best.x[j]); d > diam {
					diam = d
				}
			}
		}
		if spread < cfg.TolF && diam < cfg.TolX {
			return &Result{X: best.x, F: best.f, Evals: evals, Converged: true}, nil
		}

		// Centroid of all but the worst vertex.
		centroid := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}

		lerp := func(t float64) []float64 {
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				x[j] = centroid[j] + t*(worst.x[j]-centroid[j])
			}
			return x
		}

		// Reflection.
		xr := lerp(-1)
		fr := eval(xr)
		switch {
		case fr < best.f:
			// Expansion.
			xe := lerp(-2)
			fe := eval(xe)
			if fe < fr {
				simplex[n] = vertex{x: xe, f: fe}
			} else {
				simplex[n] = vertex{x: xr, f: fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{x: xr, f: fr}
		default:
			// Contraction (outside if reflection improved on worst, else inside).
			var xc []float64
			if fr < worst.f {
				xc = lerp(-0.5)
			} else {
				xc = lerp(0.5)
			}
			fc := eval(xc)
			if fc < math.Min(fr, worst.f) {
				simplex[n] = vertex{x: xc, f: fc}
			} else {
				// Shrink towards the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = best.x[j] + 0.5*(simplex[i].x[j]-best.x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
		order()
	}
	order()
	return &Result{X: simplex[0].x, F: simplex[0].f, Evals: evals, Converged: false}, nil
}
