package optimize

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i < len(x)-1; i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func TestNelderMeadSphere(t *testing.T) {
	res, err := NelderMead(sphere, []float64{3, -2, 1}, NMConfig{MaxEvals: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-8 {
		t.Fatalf("F = %v at %v, want ~0", res.F, res.X)
	}
	if !res.Converged {
		t.Error("expected convergence on the sphere")
	}
}

func TestNelderMeadRosenbrock2D(t *testing.T) {
	res, err := NelderMead(rosenbrock, []float64{-1.2, 1}, NMConfig{MaxEvals: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.X {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("X = %v, want ~[1 1] (F=%v)", res.X, res.F)
		}
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	if _, err := NelderMead(sphere, nil, NMConfig{}); err == nil {
		t.Fatal("expected error for empty x0")
	}
}

func TestNelderMeadRespectsBudget(t *testing.T) {
	count := 0
	f := func(x []float64) float64 {
		count++
		return sphere(x)
	}
	res, err := NelderMead(f, []float64{5, 5, 5, 5}, NMConfig{MaxEvals: 50})
	if err != nil {
		t.Fatal(err)
	}
	// A few extra evaluations are allowed within one iteration, but not
	// more than the shrink step can add (n evaluations).
	if count > 50+5 {
		t.Errorf("objective evaluated %d times, budget 50", count)
	}
	if res.Evals > 50+5 {
		t.Errorf("reported evals %d exceeds budget", res.Evals)
	}
}

func TestPatternSearchSphere(t *testing.T) {
	res, err := PatternSearch(sphere, []float64{2, -3}, PSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-10 {
		t.Fatalf("F = %v, want ~0", res.F)
	}
}

func TestPatternSearchQuadraticShifted(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1) + 7
	}
	res, err := PatternSearch(f, []float64{0, 0}, PSConfig{InitialStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-5 || math.Abs(res.X[1]+1) > 1e-5 {
		t.Fatalf("X = %v, want [3 -1]", res.X)
	}
	if math.Abs(res.F-7) > 1e-9 {
		t.Fatalf("F = %v, want 7", res.F)
	}
}

func TestPatternSearchEmptyInput(t *testing.T) {
	if _, err := PatternSearch(sphere, nil, PSConfig{}); err == nil {
		t.Fatal("expected error for empty x0")
	}
}

func TestBoundsValidate(t *testing.T) {
	if err := (Bounds{Lower: []float64{0}, Upper: []float64{1}}).Validate(); err != nil {
		t.Errorf("valid box rejected: %v", err)
	}
	bad := []Bounds{
		{},
		{Lower: []float64{0}, Upper: []float64{1, 2}},
		{Lower: []float64{2}, Upper: []float64{1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBoundsSampleClampContains(t *testing.T) {
	b := Bounds{Lower: []float64{-1, 0}, Upper: []float64{1, 2}}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		x := b.Sample(rng)
		if !b.Contains(x, 0) {
			t.Fatalf("sampled point %v outside box", x)
		}
	}
	clamped := b.Clamp([]float64{-5, 5})
	if clamped[0] != -1 || clamped[1] != 2 {
		t.Errorf("Clamp = %v, want [-1 2]", clamped)
	}
	if b.Contains([]float64{0}, 0) {
		t.Error("Contains must reject wrong dimension")
	}
}

func TestMultiStartFindsGlobalMin(t *testing.T) {
	// A deceptive 1-D function with a local minimum at x=-2 (value 1) and
	// the global minimum at x=2 (value 0).
	f := func(x []float64) float64 {
		v := x[0]
		return math.Min((v+2)*(v+2)+1, (v-2)*(v-2))
	}
	box := Bounds{Lower: []float64{-5}, Upper: []float64{5}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 500})
	}
	res, err := MultiStart(f, box, local, MSConfig{Starts: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 || res.F > 1e-6 {
		t.Fatalf("X = %v F = %v, want global minimum at 2", res.X, res.F)
	}
}

func TestMultiStartUsesInitialPoints(t *testing.T) {
	// Count runs to ensure the deterministic initial point is included.
	// Local searches run on parallel workers, so the recorder is locked
	// and the run order is not part of the contract.
	var mu sync.Mutex
	var starts [][]float64
	local := func(f Objective, x0 []float64) (*Result, error) {
		mu.Lock()
		starts = append(starts, append([]float64(nil), x0...))
		mu.Unlock()
		return &Result{X: x0, F: f(x0)}, nil
	}
	box := Bounds{Lower: []float64{0}, Upper: []float64{1}}
	_, err := MultiStart(sphere, box, local, MSConfig{
		Starts:        3,
		InitialPoints: [][]float64{{0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 4 {
		t.Fatalf("local solver ran %d times, want 4", len(starts))
	}
	found := false
	for _, x0 := range starts {
		found = found || x0[0] == 0.25
	}
	if !found {
		t.Errorf("starts %v do not include the provided initial point", starts)
	}
}

func TestMultiStartResultInsideBox(t *testing.T) {
	// Local solver that tries to escape the box; MultiStart must clamp.
	local := func(f Objective, x0 []float64) (*Result, error) {
		x := []float64{99}
		return &Result{X: x, F: f(x)}, nil
	}
	box := Bounds{Lower: []float64{0}, Upper: []float64{1}}
	res, err := MultiStart(sphere, box, local, MSConfig{Starts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !box.Contains(res.X, 0) {
		t.Fatalf("result %v escaped the box", res.X)
	}
}

func TestMultiStartInvalidBox(t *testing.T) {
	local := func(f Objective, x0 []float64) (*Result, error) {
		return &Result{X: x0, F: f(x0)}, nil
	}
	if _, err := MultiStart(sphere, Bounds{}, local, MSConfig{}); err == nil {
		t.Fatal("expected error for invalid box")
	}
}

func TestPenalized(t *testing.T) {
	// min x² s.t. x >= 1 (g(x) = 1-x <= 0). Penalized optimum approaches 1.
	f := func(x []float64) float64 { return x[0] * x[0] }
	g := func(x []float64) float64 { return 1 - x[0] }
	pen := Penalized(f, []Constraint{g}, 1e6)
	res, err := NelderMead(pen, []float64{3}, NMConfig{MaxEvals: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-2 {
		t.Fatalf("X = %v, want ~1", res.X)
	}
	// Inside the feasible region the penalty must vanish.
	if got := pen([]float64{2}); got != 4 {
		t.Errorf("penalized value at feasible point = %v, want 4", got)
	}
}

func TestMaxViolationAndFeasible(t *testing.T) {
	cons := []Constraint{
		func(x []float64) float64 { return x[0] - 1 },  // x <= 1
		func(x []float64) float64 { return -x[0] - 1 }, // x >= -1
	}
	if got := MaxViolation(cons, []float64{3}); got != 2 {
		t.Errorf("MaxViolation = %v, want 2", got)
	}
	if got := MaxViolation(cons, []float64{0}); got != 0 {
		t.Errorf("MaxViolation = %v, want 0", got)
	}
	if !Feasible(cons, []float64{0.5}, 0) {
		t.Error("0.5 should be feasible")
	}
	if Feasible(cons, []float64{1.5}, 0.1) {
		t.Error("1.5 should be infeasible")
	}
}

func TestSoftMax(t *testing.T) {
	if got := SoftMax(math.NaN(), 0); got != InfeasibleObjective {
		t.Errorf("SoftMax(NaN) = %v", got)
	}
	if got := SoftMax(-5, 0); got != 0 {
		t.Errorf("SoftMax(-5, 0) = %v, want 0", got)
	}
	if got := SoftMax(5, 0); got != 5 {
		t.Errorf("SoftMax(5, 0) = %v, want 5", got)
	}
}

// Property: Nelder-Mead never returns a worse point than its start on
// convex quadratics.
func TestQuickNelderMeadImproves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		center := make([]float64, n)
		x0 := make([]float64, n)
		for i := range center {
			center[i] = r.NormFloat64() * 3
			x0[i] = r.NormFloat64() * 3
		}
		obj := func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - center[i]
				s += d * d
			}
			return s
		}
		res, err := NelderMead(obj, x0, NMConfig{MaxEvals: 3000})
		if err != nil {
			return false
		}
		return res.F <= obj(x0)+1e-12 && res.F < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: pattern search on separable convex quadratics converges to the
// optimum from any start.
func TestQuickPatternSearchConverges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		center := make([]float64, n)
		x0 := make([]float64, n)
		for i := range center {
			center[i] = r.NormFloat64() * 2
			x0[i] = r.NormFloat64() * 2
		}
		obj := func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - center[i]
				s += d * d
			}
			return s
		}
		res, err := PatternSearch(obj, x0, PSConfig{InitialStep: 1, MaxEvals: 20000})
		if err != nil {
			return false
		}
		return res.F < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// multimodal is a deliberately nasty objective with many local minima.
func multimodal(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v*v + 2*math.Sin(7*v+float64(i))
	}
	return s
}

// TestMultiStartParallelismInvariant is the determinism contract of the
// parallel driver: identical Result (point, value, eval count) for any
// Parallelism setting, including values above GOMAXPROCS.
func TestMultiStartParallelismInvariant(t *testing.T) {
	box := Bounds{Lower: []float64{-3, -3, -3}, Upper: []float64{3, 3, 3}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 300})
	}
	settings := []int{1, 4, runtime.GOMAXPROCS(0), 16}
	var results []*Result
	for _, par := range settings {
		res, err := MultiStart(multimodal, box, local, MSConfig{
			Starts:        12,
			Seed:          99,
			InitialPoints: [][]float64{{1, 1, 1}},
			Parallelism:   par,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		results = append(results, res)
	}
	base := results[0]
	for i, res := range results[1:] {
		if res.F != base.F {
			t.Fatalf("parallelism %d: F = %v, want %v", settings[i+1], res.F, base.F)
		}
		for j := range base.X {
			if res.X[j] != base.X[j] {
				t.Fatalf("parallelism %d: X[%d] = %v, want %v", settings[i+1], j, res.X[j], base.X[j])
			}
		}
		if res.Evals != base.Evals {
			t.Fatalf("parallelism %d: Evals = %d, want %d", settings[i+1], res.Evals, base.Evals)
		}
	}
}

// TestMultiStartWorkerObjectiveInvariant checks the per-worker objective
// affinity path: a factory-built objective that carries per-start state
// (standing in for the dispatch engine's warm LP basis) must produce the
// identical Result for every worker count, because the reset hook fires
// before each local search and scopes the state to that start.
func TestMultiStartWorkerObjectiveInvariant(t *testing.T) {
	box := Bounds{Lower: []float64{-3, -3, -3}, Upper: []float64{3, 3, 3}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		return NelderMead(f, x0, NMConfig{MaxEvals: 200})
	}
	run := func(par int) (*Result, int64) {
		var resets int64
		factory := func() (Objective, func()) {
			evals := 0 // per-worker state, reset at every start
			obj := func(x []float64) float64 {
				evals++
				// The perturbation depends on the evaluation index since
				// the last reset: results stay parallelism-invariant only
				// if the driver really resets per start.
				return multimodal(x) * (1 + 1e-12*float64(evals))
			}
			reset := func() {
				evals = 0
				atomic.AddInt64(&resets, 1)
			}
			return obj, reset
		}
		res, err := MultiStart(multimodal, box, local, MSConfig{
			Starts:             9,
			Seed:               17,
			InitialPoints:      [][]float64{{1, 1, 1}},
			Parallelism:        par,
			NewWorkerObjective: factory,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return res, atomic.LoadInt64(&resets)
	}
	base, baseResets := run(1)
	if baseResets != 10 {
		t.Fatalf("serial run reset %d times, want one per start (10)", baseResets)
	}
	for _, par := range []int{4, 16} {
		res, resets := run(par)
		if resets != 10 {
			t.Fatalf("parallelism %d reset %d times, want 10", par, resets)
		}
		if res.F != base.F || res.Evals != base.Evals {
			t.Fatalf("parallelism %d: (F, Evals) = (%v, %d), want (%v, %d)", par, res.F, res.Evals, base.F, base.Evals)
		}
		for j := range base.X {
			if res.X[j] != base.X[j] {
				t.Fatalf("parallelism %d: X[%d] = %v, want %v", par, j, res.X[j], base.X[j])
			}
		}
	}
}

// TestMultiStartParallelErrorIsFirstByIndex checks the error reduction:
// the reported error is the one the serial loop would have hit first.
func TestMultiStartParallelErrorIsFirstByIndex(t *testing.T) {
	box := Bounds{Lower: []float64{0}, Upper: []float64{1}}
	local := func(f Objective, x0 []float64) (*Result, error) {
		if x0[0] > 0.99 { // initial point #0 fails
			return nil, errors.New("boom-first")
		}
		return &Result{X: x0, F: f(x0), Evals: 1}, nil
	}
	_, err := MultiStart(func(x []float64) float64 { return x[0] }, box, local, MSConfig{
		Starts:        6,
		Seed:          1,
		InitialPoints: [][]float64{{1}},
		Parallelism:   4,
	})
	if err == nil || err.Error() != "boom-first" {
		t.Fatalf("err = %v, want boom-first", err)
	}
}
