package lp

import (
	"errors"
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
)

// cloneProblem deep-copies the parts of a Problem the prescreen tests
// perturb (matrices are copied too, so candidates never alias).
func cloneProblem(p *Problem) *Problem {
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	q := &Problem{
		C:     cp(p.C),
		Beq:   cp(p.Beq),
		Bub:   cp(p.Bub),
		Lower: cp(p.Lower),
		Upper: cp(p.Upper),
	}
	if p.Aeq != nil {
		q.Aeq = p.Aeq.Clone()
	}
	if p.Aub != nil {
		q.Aub = p.Aub.Clone()
	}
	return q
}

// TestPrescreenRejectionsMatchExactSolves is the Farkas-screen safety
// property: every candidate the ray ring screen-rejects must be certified
// infeasible by a full exact solve on a fresh solver (no rays, no warm
// state). By contraposition the same assertion proves no feasible
// candidate is ever screen-rejected. The candidates are randomized
// perturbations — right-hand-side jitter and constraint-matrix noise —
// around captured-infeasible probes, so the rays are tested against data
// they were NOT captured from.
func TestPrescreenRejectionsMatchExactSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	screened, admitted := 0, 0
	for trial := 0; trial < 60; trial++ {
		n, nUb := 3+rng.Intn(6), 1+rng.Intn(6)
		base := randomBoundedLP(rng, n, nUb)
		rs := NewRevisedSolver()
		if _, err := rs.Solve(base); err != nil {
			continue // want a solver with warm state, like the search has
		}

		// Infeasible probe: demand more on the budget row than the box
		// can supply. The dual simplex certifies it and captures a ray.
		total := 0.0
		for _, up := range base.Upper {
			total += up
		}
		probe := cloneProblem(base)
		probe.Beq[0] = total * (1.05 + rng.Float64())
		if _, err := rs.Solve(probe); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("trial %d: infeasible probe not detected: %v", trial, err)
		}

		// Randomized perturbations around the probe: some stay
		// infeasible, some are pulled back into reach.
		for k := 0; k < 15; k++ {
			cand := cloneProblem(probe)
			cand.Beq[0] = total * (0.5 + 1.2*rng.Float64())
			for i := range cand.Bub {
				cand.Bub[i] += 0.1 * (2*rng.Float64() - 1)
			}
			if cand.Aub != nil && rng.Intn(2) == 0 {
				r := rng.Intn(len(cand.Bub))
				row := cand.Aub.RowView(r)
				row[rng.Intn(n)] += 0.05 * (2*rng.Float64() - 1)
			}
			if rs.prescreen(cand, n, 1, nUb) {
				screened++
				fresh := NewRevisedSolver()
				if _, err := fresh.Solve(cand); !errors.Is(err, ErrInfeasible) {
					t.Fatalf("trial %d/%d: prescreen rejected a candidate the exact solver did not certify infeasible (err=%v)",
						trial, k, err)
				}
			} else {
				admitted++
			}
		}
	}
	if screened == 0 {
		t.Fatal("property test never exercised a screen rejection")
	}
	if admitted == 0 {
		t.Fatal("property test never exercised an admitted candidate")
	}
	t.Logf("screen rejected %d candidates, admitted %d", screened, admitted)
}

// TestPrescreenCountsSeparately pins the counter semantics: a
// screen-rejected solve increments PrescreenHits and leaves Solves
// untouched, while a full certified-infeasible solve increments both
// Solves and InfeasibleSolves.
func TestPrescreenCountsSeparately(t *testing.T) {
	mk := func(b float64) *Problem {
		return &Problem{
			C:     []float64{1, 1},
			Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Beq:   []float64{b},
			Lower: []float64{0, 0},
			Upper: []float64{1, 1},
		}
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Solve(mk(5)); !errors.Is(err, ErrInfeasible) {
		t.Fatal("want ErrInfeasible from the full solve")
	}
	s := rs.Stats()
	if s.Solves != 2 || s.InfeasibleSolves != 1 || s.PrescreenHits != 0 {
		t.Fatalf("after full infeasible solve: %+v", s)
	}
	// A near-identical re-probe is answered by the recycled ray: no new
	// Solve, one PrescreenHits.
	if _, err := rs.Solve(mk(5.1)); !errors.Is(err, ErrInfeasible) {
		t.Fatal("want ErrInfeasible from the screen")
	}
	s = rs.Stats()
	if s.Solves != 2 || s.PrescreenHits != 1 {
		t.Fatalf("after screened re-probe: %+v", s)
	}
	// And a feasible problem still gets through.
	if _, err := rs.Solve(mk(1.5)); err != nil {
		t.Fatalf("feasible problem after screening: %v", err)
	}
}

// TestFarkasIndexRetainsDistinctCauses exercises the structural-cause
// index: rays for distinct causes coexist instead of evicting each other,
// a refreshed ray supersedes its cause's stale predecessor in place, and
// PrescreenProbes counts the revalidation work.
func TestFarkasIndexRetainsDistinctCauses(t *testing.T) {
	mk := func(b float64) *Problem {
		return &Problem{
			C:     []float64{1, 1},
			Aeq:   mat.NewDenseFrom(1, 2, []float64{1, 1}),
			Beq:   []float64{b},
			Lower: []float64{0, 0},
			Upper: []float64{1, 1},
		}
	}
	rs := NewRevisedSolver()
	if _, err := rs.Solve(mk(1)); err != nil {
		t.Fatal(err)
	}
	// Same structural cause certified at two RHS levels: the index keeps
	// one ray for it, refreshed in place.
	if _, err := rs.Solve(mk(5)); err != ErrInfeasible {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if len(rs.rays) != 1 {
		t.Fatalf("after first capture: %d rays, want 1", len(rs.rays))
	}
	cause := rs.rays[0].cause
	// A screened re-probe is answered from the index (prescreen runs
	// before Solves counts it) and counts its probe.
	before := rs.Stats()
	if _, err := rs.Solve(mk(6)); err != ErrInfeasible {
		t.Fatalf("want screened ErrInfeasible, got %v", err)
	}
	d := rs.Stats().Delta(before)
	if d.PrescreenHits != 1 || d.PrescreenProbes != 1 || d.Solves != 0 {
		t.Fatalf("screened probe delta: %+v", d)
	}
	if len(rs.rays) != 1 || rs.rays[0].cause != cause {
		t.Fatalf("screened probe disturbed the index: %d rays", len(rs.rays))
	}
}
