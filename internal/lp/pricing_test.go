package lp

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPricingRulesAgreeRandom is the pricing-invariance property on random
// bounded LPs: Devex dual pricing (the only configured rule) and Bland's
// rule (the anti-cycling fallback, forced from the first iteration through
// the unexported bland field) pick different pivot sequences but must land
// on the same optimum as the flat tableau solver (1e-9), with identical
// feasibility verdicts. The warm re-solve after each cold one keeps both
// rules exercising the eta-update path.
func TestPricingRulesAgreeRandom(t *testing.T) {
	rules := []struct {
		name  string
		bland bool
	}{
		{"devex", false},
		{"bland", true},
	}
	solvers := make([]*RevisedSolver, len(rules))
	for i, r := range rules {
		solvers[i] = NewRevisedSolver()
		solvers[i].bland = r.bland
	}
	rng := rand.New(rand.NewSource(31))
	solved := 0
	for trial := 0; trial < 150; trial++ {
		p := randomBoundedLP(rng, 3+rng.Intn(8), 1+rng.Intn(10))
		ref, refErr := Solve(p)
		for i, r := range rules {
			got, gotErr := solvers[i].Solve(p)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d (%s): flat err %v, revised err %v", trial, r.name, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			objectivesAgree(t, r.name, ref.Objective, got.Objective)
			// Warm re-solve under the same rule: the optimal basis is
			// current, so the answer must be identical again.
			again, err := solvers[i].Solve(p)
			if err != nil {
				t.Fatalf("trial %d (%s) warm: %v", trial, r.name, err)
			}
			objectivesAgree(t, r.name+" warm", ref.Objective, again.Objective)
		}
		if refErr == nil {
			solved++
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/150 random LPs were feasible; generator too aggressive", solved)
	}
	// Counter hygiene: the Devex solver must have priced with weights; the
	// Bland solver must not have recorded weighted pivots.
	se := solvers[0].Stats()
	if se.SEPivots == 0 {
		t.Fatalf("Devex solver never used weighted pricing: %+v", se)
	}
	if st := solvers[1].Stats(); st.SEPivots != 0 || st.DualPivots == 0 {
		t.Fatalf("Bland solver recorded weighted pivots or none at all: %+v", st)
	}
}

// TestGlobalStatsUnderParallelSolves hammers the process-wide counters from
// concurrent solvers (the planner's multi-start pattern: one solver per
// goroutine, shared atomic stats) and checks the aggregate adds up exactly.
// Run with -race to verify the counter path is synchronization-clean.
func TestGlobalStatsUnderParallelSolves(t *testing.T) {
	const workers = 8
	const perWorker = 25
	before := GlobalRevisedStats()
	var wg sync.WaitGroup
	locals := make([]RevisedStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			rs := NewRevisedSolver()
			rs.bland = w%2 == 1 // mix Bland and Devex across workers
			for trial := 0; trial < perWorker; trial++ {
				p := randomBoundedLP(rng, 3+rng.Intn(6), 1+rng.Intn(8))
				_, _ = rs.Solve(p)
				// Interleave snapshot reads with the writes.
				_ = GlobalRevisedStats()
			}
			locals[w] = rs.Stats()
		}(w)
	}
	wg.Wait()
	after := GlobalRevisedStats()
	var want RevisedStats
	for _, st := range locals {
		want.Solves += st.Solves
		want.DualPivots += st.DualPivots
		want.SEPivots += st.SEPivots
		want.BoundFlips += st.BoundFlips
		want.Refactorizations += st.Refactorizations
	}
	if got := after.Solves - before.Solves; got != want.Solves {
		t.Fatalf("global Solves delta %d != per-solver sum %d", got, want.Solves)
	}
	if got := after.DualPivots - before.DualPivots; got != want.DualPivots {
		t.Fatalf("global DualPivots delta %d != per-solver sum %d", got, want.DualPivots)
	}
	if got := after.SEPivots - before.SEPivots; got != want.SEPivots {
		t.Fatalf("global SEPivots delta %d != per-solver sum %d", got, want.SEPivots)
	}
	if got := after.BoundFlips - before.BoundFlips; got != want.BoundFlips {
		t.Fatalf("global BoundFlips delta %d != per-solver sum %d", got, want.BoundFlips)
	}
}
