package opf

import (
	"math"
	"testing"

	"gridmtd/internal/grid"
)

// TestSolveCacheLRU pins the memo's hit/miss accounting on the engine's
// key: a fresh (loads, x) misses, a bitwise repeat hits, and the same x
// under different loads misses again (loads are part of the key). LRU
// eviction order is memo's and is tested there once (TestLRUEviction).
func TestSolveCacheLRU(t *testing.T) {
	n, err := grid.CaseByName("case14")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	x := n.Reactances()
	x[1] *= 1.03
	cost := func(want SolveCacheStats) {
		t.Helper()
		before := GlobalSolveCacheStats()
		if _, err := eng.Cost(x); err != nil {
			t.Fatal(err)
		}
		if d := GlobalSolveCacheStats().Delta(before); d != want {
			t.Fatalf("lookup: %+v, want %+v", d, want)
		}
	}
	miss, hit := SolveCacheStats{Misses: 1}, SolveCacheStats{Hits: 1}
	cost(miss)
	cost(hit)
	n.Buses[2].LoadMW *= 1.1
	cost(miss)
	cost(hit)
}

// TestSolveCacheHitReturnsBitwiseResult is the memo's transparency
// contract: a cache hit returns bitwise what a fresh engine computes for
// the same (loads, x) — objective, dispatch, flows and angles — and the
// process-wide counters record the traffic.
func TestSolveCacheHitReturnsBitwiseResult(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	if eng.cache == nil {
		t.Fatal("sparse engine has no solve cache")
	}
	x := n.Reactances()
	x[0] *= 1.01

	before := GlobalSolveCacheStats()
	first, err := eng.Solve(x)
	if err != nil {
		t.Fatal(err)
	}
	mid := GlobalSolveCacheStats()
	if d := mid.Delta(before); d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("first solve: %+v, want exactly one miss", d)
	}
	second, err := eng.Solve(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := GlobalSolveCacheStats().Delta(mid); d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("second solve: %+v, want exactly one hit", d)
	}

	// Fresh engine = guaranteed miss: the hit must match it bitwise.
	fresh, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fresh.Solve(x)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]float64{
		"dispatch": {second.DispatchMW, ref.DispatchMW},
		"flows":    {second.FlowsMW, ref.FlowsMW},
		"angles":   {second.ThetaRad, ref.ThetaRad},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s length differs", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: hit %v != fresh %v", name, i, a[i], b[i])
			}
		}
	}
	if second.CostPerHour != ref.CostPerHour || second.CostPerHour != first.CostPerHour {
		t.Fatalf("objective differs: hit %v, fresh %v, first %v",
			second.CostPerHour, ref.CostPerHour, first.CostPerHour)
	}

	// Cost and Solve share the entry: Cost on a session is a hit too.
	s := eng.NewSession()
	preHit := GlobalSolveCacheStats()
	cost, err := s.Cost(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := GlobalSolveCacheStats().Delta(preHit); d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("session Cost after Solve: %+v, want a hit", d)
	}
	if cost != first.CostPerHour {
		t.Fatalf("session Cost %v != Solve objective %v", cost, first.CostPerHour)
	}
}

// TestSolveCacheCachesDeterministicErrors: an infeasible candidate's
// error is memoized like a result — the second probe answers from the
// cache and still reports infeasibility.
func TestSolveCacheCachesDeterministicErrors(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.SparseBackend)
	if err != nil {
		t.Fatal(err)
	}
	// Overload the system: with Σ load beyond Σ gmax the balance row is
	// infeasible for every reactance vector. Loads are part of the cache
	// key, so this coexists with the feasible entries of other tests.
	for i := range n.Buses {
		n.Buses[i].LoadMW *= 50
	}
	defer func() {
		for i := range n.Buses {
			n.Buses[i].LoadMW /= 50
		}
	}()
	infeasible := n.Reactances()
	if _, err := eng.Solve(infeasible); err == nil {
		t.Fatal("overloaded system unexpectedly feasible")
	}
	before := GlobalSolveCacheStats()
	_, err1 := eng.Solve(infeasible)
	if err1 == nil {
		t.Fatal("expected cached error")
	}
	if d := GlobalSolveCacheStats().Delta(before); d.Hits != 1 {
		t.Fatalf("repeat infeasible probe: %+v, want a hit", d)
	}
	s := eng.NewSession()
	if _, err2 := s.Cost(infeasible); err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error differs: %v vs %v", err1, err2)
	}
}

// TestDenseEngineHasNoSolveCache pins the golden-path guarantee: the
// dense backend never consults the memo, so its bitwise history cannot
// depend on cache state.
func TestDenseEngineHasNoSolveCache(t *testing.T) {
	n, err := grid.CaseByName("case14")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDispatchEngineBackend(n, grid.DenseBackend)
	if err != nil {
		t.Fatal(err)
	}
	if eng.cache != nil {
		t.Fatal("dense engine built a solve cache")
	}
	before := GlobalSolveCacheStats()
	if _, err := eng.Solve(n.Reactances()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(n.Reactances()); err != nil {
		t.Fatal(err)
	}
	if d := GlobalSolveCacheStats().Delta(before); d.Hits != 0 || d.Misses != 0 {
		t.Fatalf("dense solves touched the cache counters: %+v", d)
	}
}

// TestCostUpperBound pins the lazy-penalty surrogate's premise: no
// feasible dispatch can cost more than CostUpperBound.
func TestCostUpperBound(t *testing.T) {
	for _, name := range []string{"case14", "ieee57"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewDispatchEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		ub := eng.CostUpperBound()
		if math.IsInf(ub, 0) || math.IsNaN(ub) || ub <= 0 {
			t.Fatalf("%s: degenerate upper bound %v", name, ub)
		}
		res, err := eng.Solve(n.Reactances())
		if err != nil {
			t.Fatal(err)
		}
		if res.CostPerHour > ub {
			t.Fatalf("%s: optimal cost %v exceeds upper bound %v", name, res.CostPerHour, ub)
		}
	}
}
