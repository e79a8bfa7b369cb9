package opf

import (
	"math"

	"gridmtd/internal/memo"
)

// solveCacheCap bounds a SolveCache's LRU. Each entry holds the
// objective, the dispatch vector (nG floats) and the packed key
// (N + L floats), about 6 KB at ieee300 scale — a thousand entries cover
// a cold selection's distinct candidates several times over for a few MB
// per network.
const solveCacheCap = 1024

// solveCounts receives every SolveCache lookup in the process: lock-free
// increments on the serving path, one snapshot for /v1/stats and
// mtdexp -v.
var solveCounts memo.Counters

// SolveCacheStats is a snapshot of the process-wide dispatch-solve-cache
// counters.
type SolveCacheStats struct {
	// Hits / Misses count cache lookups by outcome. A hit returns the
	// memoized LP result without running the simplex (a lookup that
	// joined an in-flight solve counts as a hit); a miss is the one
	// lookup that ran the dispatch solve (counted in the lp
	// Solves/PrescreenHits telemetry as usual), so misses equal solves.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// Delta returns the field-wise counter increments s − since, for
// per-request assertions against the cumulative process-wide counters.
func (s SolveCacheStats) Delta(since SolveCacheStats) SolveCacheStats {
	return SolveCacheStats{Hits: s.Hits - since.Hits, Misses: s.Misses - since.Misses}
}

// GlobalSolveCacheStats returns the process-wide cache counters.
func GlobalSolveCacheStats() SolveCacheStats {
	return SolveCacheStats{
		Hits:   int(solveCounts.Hit.Load() + solveCounts.Joined.Load()),
		Misses: int(solveCounts.Computed.Load()),
	}
}

// SolveCache memoizes dispatch-LP results per (bus loads, reactance
// vector) for one engine. The key is the exact bit pattern of both, so a
// hit returns the result of a bitwise-identical LP — no tolerance is
// involved in reuse. It exists because every fast-path solve is a pure
// from-seed function of (loads, x) (see DispatchEngine.Cost): a hit is
// bitwise indistinguishable from recomputing, so the hit/miss pattern —
// and with it scheduling, worker count and pool order — cannot influence
// any observable result. The selection search re-evaluates bitwise-
// identical candidates constantly (multi-start re-evaluation at the
// clamped optimum, γ-ladder backoffs re-walking earlier simplices, corner
// polls sharing corners), and every one of those repeats collapses into a
// map lookup.
//
// Entries are immutable once computed (callers receive copies of the
// dispatch vector), so one entry may serve concurrent readers; concurrent
// misses on one key share a single solve. Deterministic errors
// (infeasibility, PTDF build failures — all pure functions of the input)
// are cached like results.
//
// A SolveCache is safe for concurrent use. A nil cache means every solve
// runs fresh (the dense path, which keeps its historical bitwise
// behavior).
type SolveCache = memo.Cache[string, solved]

// solved is one memoized LP result.
type solved struct {
	obj float64
	x   []float64 // optimal dispatch (MW)
}

func newSolveCache() *SolveCache { return memo.New[string, solved](solveCacheCap, &solveCounts, nil) }

// solveKey packs the bit patterns of the network's current bus loads and
// the candidate reactances into a map key. Loads are part of the key
// because the engine reads them fresh on every solve (day sweeps mutate
// them between batches on the same engine).
func (e *DispatchEngine) solveKey(x []float64) string {
	buses := e.n.Buses
	b := make([]byte, 8*(len(buses)+len(x)))
	k := 0
	put := func(v float64) {
		u := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			b[k] = byte(u >> s)
			k++
		}
	}
	for i := range buses {
		put(buses[i].LoadMW)
	}
	for _, v := range x {
		put(v)
	}
	return string(b)
}
