package core

import (
	"math"
	"sync"
	"sync/atomic"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/memo"
	"gridmtd/internal/se"
)

// estimatorCacheCap bounds an EstimatorCache's LRU. Each entry holds
// one dense QR (Q, Qᵀ, R plus H — about 4·M·n floats, ~30 MB for ieee300),
// so the bound stays small; a daemon's repeat traffic concentrates on far
// fewer distinct settings than this anyway.
const estimatorCacheCap = 16

// estCounts and estGlobal aggregate estimator-cache traffic process-wide,
// mirroring the lp package's global revised-simplex counters: lock-free
// increments on the serving path, one snapshot call for /v1/stats and
// mtdexp -v. estCounts receives every EstimatorCache lookup; estGlobal
// splits the builds by kind.
var (
	estCounts memo.Counters
	estGlobal struct{ fastBuilds, fullQRs atomic.Int64 }
)

// EstimatorCacheStats is a snapshot of the process-wide estimator-cache
// counters.
type EstimatorCacheStats struct {
	// Hits / Misses count cache lookups by outcome: a miss is the one
	// lookup that built the estimator (so misses equal builds), a hit
	// reads a finished entry or joins an in-flight build.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// FastBuilds counts misses served by the rank-structured completion
	// (only the D-FACTS-affected columns re-orthogonalized); FullQRs counts
	// misses that paid a full Householder factorization — the first build
	// per network, plus any fast-path premise or tolerance failure.
	FastBuilds int `json:"fast_builds"`
	FullQRs    int `json:"full_qrs"`
}

// Delta returns the field-wise counter increments s − since, for
// per-request assertions against the cumulative process-wide counters.
func (s EstimatorCacheStats) Delta(since EstimatorCacheStats) EstimatorCacheStats {
	return EstimatorCacheStats{
		Hits:       s.Hits - since.Hits,
		Misses:     s.Misses - since.Misses,
		FastBuilds: s.FastBuilds - since.FastBuilds,
		FullQRs:    s.FullQRs - since.FullQRs,
	}
}

// GlobalEstimatorCacheStats returns the process-wide cache counters.
func GlobalEstimatorCacheStats() EstimatorCacheStats {
	return EstimatorCacheStats{
		Hits:       int(estCounts.Hit.Load() + estCounts.Joined.Load()),
		Misses:     int(estCounts.Computed.Load()),
		FastBuilds: int(estGlobal.fastBuilds.Load()),
		FullQRs:    int(estGlobal.fullQRs.Load()),
	}
}

// EstimatorCache memoizes post-MTD estimators per candidate reactance
// vector for one network. The cache key is the exact bit pattern of x_new,
// so a hit returns a factorization built from a bitwise-identical
// measurement matrix — no tolerance is involved in reuse. Entries are
// immutable once built (Estimator methods are read-only), so one cached
// estimator may serve concurrent evaluations.
//
// Builds route through a lazily constructed se.Factory: the thin QR of the
// D-FACTS-invariant columns is computed once per network (the first miss),
// and every later miss re-orthogonalizes only the device-adjacent columns
// against it. The factory's own bitwise premise check falls back to the
// full QR when a caller hands an x_new that disagrees outside the volatile
// columns (a network whose base reactances were mutated), so correctness
// never depends on the structural assumption.
//
// An EstimatorCache is safe for concurrent use; concurrent misses on one
// key share a single build. A nil cache is valid and builds fresh
// estimators on every call.
type EstimatorCache struct {
	n       *grid.Network
	entries *memo.Cache[string, *se.Estimator]

	mu      sync.Mutex // guards factory
	factory *se.Factory
}

// NewEstimatorCache builds a cache for the given (immutable) network.
func NewEstimatorCache(n *grid.Network) *EstimatorCache {
	return &EstimatorCache{n: n, entries: memo.New[string, *se.Estimator](estimatorCacheCap, &estCounts, nil)}
}

// estKey packs a reactance vector's bit pattern into a map key.
func estKey(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		u := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			b[8*i+k] = byte(u >> (8 * k))
		}
	}
	return string(b)
}

// Get returns the estimator for H(xNew), from the cache when possible. A
// nil receiver or a network other than the cache's bypasses the cache
// (counted as a miss with a full QR) — the caller never has to check which
// network an EffectivenessConfig's cache was built for.
func (c *EstimatorCache) Get(n *grid.Network, xNew []float64) (*se.Estimator, error) {
	if c == nil || n != c.n {
		estCounts.Computed.Add(1)
		estGlobal.fullQRs.Add(1)
		return se.NewEstimator(n.MeasurementMatrix(xNew))
	}
	est, _, err := c.entries.Get(estKey(xNew), func() (*se.Estimator, error) { return c.build(xNew) })
	return est, err
}

// build constructs one estimator through the factory, creating the factory
// from this x_new's measurement matrix on the first build.
func (c *EstimatorCache) build(xNew []float64) (*se.Estimator, error) {
	h := c.n.MeasurementMatrix(xNew)
	f, err := c.factoryFor(h)
	if err != nil || f == nil {
		estGlobal.fullQRs.Add(1)
		return se.NewEstimator(h)
	}
	est, fast, err := f.Build(h)
	if fast {
		estGlobal.fastBuilds.Add(1)
	} else {
		estGlobal.fullQRs.Add(1)
	}
	return est, err
}

// factoryFor returns the cache's factory, constructing it from the given
// measurement matrix on first use. A construction error (degenerate
// geometry) permanently disables the fast path for this cache rather than
// failing lookups.
func (c *EstimatorCache) factoryFor(h *mat.Dense) (*se.Factory, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.factory == nil {
		f, err := se.NewFactory(h, c.n.DFACTSStateColumns())
		if err != nil {
			return nil, err
		}
		c.factory = f
	}
	return c.factory, nil
}
