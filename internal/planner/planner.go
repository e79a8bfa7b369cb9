// Package planner is the long-running selection front-end of the
// reproduction: a concurrency-safe service object answering MTD selection,
// γ-evaluation, day-sweep and placement requests against the embedded case
// registry. It amortizes everything amortizable across requests:
//
//   - an LRU of resolved cases (one immutable network per (case, load
//     scale) pair), whose dispatch-OPF engines the scenario runner caches
//     by network pointer — so the factorizer workspaces, LP skeletons and
//     warm simplex bases survive from request to request;
//   - a memo LRU of finished responses keyed by the full request
//     parameterization (case, setpoint, budgets, seeds), so a repeated
//     request is a map lookup instead of a multi-start search.
//
// Requests with identical keys share one computation — single-flight
// coalescing: the second caller joins the first's in-flight search instead
// of racing the memo, observable through the result_coalesced counter.
// Requests with different keys compute concurrently, optionally through a
// bounded admission queue (Config.MaxInflight / QueueDepth) that sheds
// load with ErrOverloaded once the queue is full, and optionally backed by
// a persistent disk cache (Config.Disk) so a restarted process serves
// previously computed responses without re-solving. cmd/gridmtdd serves
// this planner over HTTP.
package planner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/memo"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner/diskcache"
	"gridmtd/internal/scenario"
	"gridmtd/internal/subspace"
)

// ErrUnreachable is returned by Select when the requested γ threshold is
// beyond the case's D-FACTS reach and no max-γ fallback was requested.
var ErrUnreachable = errors.New("planner: gamma threshold unreachable within D-FACTS limits")

// ErrOverloaded is returned when admission control sheds a request: the
// worker pool is saturated and the work queue is at depth. The result is
// not memoized — an immediate retry (the HTTP layer answers 429 with
// Retry-After) re-enters the queue.
var ErrOverloaded = errors.New("planner: overloaded, work queue full; retry later")

// Config tunes a Planner.
type Config struct {
	// Backend forces the dispatch engines' linear-algebra backend
	// (AutoBackend picks by case size).
	Backend grid.Backend
	// MaxCases bounds the case LRU (default 8 (case, scale) entries).
	MaxCases int
	// MaxResults bounds the response memo LRU (default 256).
	MaxResults int
	// Parallelism bounds each request's internal search parallelism
	// (0 = GOMAXPROCS). Results are identical for any setting.
	Parallelism int
	// MaxInflight bounds how many requests may compute concurrently
	// (0 = unbounded, admission control off). Memo, coalesced and disk
	// hits never consume a slot.
	MaxInflight int
	// QueueDepth bounds how many computations may wait for a slot
	// (default 4×MaxInflight when admission control is on); past the
	// depth, requests shed with ErrOverloaded.
	QueueDepth int
	// Disk attaches a persistent response cache: computed responses are
	// written through, and a fresh process serves previously computed
	// requests from disk without re-solving. Entries are keyed on the
	// bitwise memo key plus the case registry content hash, so stale
	// caches from a different registry build read as misses.
	Disk *diskcache.Cache
}

func (c Config) withDefaults() Config {
	if c.MaxCases <= 0 {
		c.MaxCases = 8
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 256
	}
	return c
}

// Stats counts cache traffic and which γ backend served the computed
// (non-memoized) selection-style requests.
type Stats struct {
	CaseHits     int64 `json:"case_hits"`
	CaseMisses   int64 `json:"case_misses"`
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	// ResultCoalesced counts requests that joined an identical in-flight
	// computation (single-flight coalescing) instead of hitting a finished
	// memo entry or computing themselves.
	ResultCoalesced int64 `json:"result_coalesced"`
	// GammaExactServed / GammaSketchServed count computed requests by the
	// γ backend that served their searches.
	GammaExactServed  int64 `json:"gamma_exact_served"`
	GammaSketchServed int64 `json:"gamma_sketch_served"`
	// LP is the process-wide revised-simplex counter snapshot
	// (lp.GlobalRevisedStats) taken when the Stats call was answered.
	// Warm-path health (eta updates vs refactorizations, fallback rate)
	// is the production-observable face of the dispatch-solve cost.
	LP lp.RevisedStats `json:"lp"`
	// Estimators is the process-wide estimator-cache snapshot
	// (core.GlobalEstimatorCacheStats): how many state-estimator rebuilds
	// repeat selections avoided, and how many of the remaining builds the
	// rank-structured fast path served instead of a full QR.
	Estimators core.EstimatorCacheStats `json:"estimators"`
	// SolveCache is the process-wide dispatch-solve memo snapshot
	// (opf.GlobalSolveCacheStats): how many dispatch LPs the bitwise
	// (loads, reactances) memo answered without touching the solver.
	SolveCache opf.SolveCacheStats `json:"solve_cache"`
	// Admission is the bounded work queue's traffic (all zero when
	// admission control is off).
	Admission AdmissionStats `json:"admission"`
	// Disk is the persistent response cache's traffic (all zero when no
	// disk cache is attached).
	Disk diskcache.Stats `json:"disk_cache"`
}

// Delta returns the counter increments between an earlier Stats snapshot
// and this one (field-wise s − since). The process-global counters served
// by /v1/stats are cumulative; tests, CI and dashboards diff two
// snapshots with it instead of racing absolute values. The γ-backend
// label is copied from the newer snapshot.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		CaseHits:          s.CaseHits - since.CaseHits,
		CaseMisses:        s.CaseMisses - since.CaseMisses,
		ResultHits:        s.ResultHits - since.ResultHits,
		ResultMisses:      s.ResultMisses - since.ResultMisses,
		ResultCoalesced:   s.ResultCoalesced - since.ResultCoalesced,
		GammaExactServed:  s.GammaExactServed - since.GammaExactServed,
		GammaSketchServed: s.GammaSketchServed - since.GammaSketchServed,
		LP:                s.LP.Delta(since.LP),
		Estimators:        s.Estimators.Delta(since.Estimators),
		SolveCache:        s.SolveCache.Delta(since.SolveCache),
		Admission:         s.Admission.Delta(since.Admission),
		Disk:              s.Disk.Delta(since.Disk),
	}
}

// Planner is the long-running selection service. Safe for concurrent use.
type Planner struct {
	cfg    Config
	runner *scenario.Runner
	adm    *admission
	disk   *diskcache.Cache

	cases   *memo.Cache[string, *grid.Network]
	results *memo.Cache[string, result]
	// caseCounts and resultCounts receive the two memos' lookup outcomes;
	// Stats reports them as the case and result counters.
	caseCounts, resultCounts memo.Counters
	// gammaExact and gammaSketch count computed requests by the γ backend
	// that served them.
	gammaExact, gammaSketch atomic.Int64
}

// result is one memoized response and how it was produced.
type result struct {
	resp    any
	elapsed time.Duration
	source  string // SourceComputed or SourceDisk
}

// New builds a planner.
func New(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	p := &Planner{
		cfg:    cfg,
		runner: scenario.NewRunner(),
		adm:    newAdmission(cfg.MaxInflight, cfg.QueueDepth),
		disk:   cfg.Disk,
	}
	p.cases = memo.New[string, *grid.Network](cfg.MaxCases, &p.caseCounts, nil)
	// A shed is never memoized: the entry is dropped before its waiters
	// return, so a retry re-enters the admission queue instead of
	// replaying the rejection from cache.
	p.results = memo.New[string, result](cfg.MaxResults, &p.resultCounts,
		func(err error) bool { return errors.Is(err, ErrOverloaded) })
	return p
}

// Stats returns a snapshot of the cache counters plus the process-wide
// revised-simplex counters.
func (p *Planner) Stats() Stats {
	return Stats{
		CaseHits:          p.caseCounts.Hit.Load() + p.caseCounts.Joined.Load(),
		CaseMisses:        p.caseCounts.Computed.Load(),
		ResultHits:        p.resultCounts.Hit.Load(),
		ResultMisses:      p.resultCounts.Computed.Load(),
		ResultCoalesced:   p.resultCounts.Joined.Load(),
		GammaExactServed:  p.gammaExact.Load(),
		GammaSketchServed: p.gammaSketch.Load(),
		LP:                lp.GlobalRevisedStats(),
		Estimators:        core.GlobalEstimatorCacheStats(),
		SolveCache:        opf.GlobalSolveCacheStats(),
		Admission:         p.adm.stats(),
		Disk:              p.disk.Stats(),
	}
}

// caseFor resolves the immutable network of a (case, load scale) pair
// through the LRU. The returned network must never be mutated — the
// scenario runner keys its engine cache on the pointer.
func (p *Planner) caseFor(name string, scale float64) (*grid.Network, error) {
	if scale == 0 {
		scale = 1
	}
	key := fmt.Sprintf("%s|%g", name, scale)
	n, _, err := p.cases.Get(key, func() (*grid.Network, error) {
		n, err := grid.CaseByName(name)
		if err == nil && scale != 1 {
			n.ScaleLoads(scale)
		}
		return n, err
	})
	return n, err
}

// The Source values a served response reports: where its payload came
// from.
const (
	// SourceComputed marks a freshly computed response.
	SourceComputed = "computed"
	// SourceMemo marks a response served from the in-memory memo.
	SourceMemo = "memo"
	// SourceCoalesced marks a request that joined an identical in-flight
	// computation (single-flight coalescing) and shares its response.
	SourceCoalesced = "coalesced"
	// SourceDisk marks a response loaded from the persistent disk cache
	// (first request for the key in this process, computed by an earlier
	// one).
	SourceDisk = "disk"
)

// memo runs compute under the response memo: the first request with a key
// computes (after a disk-cache probe and, when configured, admission),
// every later identical request returns the stored response — joining the
// in-flight computation (coalesced) or reading the finished entry (memo
// hit). The returned source labels which of the four paths served.
func (p *Planner) memo(key string, compute func() (any, error)) (resp any, elapsed time.Duration, source string, err error) {
	r, outcome, err := p.results.Get(key, func() (result, error) {
		start := time.Now()
		if data, hit := p.disk.Get(p.diskKey(key)); hit {
			if resp, derr := decodeResponse(key, data); derr == nil {
				return result{resp, time.Since(start), SourceDisk}, nil
			}
			// The envelope key verified but the payload didn't decode (a
			// response-schema change): fall through and recompute; the
			// write-through below overwrites the stale entry.
		}
		if aerr := p.adm.acquire(); aerr != nil {
			return result{elapsed: time.Since(start), source: SourceComputed}, aerr
		}
		resp, err := func() (any, error) {
			defer p.adm.release()
			return compute()
		}()
		// elapsed includes the admission queue wait: it is the latency a
		// client actually observed for the computed request.
		r := result{resp, time.Since(start), SourceComputed}
		if err == nil {
			if data, merr := json.Marshal(resp); merr == nil {
				p.disk.Put(p.diskKey(key), data)
			}
		}
		return r, err
	})
	switch outcome {
	case memo.Joined:
		r.source = SourceCoalesced
	case memo.Hit:
		r.source = SourceMemo
	}
	return r.resp, r.elapsed, r.source, err
}

// diskKey extends the bitwise memo key with the case registry content
// hash: a persistent entry computed against different embedded case data
// can never serve.
func (p *Planner) diskKey(key string) string {
	return key + "|registry:" + grid.RegistryHash()
}

// decodeResponse unmarshals a disk-cache payload into the response type
// its memo-key prefix names.
func decodeResponse(key string, data []byte) (any, error) {
	var v any
	switch {
	case strings.HasPrefix(key, "select|"):
		v = new(SelectResponse)
	case strings.HasPrefix(key, "gamma|"):
		v = new(GammaResponse)
	case strings.HasPrefix(key, "day|"):
		v = new(DaySweepResponse)
	case strings.HasPrefix(key, "placement|"):
		v = new(PlacementResponse)
	default:
		return nil, fmt.Errorf("planner: unknown response kind for key %q", key)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// ---- Select ----------------------------------------------------------------

// SelectRequest asks for one problem-(4) selection, parameterized exactly
// like one mtdscan sweep point: the attacker's knowledge defaults to the
// case's problem-(1) solution at the requested loads (XOld overrides it),
// and the response carries the achieved γ, the η'(δ) curve against the
// request's attack model, and the operational cost.
type SelectRequest struct {
	Case           string  `json:"case"`
	GammaThreshold float64 `json:"gamma_threshold"`
	// MaxGamma falls back to the hardware's best design when the threshold
	// is unreachable (or is the request itself when GammaThreshold is 0).
	MaxGamma  bool    `json:"max_gamma,omitempty"`
	LoadScale float64 `json:"load_scale,omitempty"`
	// XOld optionally fixes the attacker-known reactance vector.
	XOld     []float64 `json:"x_old,omitempty"`
	Starts   int       `json:"starts,omitempty"`
	MaxEvals int       `json:"max_evals,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Attacks  int       `json:"attacks,omitempty"`
	Sigma    float64   `json:"sigma,omitempty"`
	Alpha    float64   `json:"alpha,omitempty"`
	// GammaBackend selects the γ-evaluation backend of the search ("auto",
	// "exact" or "sketch"; empty = auto). The approximate sketch backend
	// only guide the search — the served γ and η' values are exact.
	GammaBackend string `json:"gamma_backend,omitempty"`
}

// SelectResponse is a served selection.
type SelectResponse struct {
	Case             string    `json:"case"`
	GammaThreshold   float64   `json:"gamma_threshold"`
	Gamma            float64   `json:"gamma"`
	Deltas           []float64 `json:"deltas"`
	Eta              []float64 `json:"eta"`
	CostIncrease     float64   `json:"cost_increase"`
	BaselineCost     float64   `json:"baseline_cost"`
	CostPerHour      float64   `json:"cost_per_hour"`
	Undetectable     float64   `json:"undetectable"`
	Reactances       []float64 `json:"reactances"`
	MaxGammaFallback bool      `json:"max_gamma_fallback,omitempty"`
	// GammaBackend reports which γ backend served the search (the resolved
	// value: "exact" or "sketch").
	GammaBackend string `json:"gamma_backend"`
	// CacheHit reports whether any cache served (memo, coalesced in-flight
	// computation, or disk); Source names which ("computed", "memo",
	// "coalesced" or "disk").
	CacheHit  bool    `json:"cache_hit"`
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (r SelectRequest) key() string {
	return fmt.Sprintf("select|%s|%g|%v|%g|%v|%d|%d|%d|%d|%g|%g|%s",
		r.Case, r.GammaThreshold, r.MaxGamma, r.LoadScale, r.XOld,
		r.Starts, r.MaxEvals, r.Seed, r.Attacks, r.Sigma, r.Alpha, r.GammaBackend)
}

func (r SelectRequest) withDefaults() SelectRequest {
	if r.Starts <= 0 {
		r.Starts = 6
	}
	return r
}

// Select serves one memoized selection request.
func (p *Planner) Select(req SelectRequest) (*SelectResponse, error) {
	req = req.withDefaults()
	// Parse (and normalize) the γ backend before the memo: a bad value
	// never occupies an LRU slot, and every spelling of one backend
	// ("", "auto", "Exact", ...) that resolves identically shares one key.
	gb, err := subspace.ParseGammaBackend(req.GammaBackend)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	req.GammaBackend = subspace.EffectiveGammaBackend(gb).String()
	resp, elapsed, source, err := p.memo(req.key(), func() (any, error) {
		return p.computeSelect(req, gb)
	})
	if err != nil {
		return nil, err
	}
	out := *(resp.(*SelectResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}

func (p *Planner) computeSelect(req SelectRequest, gb core.GammaBackend) (*SelectResponse, error) {
	n, err := p.caseFor(req.Case, req.LoadScale)
	if err != nil {
		return nil, err
	}
	effCfg := core.EffectivenessConfig{
		NumAttacks: req.Attacks, Sigma: req.Sigma, Alpha: req.Alpha, Seed: req.Seed,
		GammaBackend: gb,
	}
	if len(req.XOld) > 0 {
		return p.selectExplicitXOld(req, n, gb, effCfg)
	}
	spec := scenario.Spec{
		Kind:            scenario.GammaSweep,
		Net:             n,
		Backend:         p.cfg.Backend,
		GammaBackend:    gb,
		GammaGrid:       []float64{req.GammaThreshold},
		CapWithMaxGamma: req.MaxGamma,
		SelectStarts:    req.Starts,
		MaxEvals:        req.MaxEvals,
		Seed:            req.Seed,
		OPFStarts:       req.Starts,
		OPFMaxEvals:     req.MaxEvals,
		OPFSeed:         req.Seed,
		Effectiveness:   effCfg,
		Parallelism:     p.cfg.Parallelism,
	}
	if req.MaxGamma && req.GammaThreshold <= 0 {
		// A pure max-γ request: an unreachable sentinel threshold forces
		// the sweep straight into its max-γ cap.
		spec.GammaGrid = []float64{1e9}
	}
	res, err := p.runner.Run(spec)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		if res.Exhausted && !req.MaxGamma {
			return nil, fmt.Errorf("%w: γ_th=%g on %s", ErrUnreachable, req.GammaThreshold, req.Case)
		}
		return nil, fmt.Errorf("planner: no operable design on %s (max-γ corner infeasible)", req.Case)
	}
	// The runner reports the backend that actually served the search (a
	// sketch request whose old-side Gram matrix defeats the construction
	// degrades to exact) — that, not the requested value, is what the
	// response and the served-backend counters record.
	served := res.GammaBackendUsed
	p.countGammaServed(served)
	row := res.Rows[len(res.Rows)-1]
	return &SelectResponse{
		Case:             req.Case,
		GammaThreshold:   req.GammaThreshold,
		Gamma:            row.Gamma,
		Deltas:           row.Deltas,
		Eta:              row.Eta,
		CostIncrease:     row.CostIncrease,
		BaselineCost:     row.BaselineCost,
		CostPerHour:      row.MTDCost,
		Undetectable:     row.Undetectable,
		Reactances:       row.Reactances,
		MaxGammaFallback: req.MaxGamma && row.GammaTarget == 0,
		GammaBackend:     served.String(),
	}, nil
}

// countGammaServed records which γ backend actually served a computed
// request (called only after a successful computation, with the engine's
// resolved backend).
func (p *Planner) countGammaServed(gb core.GammaBackend) {
	if subspace.EffectiveGammaBackend(gb) == core.SketchGamma {
		p.gammaSketch.Add(1)
	} else {
		p.gammaExact.Add(1)
	}
}

// selectExplicitXOld serves a request whose attacker knowledge is given:
// the planner works directly on the shared engines (the setpoint hash —
// case, scale, x_old — keys the γ engine, the dispatch engine comes from
// the runner's cache).
func (p *Planner) selectExplicitXOld(req SelectRequest, n *grid.Network, gb core.GammaBackend, effCfg core.EffectivenessConfig) (*SelectResponse, error) {
	if len(req.XOld) != n.L() {
		return nil, fmt.Errorf("planner: x_old has %d entries, case %s has %d branches", len(req.XOld), req.Case, n.L())
	}
	eng, err := p.runner.DispatchEngine(n, p.cfg.Backend)
	if err != nil {
		return nil, err
	}
	baseline, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
		Starts: req.Starts, MaxEvals: req.MaxEvals, Seed: req.Seed, Parallelism: p.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	engines := core.NewEnginesSharedBackend(n, req.XOld, eng, gb)
	selCfg := core.SelectConfig{
		GammaThreshold: req.GammaThreshold,
		Starts:         req.Starts,
		MaxEvals:       req.MaxEvals,
		Seed:           req.Seed,
		BaselineCost:   baseline.CostPerHour,
		Parallelism:    p.cfg.Parallelism,
	}
	sel, err := core.SelectMTDWith(engines, n, req.XOld, selCfg)
	fellBack := false
	if errors.Is(err, core.ErrConstraintUnreachable) || (req.MaxGamma && req.GammaThreshold <= 0) {
		if !req.MaxGamma {
			return nil, fmt.Errorf("%w: γ_th=%g on %s", ErrUnreachable, req.GammaThreshold, req.Case)
		}
		fellBack = err != nil
		sel, err = core.MaxGammaWith(engines, n, req.XOld, core.MaxGammaConfig{
			Starts: req.Starts, MaxEvals: req.MaxEvals, Seed: req.Seed,
			BaselineCost: baseline.CostPerHour, Parallelism: p.cfg.Parallelism,
		})
	}
	if err != nil {
		return nil, err
	}
	zOld, err := core.OperatingMeasurementsEngine(n, eng, req.XOld)
	if err != nil {
		return nil, err
	}
	attacks, err := engines.SampleAttacks(zOld, effCfg)
	if err != nil {
		return nil, err
	}
	// The runner's shared per-network estimator cache memoizes the post-MTD
	// QR across requests against this case (and rank-structured-rebuilds it
	// on a miss) — the network pointer comes from the planner's case LRU,
	// so the key is effectively (case, load scale, x_new).
	effCfg.Estimators = p.runner.EstimatorCache(n)
	eff, err := core.EvaluateSelection(n, attacks, sel, effCfg)
	if err != nil {
		return nil, err
	}
	served := engines.Gamma().Backend()
	p.countGammaServed(served)
	return &SelectResponse{
		Case:             req.Case,
		GammaThreshold:   req.GammaThreshold,
		Gamma:            eff.Gamma,
		Deltas:           eff.Deltas,
		Eta:              eff.Eta,
		CostIncrease:     sel.CostIncrease,
		BaselineCost:     sel.BaselineCost,
		CostPerHour:      sel.OPF.CostPerHour,
		Undetectable:     eff.UndetectableFraction,
		Reactances:       sel.Reactances,
		MaxGammaFallback: fellBack,
		GammaBackend:     served.String(),
	}, nil
}

// ---- Gamma -----------------------------------------------------------------

// GammaRequest asks for the subspace separation between two reactance
// settings of a case (XOld empty = the case's nominal reactances).
type GammaRequest struct {
	Case string    `json:"case"`
	XOld []float64 `json:"x_old,omitempty"`
	XNew []float64 `json:"x_new"`
}

// GammaResponse carries γ(H(x_old), H(x_new)).
type GammaResponse struct {
	Case      string  `json:"case"`
	Gamma     float64 `json:"gamma"`
	CacheHit  bool    `json:"cache_hit"`
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Gamma serves one memoized γ evaluation.
func (p *Planner) Gamma(req GammaRequest) (*GammaResponse, error) {
	key := fmt.Sprintf("gamma|%s|%v|%v", req.Case, req.XOld, req.XNew)
	resp, elapsed, source, err := p.memo(key, func() (any, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		xOld := req.XOld
		if len(xOld) == 0 {
			xOld = n.Reactances()
		}
		if len(xOld) != n.L() || len(req.XNew) != n.L() {
			return nil, fmt.Errorf("planner: reactance vectors must have %d entries for case %s", n.L(), req.Case)
		}
		return &GammaResponse{Case: req.Case, Gamma: core.Gamma(n, xOld, req.XNew)}, nil
	})
	if err != nil {
		return nil, err
	}
	out := *(resp.(*GammaResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}

// ---- Day sweep -------------------------------------------------------------

// DaySweepRequest asks for a (subset of a) Section VII-C operating day.
// The defaults are service-sized: quick tuning budgets on three
// representative hours; pass explicit fields for the full protocol.
type DaySweepRequest struct {
	Case        string  `json:"case"`
	Hours       []int   `json:"hours,omitempty"`
	PeakLoadMW  float64 `json:"peak_load_mw,omitempty"`
	TargetDelta float64 `json:"target_delta,omitempty"`
	TargetEta   float64 `json:"target_eta,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	Attacks     int     `json:"attacks,omitempty"`
	Starts      int     `json:"starts,omitempty"`
	OPFStarts   int     `json:"opf_starts,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// DaySweepHour is one served hour.
type DaySweepHour struct {
	Hour         int     `json:"hour"`
	TotalLoadMW  float64 `json:"total_load_mw"`
	BaselineCost float64 `json:"baseline_cost"`
	MTDCost      float64 `json:"mtd_cost"`
	CostIncrease float64 `json:"cost_increase"`
	Gamma        float64 `json:"gamma"`
	Eta          float64 `json:"eta"`
}

// DaySweepResponse is a served day sweep.
type DaySweepResponse struct {
	Case      string         `json:"case"`
	Hours     []DaySweepHour `json:"hours"`
	CacheHit  bool           `json:"cache_hit"`
	Source    string         `json:"source,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

func (r DaySweepRequest) withDefaults() DaySweepRequest {
	if len(r.Hours) == 0 {
		r.Hours = []int{2, 8, 17} // trough, shoulder, peak
	}
	if r.TargetDelta <= 0 {
		r.TargetDelta = 0.9
	}
	if r.TargetEta <= 0 {
		r.TargetEta = 0.9
	}
	if r.Iterations <= 0 {
		r.Iterations = 2
	}
	if r.Attacks <= 0 {
		r.Attacks = 100
	}
	if r.Starts <= 0 {
		r.Starts = 2
	}
	if r.OPFStarts <= 0 {
		r.OPFStarts = 3
	}
	return r
}

// DaySweep serves one memoized day sweep.
func (p *Planner) DaySweep(req DaySweepRequest) (*DaySweepResponse, error) {
	req = req.withDefaults()
	key := fmt.Sprintf("day|%s|%v|%g|%g|%g|%d|%d|%d|%d|%d",
		req.Case, req.Hours, req.PeakLoadMW, req.TargetDelta, req.TargetEta,
		req.Iterations, req.Attacks, req.Starts, req.OPFStarts, req.Seed)
	resp, elapsed, source, err := p.memo(key, func() (any, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		res, err := p.runner.Run(scenario.Spec{
			Kind:       scenario.DaySweep,
			Net:        n,
			Backend:    p.cfg.Backend,
			Hours:      req.Hours,
			PeakLoadMW: req.PeakLoadMW,
			Warmup:     true,
			Tune: core.TuneConfig{
				TargetDelta: req.TargetDelta,
				TargetEta:   req.TargetEta,
				Iterations:  req.Iterations,
				Effectiveness: core.EffectivenessConfig{
					NumAttacks: req.Attacks,
				},
				Select: core.SelectConfig{Starts: req.Starts, Parallelism: p.cfg.Parallelism},
			},
			OPFStarts:   req.OPFStarts,
			Seed:        req.Seed,
			Parallelism: p.cfg.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		out := &DaySweepResponse{Case: req.Case}
		for _, r := range res.Rows {
			out.Hours = append(out.Hours, DaySweepHour{
				Hour:         r.Hour,
				TotalLoadMW:  r.TotalLoadMW,
				BaselineCost: r.BaselineCost,
				MTDCost:      r.MTDCost,
				CostIncrease: r.CostIncrease,
				Gamma:        r.Gamma,
				Eta:          r.Eta[0],
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := *(resp.(*DaySweepResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}

// ---- Placement -------------------------------------------------------------

// PlacementRequest asks for a greedy D-FACTS placement study.
type PlacementRequest struct {
	Case    string `json:"case"`
	Devices int    `json:"devices,omitempty"`
	Pool    []int  `json:"pool,omitempty"`
	// AllBranches widens the pool to every branch of the case; pair it
	// with GammaBackend "sketch" so the L-wide probe rounds stay cheap
	// (each round's winner is re-checked exactly either way).
	AllBranches  bool   `json:"all_branches,omitempty"`
	GammaBackend string `json:"gamma_backend,omitempty"`
}

// PlacementRound is one greedy round's deployment.
type PlacementRound struct {
	Devices      []int   `json:"devices"`
	Gamma        float64 `json:"gamma"`
	ProbeGamma   float64 `json:"probe_gamma,omitempty"`
	CostIncrease float64 `json:"cost_increase,omitempty"`
	CostKnown    bool    `json:"cost_known"`
}

// PlacementResponse is a served placement study.
type PlacementResponse struct {
	Case      string           `json:"case"`
	Rounds    []PlacementRound `json:"rounds"`
	CacheHit  bool             `json:"cache_hit"`
	Source    string           `json:"source,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// Placement serves one memoized placement study.
func (p *Planner) Placement(req PlacementRequest) (*PlacementResponse, error) {
	// Same pre-memo parse/normalization as Select: bad values never enter
	// the LRU, equivalent spellings share one key.
	gb, err := subspace.ParseGammaBackend(req.GammaBackend)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	req.GammaBackend = subspace.EffectiveGammaBackend(gb).String()
	key := fmt.Sprintf("placement|%s|%d|%v|%v|%s", req.Case, req.Devices, req.Pool, req.AllBranches, req.GammaBackend)
	resp, elapsed, source, err := p.memo(key, func() (any, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		res, err := p.runner.Run(scenario.Spec{
			Kind:         scenario.Placement,
			Net:          n,
			Backend:      p.cfg.Backend,
			GammaBackend: gb,
			Placement: scenario.PlacementSpec{
				Devices: req.Devices, Pool: req.Pool, AllBranches: req.AllBranches,
			},
			Parallelism: p.cfg.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		p.countGammaServed(res.GammaBackendUsed)
		out := &PlacementResponse{Case: req.Case}
		for _, r := range res.Rows {
			out.Rounds = append(out.Rounds, PlacementRound{
				Devices:      r.Devices,
				Gamma:        r.Gamma,
				ProbeGamma:   r.ProbeGamma,
				CostIncrease: r.CostIncrease,
				CostKnown:    r.CostKnown,
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := *(resp.(*PlacementResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}
