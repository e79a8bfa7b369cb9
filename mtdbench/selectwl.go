package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner"
	"gridmtd/internal/scenario"
	"gridmtd/internal/subspace"
)

// The select workload's requests: the CI smoke request as the cold one,
// then a distinct follow-up on the same planner as the warm one.
var selectCases = []string{"ieee118", "ieee300"}

var selectPhases = []string{"cold", "warm"}

func selectRequest(caseName, phase string) planner.SelectRequest {
	r := planner.SelectRequest{
		Case: caseName, GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	if phase == "warm" {
		r.Seed, r.GammaThreshold = 2, 0.08
	}
	return r
}

//go:embed testdata/select_ref.json
var selectRefJSON []byte

func loadSelectRefs() (map[string]selectRef, error) {
	var refs []selectRef
	if err := json.Unmarshal(selectRefJSON, &refs); err != nil {
		return nil, fmt.Errorf("select references: %w", err)
	}
	out := map[string]selectRef{}
	for _, r := range refs {
		out[r.Case+"."+r.Phase] = r
	}
	return out, nil
}

// selectChildOut is what one select child reports.
type selectChildOut struct {
	ReadyUnixNS int64                  `json:"ready_unix_ns"`
	ColdS       float64                `json:"cold_s"`
	WarmS       float64                `json:"warm_s"`
	Cold        planner.SelectResponse `json:"cold"`
	Warm        planner.SelectResponse `json:"warm"`
	CalS        []float64              `json:"cal_s"`
}

// childSelect is one sample: a new planner answers the cold request, then
// the warm one.
func childSelect(caseName string) (*selectChildOut, error) {
	p := planner.New(planner.Config{})
	out := &selectChildOut{ReadyUnixNS: time.Now().UnixNano()}
	var sp speedometer
	for _, phase := range selectPhases {
		sp.sample(calibrationBurst)
		start := time.Now()
		resp, err := p.Select(selectRequest(caseName, phase))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", caseName, phase, err)
		}
		d := time.Since(start).Seconds()
		if phase == "cold" {
			out.ColdS, out.Cold = d, *resp
		} else {
			out.WarmS, out.Warm = d, *resp
		}
	}
	sp.sample(calibrationBurst)
	out.CalS = sp.samples
	return out, nil
}

// selectRound is the order of samples in one round of the closed loop:
// an ieee118 child costs a tenth of an ieee300 one, so each round takes
// three of them to steady its medians.
var selectRound = []string{"ieee300", "ieee118", "ieee118", "ieee118"}

// runSelect is the closed loop: one child per sample, in rounds, until the
// run's time is spent and at least two rounds are done. The requests are
// fixed, so the seed only labels the record.
func runSelect(e *env, rep *report) error {
	refs, err := loadSelectRefs()
	if err != nil {
		return err
	}
	times := map[string][]float64{}
	var setup, rss []float64
	var speed speedometer
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds || i < 2*len(selectRound); i++ {
		c := selectRound[i%len(selectRound)]
		var out selectChildOut
		cr, err := spawnChild(e, &out, "-child", "select", "-case", c)
		if err != nil {
			rep.fail("select "+c, err)
			continue
		}
		setup = append(setup, float64(out.ReadyUnixNS-cr.Start.UnixNano())/1e9)
		rss = append(rss, cr.PeakMB)
		speed.add(out.CalS)
		times[c+".cold"] = append(times[c+".cold"], out.ColdS)
		times[c+".warm"] = append(times[c+".warm"], out.WarmS)
		rep.check("select "+c+" cold", refs[c+".cold"].compare(&out.Cold, fast))
		rep.check("select "+c+" warm", refs[c+".warm"].compare(&out.Warm, fast))
	}
	var cold, warm []float64
	for _, c := range selectCases {
		cold = append(cold, rep.addTiming("select_cold_"+c+"_s", "s", times[c+".cold"]).Median)
		warm = append(warm, rep.addTiming("select_warm_"+c+"_s", "s", times[c+".warm"]).Median)
	}
	if len(setup) == 0 {
		return errors.New("select: no sample completed")
	}
	su := rep.addTiming("select.setup_s", "s", setup)
	peak := maxOf(rss)
	rep.add("select.peak_rss_mb", "MB", peak, summary{N: len(rss)})
	f := rep.scale(&speed)
	for _, m := range []struct {
		name, unit string
		v          float64
	}{{"latency_ms", "ms", 1000 * geomean(warm...)}, {"slow_ms", "ms", 1000 * geomean(cold...)}, {"setup_s", "s", su.Median}} {
		rep.add("select.scaled."+m.name, m.unit, m.v/f, summary{N: 1})
	}
	rep.setTimes(1000*geomean(warm...)/f, 1000*geomean(cold...)/f, su.Median/f)
	rep.set("peak_rss_mb", "MB", peak)
	return nil
}

// ---- traced replay ----------------------------------------------------------

// selectLayers are the spans of one replayed request, in call order.
var selectLayers = []string{
	"grid.case", "opf.engine_build", "opf.baseline", "core.attack_sample",
	"core.gamma_setup", "core.search", "se.estimator_build", "core.attack_eval",
}

// phaseTrace is one replayed request's per-layer breakdown.
type phaseTrace struct {
	LayerS   map[string]float64 `json:"layer_s"`
	SelfS    float64            `json:"self_s"`
	TotalS   float64            `json:"total_s"`
	Counters map[string]float64 `json:"counters"`
}

type selectTraceOut struct {
	Phases map[string]phaseTrace `json:"phases"`
	// Mismatch lists every replayed result that is not bitwise equal to
	// planner.Select's on a fresh planner in the same process.
	Mismatch []string                          `json:"mismatch"`
	Results  map[string]planner.SelectResponse `json:"results"`
}

// counterSnap is the process-wide counters the replay reports as deltas.
type counterSnap struct {
	lp  lp.RevisedStats
	sc  opf.SolveCacheStats
	est core.EstimatorCacheStats
}

func snapCounters() counterSnap {
	return counterSnap{lp.GlobalRevisedStats(), opf.GlobalSolveCacheStats(), core.GlobalEstimatorCacheStats()}
}

func (s counterSnap) delta(since counterSnap) map[string]float64 {
	d := s.lp.Delta(since.lp)
	sc := s.sc.Delta(since.sc)
	est := s.est.Delta(since.est)
	return map[string]float64{
		"lp.solves":                float64(d.Solves),
		"lp.pivots":                float64(d.PrimalPivots + d.DualPivots),
		"lp.refactorizations":      float64(d.Refactorizations),
		"lp.prescreen_hits":        float64(d.PrescreenHits),
		"lp.bound_screen_rate":     ratio(d.BoundScreens, d.BoundProbes),
		"opf.solve_cache_hit_rate": ratio(sc.Hits, sc.Hits+sc.Misses),
		"se.fast_builds":           float64(est.FastBuilds),
		"se.full_qrs":              float64(est.FullQRs),
		"se.cache_hits":            float64(est.Hits),
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// childSelectTrace replays the planner's select path call by call (the
// scenario runner's order for a one-point γ sweep) under spans and the
// layer-labelled CPU profile, then checks the replay against
// planner.Select bitwise.
func childSelectTrace(caseName, outPrefix string) (*selectTraceOut, error) {
	stop, err := startProfile(outPrefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	runner := scenario.NewRunner()
	out := &selectTraceOut{Phases: map[string]phaseTrace{}, Results: map[string]planner.SelectResponse{}}
	var n *grid.Network
	var eng *opf.DispatchEngine
	for _, phase := range selectPhases {
		req := selectRequest(caseName, phase)
		gb, err := subspace.ParseGammaBackend(req.GammaBackend)
		if err != nil {
			return nil, err
		}
		before := snapCounters()
		first := len(tr.spans)
		var resp planner.SelectResponse
		err = tr.root(caseName+"."+phase, "select", func() error {
			if n == nil {
				if err := tr.do("grid.case", func() (err error) {
					n, err = grid.CaseByName(caseName)
					return err
				}); err != nil {
					return err
				}
				if err := tr.do("opf.engine_build", func() (err error) {
					eng, err = runner.DispatchEngine(n, grid.AutoBackend)
					return err
				}); err != nil {
					return err
				}
			}
			r, err := replaySelect(tr, runner, n, eng, req, gb)
			if r != nil {
				resp = *r
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s %s replay: %w", caseName, phase, err)
		}
		out.Phases[phase] = phaseBreakdown(tr.spans[first:], snapCounters().delta(before))
		out.Results[phase] = resp
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if err := writeTrace(outPrefix+".trace.json", tr.spans); err != nil {
		return nil, err
	}
	p := planner.New(planner.Config{})
	for _, phase := range selectPhases {
		want, err := p.Select(selectRequest(caseName, phase))
		if err != nil {
			return nil, err
		}
		ref := refFromResponse(phase, 0, want)
		got := out.Results[phase]
		for _, msg := range ref.compare(&got, exact) {
			out.Mismatch = append(out.Mismatch, phase+" "+msg)
		}
	}
	return out, nil
}

// replaySelect is planner.Select's computation for a request without x_old,
// one span per public call.
func replaySelect(tr *tracer, runner *scenario.Runner, n *grid.Network, eng *opf.DispatchEngine, req planner.SelectRequest, gb core.GammaBackend) (*planner.SelectResponse, error) {
	effCfg := core.EffectivenessConfig{NumAttacks: req.Attacks, Seed: req.Seed, GammaBackend: gb}
	var pre *opf.Result
	if err := tr.do("opf.baseline", func() (err error) {
		pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{Starts: req.Starts, MaxEvals: req.MaxEvals, Seed: req.Seed})
		return err
	}); err != nil {
		return nil, err
	}
	xOld := pre.Reactances
	var attacks *core.AttackSet
	if err := tr.do("core.attack_sample", func() error {
		zOld, err := core.OperatingMeasurements(n, xOld)
		if err != nil {
			return err
		}
		attacks, err = core.SampleAttacks(n, xOld, zOld, effCfg)
		return err
	}); err != nil {
		return nil, err
	}
	var engines *core.Engines
	tr.do("core.gamma_setup", func() error {
		engines = core.NewEnginesSharedBackend(n, xOld, eng, gb)
		return nil
	})
	var sel *core.Selection
	if err := tr.do("core.search", func() (err error) {
		sel, err = core.SelectMTDWith(engines, n, xOld, core.SelectConfig{
			GammaThreshold: req.GammaThreshold, Starts: req.Starts, MaxEvals: req.MaxEvals,
			Seed: req.Seed, BaselineCost: pre.CostPerHour,
		})
		return err
	}); err != nil {
		return nil, err
	}
	effCfg.Estimators = runner.EstimatorCache(n)
	if err := tr.do("se.estimator_build", func() error {
		_, err := effCfg.Estimators.Get(n, sel.Reactances)
		return err
	}); err != nil {
		return nil, err
	}
	var eff *core.EffectivenessResult
	if err := tr.do("core.attack_eval", func() (err error) {
		eff, err = core.EvaluateAttacks(n, attacks, sel.Reactances, effCfg)
		return err
	}); err != nil {
		return nil, err
	}
	return &planner.SelectResponse{
		Case: req.Case, GammaThreshold: req.GammaThreshold,
		Gamma: eff.Gamma, Deltas: eff.Deltas, Eta: eff.Eta,
		CostIncrease: sel.CostIncrease, BaselineCost: sel.BaselineCost, CostPerHour: sel.OPF.CostPerHour,
		Undetectable: eff.UndetectableFraction, Reactances: sel.Reactances,
	}, nil
}

// phaseBreakdown turns one request's spans (root first) into per-layer
// times: each named layer's span time and the root's self time.
func phaseBreakdown(spans []span, counters map[string]float64) phaseTrace {
	self := selfTimes(spans)
	pt := phaseTrace{LayerS: map[string]float64{}, Counters: counters}
	for _, s := range spans {
		if s.Parent == 0 {
			pt.TotalS = s.duration().Seconds()
			pt.SelfS = self[s.ID].Seconds()
			continue
		}
		pt.LayerS[s.Name] += s.duration().Seconds()
	}
	return pt
}

// traceOverheadSamples is how many untraced children per case the tracing
// overhead is measured against.
const traceOverheadSamples = 3

// traceSelect runs the traced replay on both cases, plus untraced samples
// of each for the tracing overhead.
func traceSelect(e *env, rep *report) error {
	dir := filepath.Join(e.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	refs, err := loadSelectRefs()
	if err != nil {
		return err
	}
	traced, untraced := 0.0, 0.0
	for _, c := range selectCases {
		var out selectTraceOut
		if _, err := spawnChild(e, &out, "-child", "select-trace", "-case", c, "-out", filepath.Join(dir, "select-"+c)); err != nil {
			return err
		}
		rep.check("select replay "+c+" vs planner.Select (bitwise)", out.Mismatch)
		for _, phase := range selectPhases {
			pt := out.Phases[phase]
			res := out.Results[phase]
			rep.check("select replay "+c+" "+phase+" vs reference", refs[c+"."+phase].compare(&res, fast))
			prefix := "select." + c + "." + phase + "."
			sum := pt.SelfS
			for _, l := range selectLayers {
				v, ok := pt.LayerS[l]
				if !ok {
					continue // grid.case and opf.engine_build run on the cold request only
				}
				sum += v
				rep.layer(prefix+l+"_s", "s", v)
			}
			if math.Abs(sum-pt.TotalS) > 1e-6 {
				rep.check(prefix+"spans", []string{fmt.Sprintf("layers + self = %.9f s, root = %.9f s", sum, pt.TotalS)})
			}
			rep.layer(prefix+"self_s", "s", pt.SelfS)
			rep.layer(prefix+"total_s", "s", pt.TotalS)
			for _, k := range counterNames {
				rep.layer(prefix+k, counterUnit(k), pt.Counters[k])
			}
			traced += pt.TotalS
		}
		var plain []float64
		for i := 0; i < traceOverheadSamples; i++ {
			var out selectChildOut
			if _, err := spawnChild(e, &out, "-child", "select", "-case", c); err != nil {
				return err
			}
			plain = append(plain, out.ColdS+out.WarmS)
		}
		untraced += median(plain)
	}
	rep.layer("select.trace_overhead_s", "s", traced-untraced)
	return nil
}

var counterNames = []string{
	"lp.solves", "lp.pivots", "lp.refactorizations", "lp.prescreen_hits",
	"lp.bound_screen_rate", "opf.solve_cache_hit_rate",
	"se.fast_builds", "se.full_qrs", "se.cache_hits",
}

func counterUnit(name string) string {
	if strings.HasSuffix(name, "_rate") {
		return "ratio"
	}
	return "count"
}

// writeSelectRefs answers the four select requests through planner.Select
// (one fresh planner per case, as the workload does) and writes them as
// the reference file.
func writeSelectRefs(path string) error {
	pins := map[string]*pinned{
		"ieee300.cold": {Cost: "842862.33", Gamma: "0.0671"},
		"ieee118.cold": {Cost: "139226.02", Gamma: "0.0987"},
	}
	var refs []selectRef
	for _, c := range selectCases {
		p := planner.New(planner.Config{})
		for _, phase := range selectPhases {
			req := selectRequest(c, phase)
			resp, err := p.Select(req)
			if err != nil {
				return err
			}
			ref := refFromResponse(phase, req.Seed, resp)
			ref.Pinned = pins[c+"."+phase]
			if bad := ref.compare(resp, exact); len(bad) > 0 {
				return fmt.Errorf("%s %s disagrees with its pinned values: %v", c, phase, bad)
			}
			refs = append(refs, ref)
		}
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
