package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/experiments"
	"gridmtd/internal/lp"
)

// goldenPath is the repository's byte-exact capture of the quick suite.
const goldenPath = "internal/experiments/testdata/golden_quick_all.txt"

// paperSetupChildren is how many extra set-up-only children a paper-quick
// run starts, so its set-up median rests on more than the suite samples.
const paperSetupChildren = 5

type paperChildOut struct {
	ReadyUnixNS int64              `json:"ready_unix_ns"`
	TotalS      float64            `json:"total_s"`
	ExpS        map[string]float64 `json:"exp_s"`
	LPSolves    int                `json:"lp_solves"`
	FullQRs     int                `json:"full_qrs"`
	Output      string             `json:"output"`
}

// childPaperSetup reports when the child was ready to run the first
// experiment, and exits without running it.
func childPaperSetup() (*paperChildOut, error) {
	ids := experiments.IDs()
	if _, ok := experiments.ByID(ids[0]); !ok {
		return nil, fmt.Errorf("experiment %s not registered", ids[0])
	}
	return &paperChildOut{ReadyUnixNS: time.Now().UnixNano()}, nil
}

// childPaper runs every experiment at Quick quality in ID order with the
// framing mtdexp prints, minus its timing lines. Traced, each experiment
// is a span under one root, labelled in the CPU profile.
func childPaper(traced bool, outPrefix string) (*paperChildOut, error) {
	var tr *tracer
	if traced {
		stop, err := startProfile(outPrefix + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		defer stop()
		tr = newTracer()
	}
	ids := experiments.IDs()
	out := &paperChildOut{ReadyUnixNS: time.Now().UnixNano(), ExpS: map[string]float64{}}
	lpBefore, estBefore := lp.GlobalRevisedStats(), core.GlobalEstimatorCacheStats()
	var buf bytes.Buffer
	suite := func() error {
		for _, id := range ids {
			e, _ := experiments.ByID(id)
			t := time.Now()
			fmt.Fprintf(&buf, "=== %s: %s (quality: %s)\n", e.ID, e.Title, experiments.Quick)
			runOne := func() error { return e.Run(&buf, experiments.Options{Quality: experiments.Quick}) }
			var err error
			if tr != nil {
				err = tr.do("paper."+id, runOne)
			} else {
				err = runOne()
			}
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			fmt.Fprintf(&buf, "\n")
			out.ExpS[id] = time.Since(t).Seconds()
			out.TotalS += out.ExpS[id]
		}
		return nil
	}
	var err error
	if tr != nil {
		err = tr.root("paper-quick", "paper", suite)
	} else {
		err = suite()
	}
	if err != nil {
		return nil, err
	}
	out.LPSolves = lp.GlobalRevisedStats().Delta(lpBefore).Solves
	out.FullQRs = core.GlobalEstimatorCacheStats().Delta(estBefore).FullQRs
	out.Output = buf.String()
	if tr != nil {
		if err := writeTrace(outPrefix+".trace.json", tr.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPaperSuite runs one suite child and checks its bytes against golden
// and that it ran no LP.
func runPaperSuite(e *env, rep *report, golden []byte, args ...string) (*paperChildOut, childRun, error) {
	var out paperChildOut
	cr, err := spawnChild(e, &out, args...)
	if err != nil {
		return nil, cr, err
	}
	var bad []string
	if !bytes.Equal([]byte(out.Output), golden) {
		bad = append(bad, fmt.Sprintf("output (%d bytes) differs from %s (%d bytes)", len(out.Output), goldenPath, len(golden)))
	}
	if out.LPSolves != 0 {
		bad = append(bad, fmt.Sprintf("%d revised-simplex solves on the golden path, want 0", out.LPSolves))
	}
	rep.check("paper-quick suite", bad)
	return &out, cr, nil
}

// runPaper runs whole suites while another fits in the run's time (at
// least two), plus set-up-only children for the set-up median.
func runPaper(e *env, rep *report) error {
	golden, err := os.ReadFile(filepath.Join(e.root, goldenPath))
	if err != nil {
		return err
	}
	var totals, setup, rss []float64
	exp := map[string][]float64{}
	start := time.Now()
	for len(totals) < 2 || time.Since(start)+time.Duration(median(totals)*float64(time.Second)) <= e.seconds {
		out, cr, err := runPaperSuite(e, rep, golden, "-child", "paper")
		if err != nil {
			return err
		}
		totals = append(totals, out.TotalS)
		setup = append(setup, float64(out.ReadyUnixNS-cr.Start.UnixNano())/1e9)
		rss = append(rss, cr.PeakMB)
		for id, s := range out.ExpS {
			exp[id] = append(exp[id], s)
		}
	}
	for i := 0; i < paperSetupChildren; i++ {
		var out paperChildOut
		cr, err := spawnChild(e, &out, "-child", "paper-setup")
		if err != nil {
			return err
		}
		setup = append(setup, float64(out.ReadyUnixNS-cr.Start.UnixNano())/1e9)
	}
	total := rep.addTiming("paper_quick_s", "s", totals)
	slowest := 0.0
	for _, id := range experiments.IDs() {
		slowest = max(slowest, median(exp[id]))
	}
	rep.add("paper.slowest_experiment_s", "s", slowest, summary{N: len(totals)})
	su := rep.addTiming("paper.setup_s", "s", setup)
	peak := maxOf(rss)
	rep.add("paper.peak_rss_mb", "MB", peak, summary{N: len(rss)})
	rep.setTimes(1000*total.Median, 1000*slowest, su.Median)
	rep.set("peak_rss_mb", "MB", peak)
	return nil
}

// tracePaper runs one traced suite and one untraced suite.
func tracePaper(e *env, rep *report) error {
	golden, err := os.ReadFile(filepath.Join(e.root, goldenPath))
	if err != nil {
		return err
	}
	dir := filepath.Join(e.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traced, _, err := runPaperSuite(e, rep, golden, "-child", "paper-trace", "-out", filepath.Join(dir, "paper"))
	if err != nil {
		return err
	}
	plain, _, err := runPaperSuite(e, rep, golden, "-child", "paper")
	if err != nil {
		return err
	}
	for _, id := range experiments.IDs() {
		rep.layer("paper."+id+"_s", "s", traced.ExpS[id])
	}
	rep.layer("paper.lp.solves", "count", float64(traced.LPSolves))
	rep.layer("paper.se.full_qrs", "count", float64(traced.FullQRs))
	rep.layer("paper.trace_overhead_s", "s", traced.TotalS-plain.TotalS)
	return nil
}
