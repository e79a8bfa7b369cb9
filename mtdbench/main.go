// Command mtdbench is the repository's benchmark. It measures the MTD
// planner end to end on three workloads and, in a separate traced run,
// layer by layer:
//
//   - select: cold and warm planner.Select requests, one fresh child
//     process per sample, alternating ieee118 and ieee300;
//   - serve-mix: open-loop mixed traffic (primed memo hits plus a few
//     fresh computations) against a gridmtdd daemon built from the tree;
//   - paper-quick: every paper experiment at Quick quality, compared byte
//     for byte with the golden capture.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash mtdbench/run.sh --workload select --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones of the named workload; with --trace 1 the run replays
// all three workloads with spans around every call into the program and
// reports per-layer metrics. The lines before it print every metric under
// its full name with its unit and sample count. METRICS.md describes each
// metric. Any output that disagrees with its reference makes the run exit
// with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		root     = flag.String("root", ".", "repository root (the source tree to measure)")
		workload = flag.String("workload", "", "workload: select, serve-mix or paper-quick")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child    = flag.String("child", "", "run as a child process in this role (internal)")
		caseName = flag.String("case", "", "child: case to run (internal)")
		out      = flag.String("out", "", "child: path prefix for trace and profile files (internal)")
		writeRef = flag.String("write-select-ref", "", "regenerate the select reference file at this path and exit")
	)
	flag.Parse()
	// The benchmark process (and the load generator in it) runs on one
	// core; children and the daemon get GOMAXPROCS=1 through their
	// environment.
	runtime.GOMAXPROCS(1)

	if *child != "" {
		if err := runChild(*child, *caseName, *out); err != nil {
			fmt.Fprintln(os.Stderr, "mtdbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *writeRef != "" {
		if err := writeSelectRefs(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "mtdbench:", err)
			os.Exit(1)
		}
		return
	}
	env, err := newEnv(*root, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtdbench:", err)
		os.Exit(2)
	}
	rep, err := run(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtdbench:", err)
		os.Exit(2)
	}
	if err := rep.emit(env); err != nil {
		fmt.Fprintln(os.Stderr, "mtdbench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

var workloads = map[string]func(*env, *report) error{
	"select":      runSelect,
	"serve-mix":   runServe,
	"paper-quick": runPaper,
}

// env is one run's configuration and the paths it builds and writes.
type env struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	self     string // this binary, re-executed for child processes
	daemon   string // the gridmtdd binary built from the tree
	outDir   string
	meta     meta
}

func newEnv(root, workload string, seed int64, seconds int, traced bool) (*env, error) {
	if _, ok := workloads[workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want select, serve-mix or paper-quick)", workload)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	e := &env{
		root: abs, workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traced, self: self,
		daemon: filepath.Join(abs, ".bench_build", "bin", "gridmtdd"),
		outDir: filepath.Join(abs, ".bench_build", "out"),
	}
	if err := os.MkdirAll(filepath.Join(e.outDir, "trace"), 0o755); err != nil {
		return nil, err
	}
	e.meta, err = collectMeta(abs, seed)
	return e, err
}

// run measures the workload, or with tracing on, replays every workload
// traced: the per-layer metric list is one list for the benchmark.
func run(e *env) (*report, error) {
	rep := &report{Workload: e.workload, Seed: e.seed, Traced: e.traced, Meta: e.meta}
	if !e.traced {
		return rep, workloads[e.workload](e, rep)
	}
	order := []string{e.workload}
	for _, w := range []string{"select", "serve-mix", "paper-quick"} {
		if w != e.workload {
			order = append(order, w)
		}
	}
	for _, w := range order {
		var err error
		switch w {
		case "select":
			err = traceSelect(e, rep)
		case "serve-mix":
			err = traceServe(e, rep)
		case "paper-quick":
			err = tracePaper(e, rep)
		}
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one fully named metric of the printed record.
type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
	Value float64 `json:"value"`
}

// report collects one run's metrics and correctness verdicts.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Meta      meta     `json:"meta"`
	Named     []named  `json:"metrics"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Result holds the metrics of the final result line, by the names
	// BENCHMARK.json lists.
	Result map[string]metric `json:"result"`
}

// add records a fully named metric; a timing carries its summary.
func (r *report) add(name, unit string, value float64, s summary) {
	r.Named = append(r.Named, named{Name: name, Unit: unit, Value: value, summary: s})
}

// addTiming records a timing's summary under name.
func (r *report) addTiming(name, unit string, xs []float64) summary {
	s := summarize(xs)
	r.add(name, unit, s.Median, s)
	return s
}

func (r *report) set(name, unit string, v float64) {
	if r.Result == nil {
		r.Result = map[string]metric{}
	}
	r.Result[name] = metric{Value: v, Unit: unit}
}

// layer records a per-layer metric: it is printed and reported.
func (r *report) layer(name, unit string, v float64) {
	r.add(name, unit, v, summary{N: 1})
	r.set(name, unit, v)
}

// check counts one checked output; a non-empty problem list fails it.
func (r *report) check(what string, problems []string) {
	r.Attempted++
	if len(problems) > 0 {
		r.Failed++
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, what+": "+strings.Join(problems, "; "))
		}
	}
}

func (r *report) fail(what string, err error) {
	r.check(what, []string{err.Error()})
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// emit prints the record and the result line, and saves the record.
func (r *report) emit(e *env) error {
	if r.Attempted > 0 {
		prefix := r.Workload
		if r.Traced {
			prefix = "trace"
		}
		r.add(prefix+".error_rate", "ratio", float64(r.Failed)/float64(r.Attempted), summary{N: r.Attempted})
	}
	m := r.Meta
	fmt.Printf("# %s seed=%d traced=%v cpu=%q nproc=%d gomaxprocs=%v go=%s commit=%s\n",
		r.Workload, r.Seed, r.Traced, m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit)
	for _, n := range r.Named {
		line := fmt.Sprintf("%-52s %14.6g %-6s n=%d", n.Name, n.Value, n.Unit, n.N)
		if n.Pct > 0 {
			line += fmt.Sprintf(" p%g=%.6g", n.Pct, n.PctVal)
		}
		fmt.Println(line)
	}
	for _, msg := range r.Errors {
		fmt.Println("MISMATCH", msg)
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d-traced%v.json", r.Workload, r.Seed, r.Traced))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Result}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runChild runs one child-process role and prints its JSON result.
func runChild(role, caseName, out string) error {
	var v any
	var err error
	switch role {
	case "select":
		v, err = childSelect(caseName)
	case "select-trace":
		v, err = childSelectTrace(caseName, out)
	case "paper":
		v, err = childPaper(false, "")
	case "paper-trace":
		v, err = childPaper(true, out)
	case "paper-setup":
		v, err = childPaperSetup()
	default:
		return fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}
