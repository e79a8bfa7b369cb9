package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"gridmtd/internal/grid"
	"gridmtd/internal/planner"
)

// The serve-mix traffic and its fixed settings.
const (
	// serveRefRate is the reference rate (requests/s) the headline latency
	// is measured at.
	serveRefRate = 200.0
	// freshEvery places one fresh, never-repeated request in every block of
	// this many (2 %); three blocks in four carry an exact ieee118 γ, the
	// fourth an ieee57 selection.
	freshEvery = 50
	// serveSetups is how many times a run starts and primes a daemon; the
	// set-up time is their median and the last one is measured.
	serveSetups = 3
	// serveConns bounds the generator's connections to the daemon.
	serveConns = 2
)

// serveLadder is the fixed rate ladder (requests/s) for serve_max_rps.
var serveLadder = []float64{250, 500, 750, 1000, 1250}

// serveRule is the latency limit the ladder is judged by; it sits above
// the ~65 ms a fresh computation takes.
var serveRule = rateRule{LimitMS: 250, LagLimitMS: 10}

// daemonArgs are the CI load-test admission flags; no disk cache.
var daemonArgs = []string{"-max-inflight", "2", "-queue-depth", "8"}

// request is one planned POST.
type request struct {
	Path string
	Body []byte
	Pool int    // index into the primed pool, or -1 for a fresh request
	Kind string // "hit", "gamma" or "select"
}

// servePool is the fixed set of distinct bodies the daemon is primed with:
// ieee57 and ieee118 selections and γ evaluations.
func servePool() ([]request, error) {
	var pool []request
	add := func(path string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		pool = append(pool, request{Path: path, Body: b, Pool: len(pool), Kind: "hit"})
		return nil
	}
	for _, gth := range []float64{0.03, 0.04, 0.05} {
		for seed := int64(1); seed <= 4; seed++ {
			if err := add("/v1/select", select57(gth, seed)); err != nil {
				return nil, err
			}
		}
	}
	for _, gth := range []float64{0.05, 0.08} {
		for seed := int64(1); seed <= 2; seed++ {
			r := selectRequest("ieee118", "cold")
			r.GammaThreshold, r.Seed = gth, seed
			if err := add("/v1/select", r); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(57118))
	for _, c := range []string{"ieee57", "ieee118"} {
		n, err := grid.CaseByName(c)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 7; i++ {
			if err := add("/v1/gamma", planner.GammaRequest{Case: c, XNew: perturbed(n, rng)}); err != nil {
				return nil, err
			}
		}
	}
	return pool, nil
}

func select57(gth float64, seed int64) planner.SelectRequest {
	return planner.SelectRequest{
		Case: "ieee57", GammaThreshold: gth, MaxGamma: true,
		Starts: 1, MaxEvals: 30, Seed: seed, Attacks: 20, GammaBackend: "sketch",
	}
}

// perturbed draws every D-FACTS reactance uniformly within its limits.
func perturbed(n *grid.Network, rng *rand.Rand) []float64 {
	x := n.Reactances()
	lo, hi := n.DFACTSBounds()
	for k, i := range n.DFACTSIndices() {
		x[i] = lo[k] + rng.Float64()*(hi[k]-lo[k])
	}
	return x
}

// traffic draws the workload's requests from its seed: pool bodies
// uniformly, plus one fresh request at a random position in every block of
// freshEvery. Fresh keys never repeat within a run.
type traffic struct {
	rng   *rand.Rand
	pool  []request
	n118  *grid.Network
	seen  map[string]bool
	kinds []string // fresh kinds left in the current cycle of four blocks
}

func newTraffic(seed int64, pool []request) (*traffic, error) {
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		return nil, err
	}
	return &traffic{rng: rand.New(rand.NewSource(seed)), pool: pool, n118: n, seen: map[string]bool{}}, nil
}

func (t *traffic) plan(count int) ([]request, error) {
	out := make([]request, 0, count)
	for len(out) < count {
		block := min(freshEvery, count-len(out))
		fresh := t.rng.Intn(freshEvery)
		for i := 0; i < block; i++ {
			if i != fresh {
				out = append(out, t.pool[t.rng.Intn(len(t.pool))])
				continue
			}
			r, err := t.fresh()
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func (t *traffic) fresh() (request, error) {
	if len(t.kinds) == 0 {
		t.kinds = []string{"gamma", "gamma", "gamma", "select"}
		t.rng.Shuffle(len(t.kinds), func(i, j int) { t.kinds[i], t.kinds[j] = t.kinds[j], t.kinds[i] })
	}
	kind := t.kinds[0]
	t.kinds = t.kinds[1:]
	for {
		var path string
		var v any
		if kind == "gamma" {
			path, v = "/v1/gamma", planner.GammaRequest{Case: "ieee118", XNew: perturbed(t.n118, t.rng)}
		} else {
			path, v = "/v1/select", select57(0.03, 1000+t.rng.Int63n(1<<40))
		}
		b, err := json.Marshal(v)
		if err != nil {
			return request{}, err
		}
		if key := path + string(b); !t.seen[key] {
			t.seen[key] = true
			return request{Path: path, Body: b, Pool: -1, Kind: kind}, nil
		}
	}
}

// daemon is one gridmtdd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	http *http.Client

	once   sync.Once
	peakMB float64
	err    error
}

func startDaemon(e *env, logName string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(e.outDir, logName))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(e.daemon, append([]string{"-addr", addr}, daemonArgs...)...)
	cmd.Env = childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		},
	}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			readAllClose(resp.Body)
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gridmtdd did not become healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the daemon gracefully, waits for it, and returns its peak RSS.
// Later calls return the first call's result.
func (d *daemon) stop() (float64, error) {
	d.once.Do(func() {
		d.http.CloseIdleConnections()
		d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- d.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				d.err = fmt.Errorf("gridmtdd exit: %w", err)
				return
			}
			d.peakMB = peakMB(d.cmd.ProcessState)
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-done
			d.err = errors.New("gridmtdd did not drain within 30 s")
		}
	})
	return d.peakMB, d.err
}

// readAllClose drains and closes a response body.
func readAllClose(r io.ReadCloser) ([]byte, error) {
	defer r.Close()
	return io.ReadAll(r)
}

func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.http.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := readAllClose(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) stats(query string) (planner.Stats, error) {
	var s planner.Stats
	resp, err := d.http.Get(d.base + "/v1/stats?" + query)
	if err != nil {
		return s, err
	}
	b, err := readAllClose(resp.Body)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats?%s: %d %s", query, resp.StatusCode, b)
	}
	return s, json.Unmarshal(b, &s)
}

// primed is a daemon primed with the pool: the canonical payload of each
// pool entry's response, as first computed.
type primed struct {
	d         *daemon
	canonical [][]byte
}

// setUpDaemon starts a daemon, waits for /healthz and computes every pool
// body once.
func setUpDaemon(e *env, pool []request, logName string) (*primed, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(e, logName)
	if err != nil {
		return nil, 0, err
	}
	p := &primed{d: d}
	for _, r := range pool {
		status, body, err := d.post(r.Path, r.Body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var c []byte
		if err == nil {
			c, err = canonicalJSON(r.Path, body)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("priming %s %s: %w", r.Path, r.Body, err)
		}
		p.canonical = append(p.canonical, c)
	}
	return p, time.Since(start), nil
}

// phase is one open-loop window and what it measured.
type phase struct {
	reqs    []request
	shots   []shot
	backlog int
	window  planner.Stats // the daemon's counters over the window
}

// runPlanned draws seconds×rate requests and sends them at rate, with the
// daemon's counters marked around the window.
func (p *primed) runPlanned(tr *traffic, rate, seconds float64, mark string) (*phase, error) {
	reqs, err := tr.plan(int(math.Ceil(rate * seconds)))
	if err != nil {
		return nil, err
	}
	if _, err := p.d.stats("mark=" + mark); err != nil {
		return nil, err
	}
	ph := &phase{reqs: reqs}
	ph.shots, ph.backlog = openLoop(len(reqs), rate, func(i int) (int, []byte, error) {
		return p.d.post(reqs[i].Path, reqs[i].Body)
	})
	ph.window, err = p.d.stats("since=" + mark)
	return ph, err
}

// served is one response's decoded serving fields.
type served struct {
	Source    string  `json:"source"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// verifier checks every response: memo hits against the primed payload
// bitwise, fresh responses against an in-process planner afterwards.
type verifier struct {
	rep     *report
	canon   [][]byte
	pending []request
	bodies  [][]byte
}

// check verifies a served response as far as it can now, and reports how
// it was served and whether it was wrong.
func (v *verifier) check(r request, s shot) (sv served, wrong bool) {
	if err := json.Unmarshal(s.Body, &sv); err != nil {
		v.rep.fail("serve "+r.Path, err)
		return sv, true
	}
	if r.Pool < 0 {
		if sv.Source != planner.SourceComputed {
			v.rep.check("serve fresh "+r.Path, []string{"served from " + sv.Source + ", want computed"})
			return sv, true
		}
		v.pending = append(v.pending, r)
		v.bodies = append(v.bodies, s.Body)
		return sv, false
	}
	var bad []string
	if sv.Source != planner.SourceMemo {
		bad = append(bad, "served from "+sv.Source+", want memo")
	}
	c, err := canonicalJSON(r.Path, s.Body)
	if err != nil {
		bad = append(bad, err.Error())
	} else if !bytes.Equal(c, v.canon[r.Pool]) {
		bad = append(bad, "payload differs bitwise from the primed response")
	}
	v.rep.check("serve memo hit "+r.Path, bad)
	return sv, len(bad) > 0
}

// finish re-computes every fresh request in process and compares.
func (v *verifier) finish() error {
	p := planner.New(planner.Config{})
	for i, r := range v.pending {
		var resp any
		var err error
		switch r.Path {
		case "/v1/select":
			var req planner.SelectRequest
			if err = json.Unmarshal(r.Body, &req); err == nil {
				resp, err = p.Select(req)
			}
		case "/v1/gamma":
			var req planner.GammaRequest
			if err = json.Unmarshal(r.Body, &req); err == nil {
				resp, err = p.Gamma(req)
			}
		}
		if err != nil {
			v.rep.fail("serve fresh "+r.Path+" re-check", err)
			continue
		}
		want, err := json.Marshal(resp)
		if err == nil {
			want, err = canonicalJSON(r.Path, want)
		}
		if err != nil {
			return err
		}
		got, err := canonicalJSON(r.Path, v.bodies[i])
		var bad []string
		if err != nil {
			bad = append(bad, err.Error())
		} else if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("daemon %s, in-process %s", got, want))
		}
		v.rep.check("serve fresh "+r.Path, bad)
	}
	v.pending, v.bodies = nil, nil
	return nil
}

// refStats is the reference-rate window's breakdown.
type refStats struct {
	latMS                                    []float64 // from due; failures +Inf
	missMS                                   []float64 // from due, computed requests
	hitHTTPMS, gammaMS, selectMS, missWaitMS []float64
	lagMS                                    []float64
	fresh                                    int
}

// judgeReference checks every response of the reference window (a shed
// is a failure here) and splits the latencies by kind.
func judgeReference(v *verifier, ph *phase) refStats {
	var st refStats
	for i, s := range ph.shots {
		r := ph.reqs[i]
		st.lagMS = append(st.lagMS, ms(s.lag()))
		if r.Pool < 0 {
			st.fresh++
		}
		if !s.ok() {
			v.rep.check("serve "+r.Path+" at the reference rate", []string{fmt.Sprintf("status %d, err %v", s.Status, s.Err)})
			st.latMS = append(st.latMS, math.Inf(1))
			continue
		}
		sv, wrong := v.check(r, s)
		if wrong {
			st.latMS = append(st.latMS, math.Inf(1))
			continue
		}
		lat := ms(s.latency())
		st.latMS = append(st.latMS, lat)
		if r.Pool >= 0 {
			st.hitHTTPMS = append(st.hitHTTPMS, ms(s.Done-s.Sent))
			continue
		}
		if r.Kind == "gamma" {
			st.gammaMS = append(st.gammaMS, sv.ElapsedMS)
		} else {
			st.selectMS = append(st.selectMS, sv.ElapsedMS)
		}
		st.missMS = append(st.missMS, lat)
		st.missWaitMS = append(st.missWaitMS, lat-sv.ElapsedMS)
	}
	return st
}

// checkWindow asserts that the daemon computed exactly the fresh requests
// of the window and served everything else from the memo.
func checkWindow(rep *report, ph *phase, fresh int) {
	w := ph.window
	var bad []string
	if int(w.ResultMisses) != fresh {
		bad = append(bad, fmt.Sprintf("computed %d, fresh requests sent %d", w.ResultMisses, fresh))
	}
	if int(w.ResultHits+w.ResultMisses+w.ResultCoalesced) != len(ph.reqs) {
		bad = append(bad, fmt.Sprintf("memo lookups %d, requests %d", w.ResultHits+w.ResultMisses+w.ResultCoalesced, len(ph.reqs)))
	}
	rep.check("serve stats window", bad)
}

// runServe sets the daemon up serveSetups times, measures the reference
// rate on the last one for half the run's time, then climbs the rate
// ladder for three tenths of it.
func runServe(e *env, rep *report) error {
	pool, err := servePool()
	if err != nil {
		return err
	}
	tr, err := newTraffic(e.seed, pool)
	if err != nil {
		return err
	}
	var setups []float64
	var p *primed
	for i := 0; i < serveSetups; i++ {
		next, took, err := setUpDaemon(e, pool, fmt.Sprintf("gridmtdd-%d.log", i))
		if err != nil {
			return err
		}
		defer next.d.stop()
		setups = append(setups, took.Seconds())
		if p != nil {
			for k := range pool {
				rep.check("serve priming is deterministic", sameBytes(p.canonical[k], next.canonical[k]))
			}
			if _, err := p.d.stop(); err != nil {
				return err
			}
		}
		p = next
	}
	v := &verifier{rep: rep, canon: p.canonical}

	ref, err := p.runPlanned(tr, serveRefRate, 0.5*e.seconds.Seconds(), "reference")
	if err != nil {
		return err
	}
	st := judgeReference(v, ref)
	checkWindow(rep, ref, st.fresh)

	var rungs []rung
	for _, rate := range serveLadder {
		ph, err := p.runPlanned(tr, rate, 0.3*e.seconds.Seconds()/float64(len(serveLadder)), fmt.Sprintf("rung-%g", rate))
		if err != nil {
			return err
		}
		g := serveRule.judge(rate, ph.shots, ph.backlog, func(i int) bool {
			s := ph.shots[i]
			if s.ok() {
				_, wrong := v.check(ph.reqs[i], s)
				return wrong
			}
			if s.Err != nil || s.Status != http.StatusTooManyRequests {
				rep.check("serve "+ph.reqs[i].Path+" on the ladder", []string{fmt.Sprintf("status %d, err %v", s.Status, s.Err)})
			}
			return false
		})
		rungs = append(rungs, g)
		if !g.Pass && len(rungs) > 1 && !rungs[len(rungs)-2].Pass {
			break // two failing rungs in a row: the ladder is past capacity
		}
	}
	peak, err := p.d.stop()
	if err != nil {
		return err
	}
	if err := v.finish(); err != nil {
		return err
	}

	lat := summarize(st.latMS)
	rep.add("serve_p50_ms", "ms", lat.Median, lat)
	rep.add("serve_p99_ms", "ms", percentile(st.latMS, 99), lat)
	miss := rep.addTiming("serve.miss.latency_ms", "ms", st.missMS)
	rep.add("serve_max_rps", "1/s", maxRate(rungs), summary{N: len(rungs)})
	for _, g := range rungs {
		rep.add(fmt.Sprintf("serve.ladder.%g.p99_ms", g.Rate), "ms", g.P99MS, summary{N: g.Sent})
	}
	su := rep.addTiming("serve.setup_s", "s", setups)
	rep.add("serve.peak_rss_mb", "MB", peak, summary{N: 1})
	rep.setTimes(lat.Median, miss.Median, su.Median)
	rep.set("peak_rss_mb", "MB", peak)
	return nil
}

func sameBytes(a, b []byte) []string {
	if bytes.Equal(a, b) {
		return nil
	}
	return []string{fmt.Sprintf("%s vs %s", a, b)}
}

// traceServe measures one reference-rate window and reports its per-layer
// breakdown. Its spans are built afterwards from the generator's own
// timestamps, so recording them adds no work to the window.
func traceServe(e *env, rep *report) error {
	pool, err := servePool()
	if err != nil {
		return err
	}
	tr, err := newTraffic(e.seed, pool)
	if err != nil {
		return err
	}
	p, _, err := setUpDaemon(e, pool, "gridmtdd-trace.log")
	if err != nil {
		return err
	}
	defer p.d.stop()
	v := &verifier{rep: rep, canon: p.canonical}
	ph, err := p.runPlanned(tr, serveRefRate, 0.5*e.seconds.Seconds(), "trace")
	if err != nil {
		return err
	}
	st := judgeReference(v, ph)
	checkWindow(rep, ph, st.fresh)
	if _, err := p.d.stop(); err != nil {
		return err
	}
	if err := v.finish(); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(e.outDir, "trace", "serve.trace.json"), serveSpans(ph)); err != nil {
		return err
	}
	w := ph.window
	lookups := float64(w.ResultHits + w.ResultMisses + w.ResultCoalesced)
	rep.layer("serve.hit.http_p50_ms", "ms", median(st.hitHTTPMS))
	rep.layer("serve.miss.gamma_compute_p50_ms", "ms", median(st.gammaMS))
	rep.layer("serve.miss.select_compute_p50_ms", "ms", median(st.selectMS))
	rep.layer("serve.miss.wait_p50_ms", "ms", median(st.missWaitMS))
	rep.layer("serve.planner.memo_hit_rate", "ratio", float64(w.ResultHits)/lookups)
	rep.layer("serve.planner.coalesce_rate", "ratio", float64(w.ResultCoalesced)/lookups)
	rep.layer("serve.planner.computed", "count", float64(w.ResultMisses))
	rep.layer("serve.admission.queued", "count", float64(w.Admission.Queued))
	rep.layer("serve.admission.shed", "count", float64(w.Admission.Shed))
	rep.layer("serve.lp.solves", "count", float64(w.LP.Solves))
	rep.layer("serve.generator.lag_p99_ms", "ms", percentile(st.lagMS, 99))
	return nil
}

// serveSpans records each request of a window as a root span from its due
// time to its response, with a child span for the time on the wire.
func serveSpans(ph *phase) []span {
	var spans []span
	for i, s := range ph.shots {
		id := fmt.Sprintf("req-%d", i)
		root := len(spans) + 1
		spans = append(spans,
			span{ID: root, Name: "serve." + ph.reqs[i].Kind, Request: id, StartNS: int64(s.Due), EndNS: int64(s.Done)},
			span{ID: root + 1, Parent: root, Name: "serve.http", Request: id, StartNS: int64(s.Sent), EndNS: int64(s.Done)})
	}
	return spans
}
