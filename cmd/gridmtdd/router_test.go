package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridmtd/internal/planner"
)

// startFleet brings up n real planner shards and a router over them.
func startFleet(t *testing.T, n int) (*router, *httptest.Server) {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		shard := httptest.NewServer(newHandler(planner.New(planner.Config{}), time.Minute))
		t.Cleanup(shard.Close)
		addrs = append(addrs, shard.URL)
	}
	rt, err := newRouter(addrs)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.handler())
	t.Cleanup(front.Close)
	return rt, front
}

// TestRouterNormalizesAddrs pins the -route flag surface: bare host:port
// spellings, whitespace and trailing slashes all normalize, and an empty
// list is rejected.
func TestRouterNormalizesAddrs(t *testing.T) {
	rt, err := newRouter([]string{" 127.0.0.1:8643 ", "http://10.0.0.2:8643/", ""})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:8643", "http://10.0.0.2:8643"}
	if len(rt.shards) != 2 || rt.shards[0] != want[0] || rt.shards[1] != want[1] {
		t.Errorf("normalized shards %v, want %v", rt.shards, want)
	}
	if _, err := newRouter([]string{" ", ""}); err == nil {
		t.Error("empty shard list accepted")
	}
}

// TestRendezvousPick pins the hash's contract: deterministic, every
// shard reachable, and removing the non-owning shard never remaps a key
// (the minimal-disruption property that makes scaling cheap).
func TestRendezvousPick(t *testing.T) {
	rt := &router{shards: []string{"http://a:1", "http://b:1", "http://c:1"}}
	hitters := map[string]int{}
	for _, c := range []string{"case4gs", "ieee14", "ieee57", "ieee118", "ieee300", "synth1", "synth2", "synth3"} {
		key := shardKey(c, 1)
		first := rt.pick(key)
		if rt.pick(key) != first {
			t.Fatalf("pick(%q) not deterministic", key)
		}
		hitters[first]++
		// Drop a shard that does not own the key: ownership must not move.
		for _, drop := range rt.shards {
			if drop == first {
				continue
			}
			var rest []string
			for _, s := range rt.shards {
				if s != drop {
					rest = append(rest, s)
				}
			}
			if got := (&router{shards: rest}).pick(key); got != first {
				t.Errorf("dropping %s remapped %q: %s -> %s", drop, key, first, got)
			}
		}
	}
	if len(hitters) < 2 {
		t.Errorf("8 cases all landed on one shard of 3: %v", hitters)
	}
	// Scale 0 and scale 1 are the same resolved case and must share a shard.
	if shardKey("ieee14", 0) != shardKey("ieee14", 1) {
		t.Error("scale 0 and the default scale 1 hash differently")
	}
}

// TestRouterStickyAndAggregated drives real traffic through a 2-shard
// fleet: identical requests land on one shard (the repeat is that shard's
// memo hit), distinct cases spread, and the router's /v1/stats answers
// the field-wise sum with ?mark=/?since= passing through.
func TestRouterStickyAndAggregated(t *testing.T) {
	_, front := startFleet(t, 2)

	getStats := func(query string) (planner.Stats, int) {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/stats" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s planner.Stats
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
				t.Fatal(err)
			}
		}
		return s, resp.StatusCode
	}
	if _, code := getStats("?mark=w"); code != http.StatusOK {
		t.Fatalf("mark through router: status %d", code)
	}

	req := planner.SelectRequest{Case: "ieee14", GammaThreshold: 0.1, Starts: 2, Seed: 1, Attacks: 50}
	var first, second planner.SelectResponse
	if code := postJSON(t, front.URL+"/v1/select", req, &first); code != http.StatusOK {
		t.Fatalf("routed select status %d", code)
	}
	if code := postJSON(t, front.URL+"/v1/select", req, &second); code != http.StatusOK {
		t.Fatalf("repeat routed select status %d", code)
	}
	// The repeat being a cache hit proves both requests reached the same
	// shard — each shard's memo is private.
	if !second.CacheHit {
		t.Error("repeat of an identical routed request missed the shard memo — routing is not sticky")
	}
	if second.Gamma != first.Gamma {
		t.Errorf("routed repeat γ %v != first %v", second.Gamma, first.Gamma)
	}

	delta, code := getStats("?since=w")
	if code != http.StatusOK {
		t.Fatalf("since through router: status %d", code)
	}
	if delta.ResultMisses != 1 || delta.ResultHits != 1 {
		t.Errorf("aggregated window misses=%d hits=%d, want 1/1", delta.ResultMisses, delta.ResultHits)
	}
	// The aggregate carries the router block naming both shards.
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Router struct {
			Shards []string `json:"shards"`
		} `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(raw.Router.Shards) != 2 {
		t.Errorf("router stats block lists %v, want both shards", raw.Router.Shards)
	}

	// Shard errors pass through with their status: an unknown case is the
	// shard's 422, not a router 5xx.
	if code := postJSON(t, front.URL+"/v1/select",
		planner.SelectRequest{Case: "nope", GammaThreshold: 0.1}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown case through router: status %d, want 422", code)
	}
	// The case listing proxies.
	r2, err := http.Get(front.URL + "/v1/cases")
	if err != nil {
		t.Fatal(err)
	}
	var cases []map[string]any
	if err := json.NewDecoder(r2.Body).Decode(&cases); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if len(cases) < 5 {
		t.Errorf("routed case listing has %d entries", len(cases))
	}
}

// TestRouterSingleFlight pins the router-level coalescing contract: N
// concurrent byte-identical POSTs produce exactly 1 shard forward and
// N−1 joins, every caller gets the same response, and the counters show
// up in the /v1/stats router block. The fake shard blocks until the
// router has registered every join, so the count is deterministic, not
// a timing accident.
func TestRouterSingleFlight(t *testing.T) {
	const clients = 8
	release := make(chan struct{})
	var shardHits int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			atomic.AddInt64(&shardHits, 1)
			<-release
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"case":"ieee14","gamma":0.25}`))
	}))
	t.Cleanup(shard.Close)
	rt, err := newRouter([]string{shard.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.handler())
	t.Cleanup(front.Close)

	body := `{"case":"ieee14","gamma_threshold":0.1,"starts":2,"seed":1}`
	type reply struct {
		code int
		body string
	}
	replies := make(chan reply, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Post(front.URL+"/v1/select", "application/json", strings.NewReader(body))
			if err != nil {
				replies <- reply{code: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			replies <- reply{code: resp.StatusCode, body: string(b)}
		}()
	}
	// Hold the shard until the router has seen every duplicate join, so
	// no client can slip through after the flight lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rt.mu.Lock()
		joins := rt.joins
		rt.mu.Unlock()
		if joins == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router registered %d joins, want %d", joins, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	want := `{"case":"ieee14","gamma":0.25}`
	for i := 0; i < clients; i++ {
		got := <-replies
		if got.code != http.StatusOK || got.body != want {
			t.Fatalf("client %d: status %d body %q, want 200 %q", i, got.code, got.body, want)
		}
	}
	if hits := atomic.LoadInt64(&shardHits); hits != 1 {
		t.Errorf("shard saw %d POSTs, want exactly 1 (single-flight leader)", hits)
	}
	rt.mu.Lock()
	forwards, joins := rt.forwards, rt.joins
	rt.mu.Unlock()
	if forwards != 1 || joins != clients-1 {
		t.Errorf("router counters forwards=%d joins=%d, want 1/%d", forwards, joins, clients-1)
	}

	// The counters surface in the aggregated stats block.
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Router struct {
			SingleFlight struct {
				Forwards int64 `json:"forwards"`
				Joins    int64 `json:"joins"`
			} `json:"single_flight"`
		} `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if raw.Router.SingleFlight.Forwards != 1 || raw.Router.SingleFlight.Joins != clients-1 {
		t.Errorf("stats single_flight forwards=%d joins=%d, want 1/%d",
			raw.Router.SingleFlight.Forwards, raw.Router.SingleFlight.Joins, clients-1)
	}

	// Distinct bodies do NOT coalesce: a second, different request must
	// forward on its own.
	resp2, err := http.Post(front.URL+"/v1/select", "application/json",
		strings.NewReader(`{"case":"ieee14","gamma_threshold":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if hits := atomic.LoadInt64(&shardHits); hits != 2 {
		t.Errorf("distinct body coalesced: shard saw %d POSTs, want 2", hits)
	}
}

// TestRouterHealthAndDeadShard pins degraded-fleet behavior: with one
// shard down, /healthz reports 503 naming the dead shard, and a request
// routed to it answers 502 Bad Gateway rather than hanging.
func TestRouterHealthAndDeadShard(t *testing.T) {
	live := httptest.NewServer(newHandler(planner.New(planner.Config{}), time.Minute))
	t.Cleanup(live.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt, err := newRouter([]string{live.URL, deadURL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK     bool            `json:"ok"`
		Shards map[string]bool `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.OK {
		t.Errorf("healthz with a dead shard: status %d ok=%v, want 503/false", resp.StatusCode, health.OK)
	}
	if health.Shards[deadURL] || !health.Shards[live.URL] {
		t.Errorf("per-shard health %v misreports", health.Shards)
	}

	// Find a case the dead shard owns and request it: 502.
	owned := ""
	for _, c := range []string{"case4gs", "ieee14", "ieee57", "ieee118", "ieee300", "case9", "case30"} {
		if rt.pick(shardKey(c, 1)) == strings.TrimRight(deadURL, "/") {
			owned = c
			break
		}
	}
	if owned == "" {
		t.Skip("no probe case hashes to the dead shard in this run")
	}
	if code := postJSON(t, front.URL+"/v1/select",
		planner.SelectRequest{Case: owned, GammaThreshold: 0.1}, nil); code != http.StatusBadGateway {
		t.Errorf("request for a dead shard's case: status %d, want 502", code)
	}
	// Stats cannot aggregate with a shard down.
	r2, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadGateway {
		t.Errorf("stats with a dead shard: status %d, want 502", r2.StatusCode)
	}
}

// TestRouterOversizedBodyIs413: the router refuses a body past
// maxRouteBody with 413 instead of forwarding a truncated copy.
func TestRouterOversizedBodyIs413(t *testing.T) {
	_, front := startFleet(t, 1)
	if code := postStatus(t, front.URL+"/v1/select", paddedSelectBody()); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized select body status %d via the router, want 413", code)
	}
}
