// Router mode: gridmtdd -route shard1:port,shard2:port turns the daemon
// into a thin proxy that splits the case registry across N gridmtdd
// replicas. Each request's (case, load_scale) pair is rendezvous-hashed
// (highest-random-weight) over the shard list, so one case always lands
// on one shard — its factorized engines, response memo and disk cache
// never duplicate — and removing or adding a shard only remaps the 1/N
// of the keyspace that touched it. Concurrent byte-identical POSTs are
// single-flighted at the router: one forward crosses to the shard and
// every twin replays its buffered response (the "single_flight" block
// under /v1/stats counts forwards and joins). GET /v1/stats answers the
// field-wise sum of every shard's counters; /healthz aggregates shard
// health.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxRouteBody bounds how much of a request body the router and the shard
// handlers will read (explicit x_old vectors on the 300-bus case are
// ~10 KB; 4 MiB is far beyond any legitimate request). Larger bodies are
// answered 413.
const maxRouteBody = 4 << 20

// router proxies planner traffic over a fixed shard list.
type router struct {
	shards []string // normalized base URLs, e.g. http://127.0.0.1:8643
	client *http.Client

	// Router-level single-flight: concurrent POSTs with byte-identical
	// (path, body) join the first request's forward instead of each
	// crossing the network to the shard. The shards coalesce identical
	// in-flight computations themselves, but only after every duplicate
	// has paid a proxy hop, a shard connection and an admission-queue
	// slot; coalescing at the router stops the duplicates one tier
	// earlier, where a retrying fleet client actually produces them.
	mu       sync.Mutex
	inflight map[string]*flight
	forwards int64 // POSTs that crossed to a shard
	joins    int64 // POSTs that replayed an in-flight twin's response
}

// flight is one in-flight forwarded POST plus its buffered outcome.
// done is closed after the outcome fields are final; joiners replay
// them verbatim, so every waiter answers exactly what the leader did.
type flight struct {
	done       chan struct{}
	status     int
	contentTyp string
	retryAfter string
	body       []byte
}

// newRouter normalizes and validates the shard list ("host:port" or full
// URLs, comma-separated).
func newRouter(addrs []string) (*router, error) {
	rt := &router{
		client:   &http.Client{Timeout: 5 * time.Minute},
		inflight: map[string]*flight{},
	}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		rt.shards = append(rt.shards, strings.TrimRight(a, "/"))
	}
	if len(rt.shards) == 0 {
		return nil, fmt.Errorf("gridmtdd: -route needs at least one shard address")
	}
	return rt, nil
}

// shardKey is what routing hashes: the (case, load scale) pair, with the
// same scale normalization the planner's case LRU applies — every
// endpoint touching one resolved case lands on the same shard.
func shardKey(caseName string, scale float64) string {
	if scale == 0 {
		scale = 1
	}
	return fmt.Sprintf("%s|%g", caseName, scale)
}

// pick rendezvous-hashes key over the shards: each shard scores
// fnv64a(shard NUL key) and the highest score wins. Deterministic,
// coordination-free, and minimally disruptive under shard-list changes.
func (rt *router) pick(key string) string {
	var best string
	var bestScore uint64
	for _, s := range rt.shards {
		h := fnv.New64a()
		io.WriteString(h, s)
		h.Write([]byte{0})
		io.WriteString(h, key)
		if score := h.Sum64(); best == "" || score > bestScore || (score == bestScore && s < best) {
			best, bestScore = s, score
		}
	}
	return best
}

// handler wires the router's HTTP surface. POST bodies are decoded just
// enough to learn the routing key and then forwarded verbatim.
func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.health)
	mux.HandleFunc("GET /v1/cases", func(w http.ResponseWriter, r *http.Request) {
		// Every shard embeds the same registry; the first answers for all.
		rt.forward(w, r, rt.shards[0], nil)
	})
	mux.HandleFunc("GET /v1/stats", rt.stats)
	for _, path := range []string{"/v1/select", "/v1/gamma", "/v1/daysweep", "/v1/placement"} {
		mux.HandleFunc("POST "+path, rt.route)
	}
	return mux
}

// route forwards one planner POST to the shard owning its (case, scale),
// single-flighting byte-identical concurrent requests: the first becomes
// the leader and forwards, later twins wait and replay its buffered
// response (status, Content-Type, Retry-After and body included, so even
// a coalesced 429 back-pressure verdict reaches every client).
func (rt *router) route(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var key struct {
		Case      string  `json:"case"`
		LoadScale float64 `json:"load_scale"`
	}
	if err := json.Unmarshal(body, &key); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("invalid request: %v", err)})
		return
	}
	sfKey := r.URL.Path + "?" + r.URL.RawQuery + "\x00" + string(body)

	rt.mu.Lock()
	if f, ok := rt.inflight[sfKey]; ok {
		rt.joins++
		rt.mu.Unlock()
		select {
		case <-f.done:
			f.replay(w)
		case <-r.Context().Done():
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"error": "request canceled while joined to an in-flight twin"})
		}
		return
	}
	f := &flight{done: make(chan struct{})}
	rt.inflight[sfKey] = f
	rt.forwards++
	rt.mu.Unlock()

	// The leader detaches from its own client's cancellation: joiners
	// arrived because they want this answer, so one impatient leader
	// must not poison the flight for everyone behind it. The HTTP
	// client's own timeout still bounds the forward.
	pathAndQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	rt.exec(context.WithoutCancel(r.Context()), f, rt.pick(shardKey(key.Case, key.LoadScale)), pathAndQuery, body)
	rt.mu.Lock()
	delete(rt.inflight, sfKey)
	rt.mu.Unlock()
	close(f.done)
	f.replay(w)
}

// exec performs the shard POST and buffers the outcome into f. Errors
// become the same JSON payloads forward would have written, so leader
// and joiners stay indistinguishable to clients.
func (rt *router) exec(ctx context.Context, f *flight, shard, pathAndQuery string, body []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		f.fail(http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		f.fail(http.StatusBadGateway, fmt.Sprintf("shard %s: %v", shard, err))
		return
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		f.fail(http.StatusBadGateway, fmt.Sprintf("shard %s: %v", shard, err))
		return
	}
	f.status = resp.StatusCode
	f.contentTyp = resp.Header.Get("Content-Type")
	f.retryAfter = resp.Header.Get("Retry-After")
	f.body = out
}

func (f *flight) fail(status int, msg string) {
	f.status = status
	f.contentTyp = "application/json"
	f.body, _ = json.Marshal(map[string]any{"error": msg})
	f.body = append(f.body, '\n')
}

// replay writes the buffered outcome. Safe to call from any number of
// goroutines once done is closed (the fields are read-only by then).
func (f *flight) replay(w http.ResponseWriter) {
	if f.contentTyp != "" {
		w.Header().Set("Content-Type", f.contentTyp)
	}
	if f.retryAfter != "" {
		w.Header().Set("Retry-After", f.retryAfter)
	}
	w.WriteHeader(f.status)
	w.Write(f.body)
}

// forward proxies the request to one shard, passing the response through
// byte-for-byte (status, Content-Type and Retry-After included, so shard
// 429/503 back-pressure reaches the client intact).
func (rt *router) forward(w http.ResponseWriter, r *http.Request, shard string, body []byte) {
	url := shard + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]any{"error": fmt.Sprintf("shard %s: %v", shard, err)})
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// health probes every shard; the fleet is healthy only if all shards are.
func (rt *router) health(w http.ResponseWriter, r *http.Request) {
	shardOK := map[string]bool{}
	allOK := true
	for _, s := range rt.shards {
		ok := false
		if resp, err := rt.client.Get(s + "/healthz"); err == nil {
			ok = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		shardOK[s] = ok
		allOK = allOK && ok
	}
	status := http.StatusOK
	if !allOK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ok": allOK, "shards": shardOK})
}

// stats fans /v1/stats out to every shard (the ?mark=/?since= query
// passes through, so named snapshots live per shard and their deltas sum)
// and answers the field-wise sum in the single-daemon shape — existing
// monitors and the load generator work unchanged against a router — plus
// a "router" block naming the shards.
func (rt *router) stats(w http.ResponseWriter, r *http.Request) {
	sum := map[string]any{}
	perShard := map[string]any{}
	for _, s := range rt.shards {
		url := s + "/v1/stats"
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		resp, err := rt.client.Get(url)
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]any{"error": fmt.Sprintf("shard %s: %v", s, err)})
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]any{"error": fmt.Sprintf("shard %s: %v", s, err)})
			return
		}
		if resp.StatusCode != http.StatusOK {
			// e.g. an unknown ?since= mark: pass the shard's verdict through.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			w.Write(raw)
			return
		}
		var one map[string]any
		if err := json.Unmarshal(raw, &one); err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]any{"error": fmt.Sprintf("shard %s: bad stats payload: %v", s, err)})
			return
		}
		perShard[s] = one
		sumJSON(sum, one)
	}
	rt.mu.Lock()
	forwards, joins := rt.forwards, rt.joins
	rt.mu.Unlock()
	sum["router"] = map[string]any{
		"shards": rt.shardNames(),
		"single_flight": map[string]any{
			"forwards": forwards,
			"joins":    joins,
		},
	}
	writeJSON(w, http.StatusOK, sum)
}

func (rt *router) shardNames() []string {
	out := append([]string(nil), rt.shards...)
	sort.Strings(out)
	return out
}

// sumJSON adds src into dst recursively: numbers add, objects merge,
// anything else copies from src. Summing generically over the decoded
// JSON (rather than planner.Stats fields) means every counter a future
// PR adds aggregates correctly with no router change.
func sumJSON(dst, src map[string]any) {
	for k, v := range src {
		switch sv := v.(type) {
		case float64:
			if dv, ok := dst[k].(float64); ok {
				dst[k] = dv + sv
			} else {
				dst[k] = sv
			}
		case map[string]any:
			dv, ok := dst[k].(map[string]any)
			if !ok {
				dv = map[string]any{}
				dst[k] = dv
			}
			sumJSON(dv, sv)
		default:
			dst[k] = v
		}
	}
}
