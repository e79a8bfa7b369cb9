package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// Request id; Parent 0 marks a request's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory around the benchmark's calls into the
// program and labels the CPU profile with the open span's name, so that
// `go tool pprof -tagfocus layer=<name>` splits the profile by layer.
// It is used from one goroutine; goroutines the traced calls start inherit
// the profile labels but record no spans.
type tracer struct {
	t0      time.Time
	ctx     context.Context
	request string
	spans   []span
	open    []int // indexes into spans of the spans not yet ended, innermost last
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ctx: context.Background()}
}

// root runs fn as the root span of a new request.
func (t *tracer) root(request, name string, fn func() error) error {
	t.request = request
	return t.do(name, fn)
}

// do runs fn inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, fn func() error) error {
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name, Request: t.request})
	t.open = append(t.open, idx)
	var err error
	outer := t.ctx
	t.spans[idx].StartNS = int64(time.Since(t.t0))
	pprof.Do(outer, pprof.Labels("layer", name, "request", t.request), func(ctx context.Context) {
		t.ctx = ctx
		err = fn()
	})
	t.spans[idx].EndNS = int64(time.Since(t.t0))
	t.ctx = outer
	t.open = t.open[:len(t.open)-1]
	return err
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.duration() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// startProfile starts the process CPU profile into path; the returned stop
// function ends it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
