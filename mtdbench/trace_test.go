package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "a.x", StartNS: 15, EndNS: 25},
		{ID: 6, Parent: 5, Name: "a.x.y", StartNS: 16, EndNS: 20},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (50 - 10) - (100 - 90), // union [10,50) and [90,100)
		2: 30 - 10,
		3: 20,
		4: 30,
		5: 10 - 4,
		6: 4,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNestsSpansAndAccountsForRoot(t *testing.T) {
	tr := newTracer()
	busy := func(d time.Duration) func() error {
		return func() error {
			for end := time.Now().Add(d); time.Now().Before(end); {
			}
			return nil
		}
	}
	err := tr.root("req-1", "root", func() error {
		if err := tr.do("outer", func() error {
			busy(time.Millisecond)()
			return tr.do("inner", busy(2*time.Millisecond))
		}); err != nil {
			return err
		}
		return tr.do("sibling", busy(time.Millisecond))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	parents := map[string]int{}
	for _, s := range tr.spans {
		if s.Request != "req-1" {
			t.Errorf("span %s has request %q", s.Name, s.Request)
		}
		parents[s.Name] = s.Parent
	}
	if parents["root"] != 0 || parents["outer"] != 1 || parents["inner"] != 2 || parents["sibling"] != 1 {
		t.Errorf("parents %v", parents)
	}
	self := selfTimes(tr.spans)
	sum := time.Duration(0)
	for _, s := range tr.spans {
		sum += self[s.ID]
	}
	if root := tr.spans[0].duration(); sum != root {
		t.Errorf("self times sum to %v, root lasted %v", sum, root)
	}
	pt := phaseBreakdown(tr.spans, nil)
	layers := pt.SelfS + pt.LayerS["outer"] + pt.LayerS["sibling"]
	if d := layers - pt.TotalS; d > 1e-9 || d < -1e-9 {
		t.Errorf("top-level layers + self = %v, root %v", layers, pt.TotalS)
	}
}
