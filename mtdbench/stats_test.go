package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 0},    // p90 leaves 9 beyond
		{100, 90},  // p90 leaves 10
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves 10
		{9999, 99}, // p99.9 leaves 9
		{10000, 99.9},
	} {
		p, ok := tailPercentile(c.n)
		if c.want == 0 {
			if ok {
				t.Errorf("n=%d: reported p%g, want none", c.n, p)
			}
			continue
		}
		if !ok || p != c.want {
			t.Errorf("n=%d: p%g (ok=%v), want p%g", c.n, p, ok, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, unsorted
	}
	s := summarize(xs)
	if s.N != 200 || s.Median != 100.5 || s.Pct != 95 || s.PctVal != 190 {
		t.Errorf("summary %+v", s)
	}
	if s := summarize(xs[:20]); s.Pct != 0 || s.Median != 190.5 {
		t.Errorf("small sample summary %+v", s)
	}
	if p := percentile([]float64{1, math.Inf(1), 2}, 99); !math.IsInf(p, 1) {
		t.Errorf("a miss must rank above every served request, got %v", p)
	}
	if g := geomean(2, 8); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", g)
	}
}
