package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing summary may report beside
// its median, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// minTailSamples is how many samples must lie beyond a percentile before a
// summary reports it: fewer make the percentile one or two outliers.
const minTailSamples = 10

// summary is a timing reported as a median plus its sample count, and the
// highest percentile with at least minTailSamples samples beyond it (Pct 0
// when the sample is too small for any).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Pct    float64 `json:"pct,omitempty"`
	PctVal float64 `json:"pct_value,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	if p, ok := tailPercentile(len(xs)); ok {
		s.Pct = p
		s.PctVal = percentileSorted(sorted, p)
	}
	return s
}

// tailPercentile returns the highest of tailPercentiles that has at least
// minTailSamples of n samples strictly beyond its nearest-rank position.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= minTailSamples {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func nearestRank(n int, p float64) int {
	// The small offset keeps p·n/100 that is whole in exact arithmetic
	// (99.9 % of 10000) from rounding up a rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentileSorted is the nearest-rank percentile p of ascending xs. An
// infinite sample (a miss) ranks above every finite one.
func percentileSorted(sorted []float64, p float64) float64 {
	return sorted[nearestRank(len(sorted), p)-1]
}

// percentile is percentileSorted on an unsorted sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// quantileSorted interpolates linearly between the two samples around
// quantile q of ascending xs (the median of an even count is the mean of
// the middle two).
func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, 0.5)
}

// geomean is the geometric mean of positive xs: each input's relative
// change moves it by the same share, whatever the input's magnitude.
func geomean(xs ...float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
