package main

import (
	"encoding/json"
	"fmt"
	"math"

	"gridmtd/internal/planner"
)

// tier is one level of the repository's reproducibility contract that a
// reference comparison applies.
type tier int

const (
	// exact: bitwise equal.
	exact tier = iota
	// fast: the fast/sparse path agrees with its reference to fastTol,
	// relative to the larger magnitude (absolute below 1).
	fast
)

const fastTol = 1e-9

func (t tier) String() string {
	if t == exact {
		return "exact"
	}
	return "fast(1e-9)"
}

func (t tier) equal(a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	if t == exact || math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= fastTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func (t tier) equalSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !t.equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// selectRef is the reference answer to one select request, generated from
// planner.Select. Pinned holds the values the repository's tests and docs
// quote, in their printed precision.
type selectRef struct {
	Case           string    `json:"case"`
	Phase          string    `json:"phase"`
	GammaThreshold float64   `json:"gamma_threshold"`
	Seed           int64     `json:"seed"`
	Gamma          float64   `json:"gamma"`
	Deltas         []float64 `json:"deltas"`
	Eta            []float64 `json:"eta"`
	CostPerHour    float64   `json:"cost_per_hour"`
	CostIncrease   float64   `json:"cost_increase"`
	BaselineCost   float64   `json:"baseline_cost"`
	Undetectable   float64   `json:"undetectable"`
	Reactances     []float64 `json:"reactances"`
	Pinned         *pinned   `json:"pinned,omitempty"`
}

type pinned struct {
	Cost  string `json:"cost"`  // %.2f of cost_per_hour
	Gamma string `json:"gamma"` // %.4f of gamma
}

func refFromResponse(phase string, seed int64, r *planner.SelectResponse) selectRef {
	return selectRef{
		Case: r.Case, Phase: phase, GammaThreshold: r.GammaThreshold, Seed: seed,
		Gamma: r.Gamma, Deltas: r.Deltas, Eta: r.Eta,
		CostPerHour: r.CostPerHour, CostIncrease: r.CostIncrease, BaselineCost: r.BaselineCost,
		Undetectable: r.Undetectable, Reactances: r.Reactances,
	}
}

// compare lists every field of got that differs from the reference under
// tier t (nil when they agree).
func (ref selectRef) compare(got *planner.SelectResponse, t tier) []string {
	var bad []string
	scalar := func(name string, want, have float64) {
		if !t.equal(want, have) {
			bad = append(bad, fmt.Sprintf("%s: want %v, got %v (%s)", name, want, have, t))
		}
	}
	vector := func(name string, want, have []float64) {
		if !t.equalSlice(want, have) {
			bad = append(bad, fmt.Sprintf("%s: want %v, got %v (%s)", name, want, have, t))
		}
	}
	scalar("gamma", ref.Gamma, got.Gamma)
	scalar("cost_per_hour", ref.CostPerHour, got.CostPerHour)
	scalar("cost_increase", ref.CostIncrease, got.CostIncrease)
	scalar("baseline_cost", ref.BaselineCost, got.BaselineCost)
	scalar("undetectable", ref.Undetectable, got.Undetectable)
	vector("deltas", ref.Deltas, got.Deltas)
	vector("eta", ref.Eta, got.Eta)
	vector("reactances", ref.Reactances, got.Reactances)
	if p := ref.Pinned; p != nil {
		if c := fmt.Sprintf("%.2f", got.CostPerHour); c != p.Cost {
			bad = append(bad, fmt.Sprintf("pinned cost: want %s, got %s", p.Cost, c))
		}
		if g := fmt.Sprintf("%.4f", got.Gamma); g != p.Gamma {
			bad = append(bad, fmt.Sprintf("pinned gamma: want %s, got %s", p.Gamma, g))
		}
	}
	return bad
}

// canonicalJSON re-encodes a served response without the fields that
// describe how it was served (cache_hit, source, elapsed_ms). Go encodes
// a float64 in the shortest form that round-trips, so two canonical
// encodings are equal exactly when every payload float is bitwise equal.
func canonicalJSON(path string, body []byte) ([]byte, error) {
	switch path {
	case "/v1/select":
		var r planner.SelectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		r.CacheHit, r.Source, r.ElapsedMS = false, "", 0
		return json.Marshal(r)
	case "/v1/gamma":
		var r planner.GammaResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		r.CacheHit, r.Source, r.ElapsedMS = false, "", 0
		return json.Marshal(r)
	}
	return nil, fmt.Errorf("no canonical form for %s", path)
}
