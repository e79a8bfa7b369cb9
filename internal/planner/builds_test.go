package planner

import (
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/subspace"
)

// TestSelectBuildsOldSideOnce pins the exact γ-side construction work of
// ieee118 selections on the sketch backend, where the search itself builds
// no exact basis: per request, one x_old basis and one sketch evaluator
// (shared by the γ engine and the attack set) plus one exact basis for the
// winner (computed by the selection and reused by the attack evaluation).
// A second x_old side or a recomputed winner γ shows up here as an extra
// basis or sketch. The first request is cold (case, dispatch engine and
// solve memo built on demand), the second warm; the third names its
// attacker knowledge explicitly.
func TestSelectBuildsOldSideOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee118 selections take seconds")
	}
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	base := SelectRequest{
		Case: "ieee118", GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20, GammaBackend: "sketch",
	}
	warm := base
	warm.Seed, warm.GammaThreshold = 2, 0.08
	explicit := warm
	explicit.Seed, explicit.XOld = 3, n.Reactances()
	for _, tc := range []struct {
		name string
		req  SelectRequest
		want subspace.BuildStats
	}{
		{"cold", base, subspace.BuildStats{Bases: 2, Sketches: 1}},
		{"warm", warm, subspace.BuildStats{Bases: 2, Sketches: 1}},
		{"explicit x_old", explicit, subspace.BuildStats{Bases: 2, Sketches: 1}},
	} {
		before := subspace.GlobalBuildStats()
		resp, err := p.Select(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.CacheHit || resp.GammaBackend != "sketch" {
			t.Fatalf("%s: served from %q on %s, want a sketch computation", tc.name, resp.Source, resp.GammaBackend)
		}
		if got := subspace.GlobalBuildStats().Delta(before); got != tc.want {
			t.Errorf("%s: built %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
