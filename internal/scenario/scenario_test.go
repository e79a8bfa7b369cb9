package scenario

import (
	"reflect"
	"testing"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
)

func sweepSpec(caseName string, parallelism int) Spec {
	return Spec{
		Kind:          GammaSweep,
		Case:          caseName,
		GammaGrid:     []float64{0.05, 0.1},
		SelectStarts:  2,
		MaxEvals:      30,
		Seed:          1,
		OPFStarts:     2,
		OPFMaxEvals:   30,
		OPFSeed:       1,
		Effectiveness: core.EffectivenessConfig{NumAttacks: 30, Seed: 1},
		Parallelism:   parallelism,
	}
}

// TestGammaSweepDeterministic pins the scenario determinism contract on
// both backend paths: the same Spec and seed produce identical rows
// across runs and across worker counts (dense = the historical bitwise
// path; sparse = the warm-simplex path whose per-worker sessions are
// reset at every local search).
func TestGammaSweepDeterministic(t *testing.T) {
	for _, caseName := range []string{"ieee14", "ieee57"} {
		t.Run(caseName, func(t *testing.T) {
			serial, err := NewRunner().Run(sweepSpec(caseName, 1))
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Rows) != 2 {
				t.Fatalf("got %d rows, want 2", len(serial.Rows))
			}
			again, err := NewRunner().Run(sweepSpec(caseName, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Rows, again.Rows) {
				t.Error("same Spec + seed produced different rows across runs")
			}
			for _, workers := range []int{2, 4} {
				par, err := NewRunner().Run(sweepSpec(caseName, workers))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.Rows, par.Rows) {
					t.Errorf("parallelism %d produced different rows than serial", workers)
				}
			}
		})
	}
}

// TestPlacementDeterministic pins the placement study's worker-count
// invariance: the greedy choice and its γ are identical for any
// parallelism, on both backend paths.
func TestPlacementDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("placement probes are expensive")
	}
	for _, caseName := range []string{"ieee14", "ieee57"} {
		t.Run(caseName, func(t *testing.T) {
			spec := Spec{Kind: Placement, Case: caseName, Placement: PlacementSpec{Devices: 3}}
			spec.Parallelism = 1
			serial, err := NewRunner().Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Rows) != 3 {
				t.Fatalf("got %d rounds, want 3", len(serial.Rows))
			}
			spec.Parallelism = 4
			par, err := NewRunner().Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Rows, par.Rows) {
				t.Errorf("parallel placement differs from serial:\nserial %+v\npar    %+v", serial.Rows, par.Rows)
			}
			// Greedy γ must be monotone in the deployment size.
			for i := 1; i < len(serial.Rows); i++ {
				if serial.Rows[i].Gamma < serial.Rows[i-1].Gamma-1e-12 {
					t.Errorf("round %d γ %v below round %d γ %v", i+1, serial.Rows[i].Gamma, i, serial.Rows[i-1].Gamma)
				}
			}
		})
	}
}

// TestPlacementSketchProbeExactRecheck pins the widened-pool placement
// protocol: with the sketched-γ probe ranking an all-branches pool, every
// round's recorded γ is the exact evaluator's value at the winning corner
// (not the probe's), the probe value sits within the sketch bound of it,
// and the frontier stays monotone.
func TestPlacementSketchProbeExactRecheck(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-pool placement probes are expensive")
	}
	res, err := NewRunner().Run(Spec{
		Kind:         Placement,
		Case:         "ieee14",
		GammaBackend: core.SketchGamma,
		Placement:    PlacementSpec{Devices: 2, AllBranches: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rounds, want 2", len(res.Rows))
	}
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	exact := core.NewGammaEvaluatorBackend(n, n.Reactances(), core.ExactGamma)
	for i, r := range res.Rows {
		if want := exact.Gamma(r.Reactances); r.Gamma != want {
			t.Errorf("round %d: recorded γ %.15g is not the exact re-check %.15g", i+1, r.Gamma, want)
		}
		if d := r.ProbeGamma - r.Gamma; d > 1e-6 || d < -1e-6 {
			t.Errorf("round %d: probe γ %.12g vs exact %.12g beyond the sketch bound", i+1, r.ProbeGamma, r.Gamma)
		}
		if len(r.Devices) != i+1 {
			t.Errorf("round %d deployment %v", i+1, r.Devices)
		}
	}
	if res.Rows[1].Gamma < res.Rows[0].Gamma-1e-12 {
		t.Errorf("widened-pool frontier not monotone: %v then %v", res.Rows[0].Gamma, res.Rows[1].Gamma)
	}
	// The wide pool must genuinely widen: an ieee14 pool is all 20
	// branches, so the greedy winner may sit outside the embedded
	// 6-device deployment — at minimum the search must have been free to
	// choose any branch.
	for _, dev := range res.Rows[1].Devices {
		if dev < 1 || dev > n.L() {
			t.Errorf("chosen device %d outside the branch range", dev)
		}
	}
}

// TestRandomKeysDeterministic pins the keyspace scenario: same Spec +
// seed, same draws, across runs.
func TestRandomKeysDeterministic(t *testing.T) {
	spec := Spec{
		Kind:          RandomKeys,
		Case:          "ieee14",
		Trials:        3,
		CostBudget:    0.02,
		OPFStarts:     2,
		OPFSeed:       1,
		Seed:          3,
		Effectiveness: core.EffectivenessConfig{NumAttacks: 30, Seed: 2},
	}
	a, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("random-keys scenario not reproducible for a fixed seed")
	}
	if len(a.Rows) != 3 || a.Rows[0].Draws < 1 {
		t.Errorf("unexpected rows: %+v", a.Rows)
	}
}

// TestSpecValidate pins the structural error surface.
func TestSpecValidate(t *testing.T) {
	if err := (Spec{Kind: GammaSweep, GammaGrid: []float64{0.1}}).Validate(); err == nil {
		t.Error("spec without a grid selector accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "ieee14", Net: nil}).Validate(); err == nil {
		t.Error("GammaSweep without GammaGrid accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "nope", GammaGrid: []float64{0.1}}).Validate(); err == nil {
		t.Error("unknown case accepted")
	}
	if err := (Spec{Kind: GammaSweep, Case: "ieee14", GammaGrid: []float64{0.1}, StaleAttacker: true}).Validate(); err == nil {
		t.Error("StaleAttacker without Hour accepted")
	}
	if err := (Spec{Kind: DaySweep, Case: "ieee14"}).Validate(); err != nil {
		t.Errorf("valid day sweep rejected: %v", err)
	}
}

// TestCompileUnits pins the compiled batch shape: setup + one unit per
// sweep point (+ the cap), labeled.
func TestCompileUnits(t *testing.T) {
	spec := sweepSpec("ieee14", 0)
	spec.CapWithMaxGamma = true
	b, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Units) != 1+len(spec.GammaGrid)+1 {
		t.Fatalf("got %d units, want setup + %d points + cap", len(b.Units), len(spec.GammaGrid))
	}
	if b.Units[0].Label != "operating-point" || b.Units[len(b.Units)-1].Label != "max-gamma-cap" {
		t.Errorf("unexpected unit labels: %v, %v", b.Units[0].Label, b.Units[len(b.Units)-1].Label)
	}
}

// TestRunnerEngineReuse pins the service-path amortization: two runs with
// the same caller-provided network share one dispatch engine.
func TestRunnerEngineReuse(t *testing.T) {
	n, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	e1, err := r.DispatchEngine(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.DispatchEngine(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("runner rebuilt the dispatch engine for the same network pointer")
	}
	spec := sweepSpec("", 1)
	spec.Case = ""
	spec.Net = n
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	e3, err := r.DispatchEngine(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e1 {
		t.Error("scenario run did not reuse the cached engine")
	}
	// The cache is LRU, not FIFO: a network used between inserts keeps
	// its engine through maxCachedEngines inserts of other networks.
	for i := 0; i < maxCachedEngines; i++ {
		other, err := grid.CaseByName("ieee14")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.DispatchEngine(other, 0); err != nil {
			t.Fatal(err)
		}
		if e, err := r.DispatchEngine(n, 0); err != nil || e != e1 {
			t.Fatalf("engine rebuilt after %d inserts of other networks (err %v)", i+1, err)
		}
	}
}
