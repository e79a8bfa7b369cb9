package main

import (
	"math"
	"strings"
	"testing"

	"gridmtd/internal/planner"
)

func TestToleranceTiers(t *testing.T) {
	x := 842862.328
	next := math.Nextafter(x, math.Inf(1))
	for _, c := range []struct {
		tier tier
		a, b float64
		want bool
	}{
		{exact, x, x, true},
		{exact, x, next, false},
		{exact, 0, math.Copysign(0, -1), false}, // bitwise: -0 differs
		{fast, x, next, true},
		{fast, x, x * (1 + 5e-10), true},
		{fast, x, x * (1 + 5e-9), false},
		{fast, 0.0671, 0.0671 + 5e-10, true}, // below 1 the tolerance is absolute
		{fast, 0.0671, 0.0671 + 5e-9, false},
		{fast, 1e-12, 2e-12, true},
		{fast, math.NaN(), 1, false},
		{exact, math.NaN(), math.NaN(), true}, // same bit pattern
	} {
		if got := c.tier.equal(c.a, c.b); got != c.want {
			t.Errorf("%s.equal(%v, %v) = %v, want %v", c.tier, c.a, c.b, got, c.want)
		}
	}
	if fast.equalSlice([]float64{1, 2}, []float64{1}) {
		t.Error("slices of different length compared equal")
	}
}

func TestSelectRefComparison(t *testing.T) {
	resp := &planner.SelectResponse{
		Case: "ieee300", Gamma: 0.06705093421781982, CostPerHour: 842862.3280000008,
		BaselineCost: 842862.3280000008, Deltas: []float64{0.5}, Eta: []float64{0},
		Reactances: []float64{0.1, 0.2},
	}
	ref := refFromResponse("cold", 1, resp)
	ref.Pinned = &pinned{Cost: "842862.33", Gamma: "0.0671"}
	if bad := ref.compare(resp, exact); bad != nil {
		t.Fatalf("identical response rejected: %v", bad)
	}
	near := *resp
	near.Reactances = []float64{0.1, 0.2 + 1e-12}
	if bad := ref.compare(&near, fast); bad != nil {
		t.Errorf("fast tier rejected a 1e-12 difference: %v", bad)
	}
	if bad := ref.compare(&near, exact); len(bad) != 1 || !strings.HasPrefix(bad[0], "reactances") {
		t.Errorf("exact tier on a 1e-12 difference: %v", bad)
	}
	off := *resp
	off.Gamma = 0.0675
	bad := ref.compare(&off, fast)
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "gamma") || !strings.HasPrefix(bad[1], "pinned gamma") {
		t.Errorf("a moved γ must fail the value and the pinned check: %v", bad)
	}
}

func TestCanonicalJSONIgnoresServingFields(t *testing.T) {
	a := `{"case":"ieee57","gamma":0.1,"cache_hit":false,"source":"computed","elapsed_ms":31.2}`
	b := `{"case":"ieee57","gamma":0.1,"cache_hit":true,"source":"memo","elapsed_ms":31.2}`
	c := `{"case":"ieee57","gamma":0.10000000000000002,"cache_hit":true,"source":"memo","elapsed_ms":31.2}`
	ca, err := canonicalJSON("/v1/gamma", []byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := canonicalJSON("/v1/gamma", []byte(b))
	cc, _ := canonicalJSON("/v1/gamma", []byte(c))
	if string(ca) != string(cb) {
		t.Errorf("serving fields leaked into the payload: %s vs %s", ca, cb)
	}
	if string(ca) == string(cc) {
		t.Error("a one-ulp γ difference survived canonicalization as equal")
	}
}
