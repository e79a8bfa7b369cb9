package subspace

import (
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
)

// randomSparseT builds a rows×cols transposed matrix whose rows carry a
// random, fixed-pattern support of the given size — the shape of the
// measurement matrices.
func randomSparseT(rng *rand.Rand, rows, cols, supportSize int) *mat.Dense {
	at := mat.NewDense(rows, cols)
	for j := 0; j < rows; j++ {
		seen := map[int]bool{}
		for len(seen) < supportSize {
			idx := rng.Intn(cols)
			if seen[idx] {
				continue
			}
			seen[idx] = true
			v := rng.NormFloat64()
			for v == 0 {
				v = rng.NormFloat64()
			}
			at.Set(j, idx, v)
		}
	}
	return at
}

// TestExactBackendIsDefault: a zero-value workspace must reproduce the
// reference serial-kernel basis bitwise — the exact backend's default face
// (Fast selects its multi-accumulator face).
func TestExactBackendIsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := randomSparseT(rng, 5, 12, 4)
	legacy := ComputeBasisT(at.Clone(), 0)
	var ws2 Workspace
	got := ws2.BasisT(at, 0)
	if got.Dim() != legacy.Dim() {
		t.Fatalf("dispatched rank %d vs legacy %d", got.Dim(), legacy.Dim())
	}
	for i := 0; i < got.Dim(); i++ {
		for j, v := range got.vec(i) {
			if v != legacy.vec(i)[j] {
				t.Fatalf("vector %d entry %d: %v vs legacy %v", i, j, v, legacy.vec(i)[j])
			}
		}
	}
}
