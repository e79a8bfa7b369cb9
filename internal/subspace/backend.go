package subspace

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// GammaBackend names a γ-evaluation strategy: how the orthonormal bases
// behind the principal-angle computation are produced (and, for the sketch
// backend, whether they are produced at all). It is the γ-side analogue of
// grid.Backend, selected through the same seam pattern.
type GammaBackend int

const (
	// AutoGamma resolves to the process-wide default (SetDefaultGammaBackend,
	// the cmds' -gamma flag) and to ExactGamma when none is set. The exact
	// backend is the only one whose outputs are pinned by the golden
	// reproducibility contracts, so auto never silently picks an
	// approximate evaluator.
	AutoGamma GammaBackend = iota
	// ExactGamma is the reference evaluator: dense modified Gram-Schmidt and
	// the full principal-angle machinery. Below grid.SparseThreshold buses it
	// performs the historical bitwise float sequence; at or above it the
	// multi-accumulator/blocked kernels run under the 1e-9-agreement
	// contract (the two paths that predate the backend layer).
	ExactGamma
	// SketchGamma is the randomized sketch evaluator: orthonormalization
	// happens implicitly through sparse Cholesky factors of the candidate
	// Gram matrix Eᵀ·D·G·D·E, and sin²γ is extracted by a seeded Lanczos
	// iteration — no dense basis is ever formed. It carries a documented
	// relative-error contract, is deterministic per seed, and falls back to
	// the exact evaluator automatically when the sketched σ_min sits within
	// tolerance of the rank cutoff or the iteration fails to converge.
	SketchGamma
)

// String names the backend.
func (b GammaBackend) String() string {
	switch b {
	case ExactGamma:
		return "exact"
	case SketchGamma:
		return "sketch"
	default:
		return "auto"
	}
}

// GammaBackends lists the selectable γ backends with one-line descriptions,
// in flag-value order — the shared source for the cmds' "-gamma list"
// discoverability output.
func GammaBackends() []struct{ Name, Desc string } {
	return []struct{ Name, Desc string }{
		{"auto", "process default (-gamma flag), exact when none is set"},
		{"exact", "reference evaluator: bitwise below the sparse threshold, fast kernels above (1e-9)"},
		{"sketch", "sparse-Gram Cholesky + seeded randomized Lanczos; documented error bound, exact fallback"},
	}
}

// ErrUnknownGammaBackend is the error ParseGammaBackend wraps for a value
// that names no γ backend.
var ErrUnknownGammaBackend = errors.New("subspace: unknown gamma backend")

// ParseGammaBackend parses a -gamma flag value. The error for an unknown
// value wraps ErrUnknownGammaBackend and lists every valid choice
// (mirroring the case registry's "-case list" discoverability).
func ParseGammaBackend(s string) (GammaBackend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return AutoGamma, nil
	case "exact":
		return ExactGamma, nil
	case "sketch":
		return SketchGamma, nil
	default:
		return AutoGamma, fmt.Errorf("%w %q (want auto, exact or sketch)", ErrUnknownGammaBackend, s)
	}
}

// defaultGammaBackend is the process-wide AutoGamma override, settable from
// command-line flags so backend A/B runs need no code edits.
var defaultGammaBackend atomic.Int32

// SetDefaultGammaBackend overrides what AutoGamma resolves to for every γ
// engine constructed afterwards. AutoGamma restores the built-in rule
// (exact). Intended for process startup (the cmds' -gamma flag); engines
// snapshot their resolution at construction time.
func SetDefaultGammaBackend(b GammaBackend) { defaultGammaBackend.Store(int32(b)) }

// CurrentDefaultGammaBackend returns the active AutoGamma override
// (AutoGamma when none is set).
func CurrentDefaultGammaBackend() GammaBackend { return GammaBackend(defaultGammaBackend.Load()) }

// EffectiveGammaBackend resolves a possibly-Auto γ-backend choice: the
// process-wide default first, then ExactGamma. The result is always
// ExactGamma or SketchGamma. Unlike grid.EffectiveBackend there is no size
// rule: the approximate backend is strictly opt-in, so default-path
// outputs stay pinned to the exact evaluator.
func EffectiveGammaBackend(b GammaBackend) GammaBackend {
	if b == AutoGamma {
		b = CurrentDefaultGammaBackend()
	}
	if b == AutoGamma {
		return ExactGamma
	}
	return b
}
