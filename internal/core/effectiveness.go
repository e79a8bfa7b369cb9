package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"gridmtd/internal/attack"
	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
	"gridmtd/internal/se"
	"gridmtd/internal/stat"
	"gridmtd/internal/subspace"
)

// DefaultDeltas are the detection-probability thresholds plotted in the
// paper's Fig. 6.
var DefaultDeltas = []float64{0.5, 0.8, 0.9, 0.95}

// EffectivenessConfig controls the η'(δ) evaluation. The zero value is
// completed with the paper's simulation protocol: 1000 random attacks with
// ‖a‖₁/‖z‖₁ ≈ 0.08, false-positive rate 5×10⁻⁴, and the analytic
// detection probability. The paper does not state its noise level; the
// default σ = 0.0015 p.u. (0.15 MW on the 100 MVA base) was calibrated so
// the η'(δ) curves land in the paper's Fig.-6 operating range (see
// EXPERIMENTS.md).
type EffectivenessConfig struct {
	// NumAttacks is the number of random stealthy attacks (default 1000).
	NumAttacks int
	// AttackRatio is the ‖a‖₁/‖z‖₁ scaling (default 0.08).
	AttackRatio float64
	// Sigma is the measurement noise standard deviation in per-unit
	// (default 0.0015).
	Sigma float64
	// Alpha is the BDD false-positive rate (default 5e-4).
	Alpha float64
	// Deltas are the detection-probability thresholds (default
	// DefaultDeltas).
	Deltas []float64
	// Seed seeds the attack sampler (and noise sampler under Monte Carlo).
	Seed int64
	// MonteCarlo switches from the analytic noncentral-χ² detection
	// probability to noise-resampling Monte Carlo (the paper's literal
	// protocol; slower, statistically identical — see the cross-validation
	// tests).
	MonteCarlo bool
	// NoiseTrials is the number of noise draws per attack under Monte
	// Carlo (default 1000).
	NoiseTrials int
	// ReportProbs requests the per-attack detection probabilities in
	// EffectivenessResult.DetectionProbs. Under the analytic path η'(δ) is
	// computed by noncentrality thresholding without evaluating per-attack
	// probabilities, so reporting them costs extra; sweeps that only need
	// η' leave this false. Monte Carlo always reports them.
	ReportProbs bool
	// Parallelism bounds the number of workers the analytic per-attack
	// loop fans out over (0 = GOMAXPROCS, 1 = serial). Results are
	// identical for every setting. The Monte Carlo path is inherently
	// sequential (one noise stream) and ignores it.
	Parallelism int
	// GammaBackend selects the attack-screening strategy (AutoGamma
	// resolves through the process default, exact when none is set). Under
	// SketchGamma the analytic path screens the per-attack residuals
	// through the sparse-Gram sketch and re-evaluates
	// only the attacks near a decision threshold exactly, so every reported
	// η′(δ) row is identical to the exact path's. Monte Carlo and
	// ReportProbs evaluations always take the exact path.
	GammaBackend GammaBackend
	// Estimators optionally memoizes the post-MTD estimator per candidate
	// x_new (see EstimatorCache). Only fast attack sets (large-case sparse
	// backend) consult it — the small-case path keeps its historical
	// bitwise construction; nil keeps the historical behavior everywhere.
	Estimators *EstimatorCache `json:"-"`
}

func (c EffectivenessConfig) withDefaults() EffectivenessConfig {
	if c.NumAttacks <= 0 {
		c.NumAttacks = 1000
	}
	if c.AttackRatio <= 0 {
		c.AttackRatio = 0.08
	}
	if c.Sigma <= 0 {
		c.Sigma = 0.0015
	}
	if c.Alpha <= 0 {
		c.Alpha = 5e-4
	}
	if len(c.Deltas) == 0 {
		c.Deltas = DefaultDeltas
	}
	if c.NoiseTrials <= 0 {
		c.NoiseTrials = 1000
	}
	return c
}

// EffectivenessResult reports the MTD quality metrics for one perturbation.
type EffectivenessResult struct {
	// Gamma is the subspace separation γ(H_old, H_new) (largest principal
	// angle; see internal/subspace).
	Gamma float64
	// Deltas are the evaluated thresholds.
	Deltas []float64
	// Eta[i] is η'(Deltas[i]): the fraction of attacks with detection
	// probability at least Deltas[i].
	Eta []float64
	// DetectionProbs holds P'_D(a) for each sampled attack when requested
	// via EffectivenessConfig.ReportProbs or Monte Carlo (nil otherwise).
	DetectionProbs []float64
	// UndetectableFraction is the fraction of sampled attacks that remain
	// perfectly stealthy under the new matrix (Proposition-1 condition,
	// detection probability = false-positive rate).
	UndetectableFraction float64
}

// EtaAt returns η'(δ) for an evaluated threshold δ, or an error if δ was
// not in the configured set.
func (r *EffectivenessResult) EtaAt(delta float64) (float64, error) {
	for i, d := range r.Deltas {
		if d == delta {
			return r.Eta[i], nil
		}
	}
	return 0, fmt.Errorf("core: delta %v was not evaluated", delta)
}

// AttackSet is a batch of pre-crafted stealthy attacks, reusable across
// many candidate perturbations (the paper's Figs. 6-8 evaluate the same
// 1000-attack set against every MTD). The attacks are packed into one
// contiguous backing array (see attack.Batch).
//
// The set does not own its x_old side. The exact basis of H_old behind
// every reported γ and, under SketchGamma, the sparse-Gram screening
// evaluator belong to a GammaEvaluator: the bundle's own when the set is
// sampled through Engines.SampleAttacks with a matching γ backend, a
// private one built by SampleAttacks otherwise.
type AttackSet struct {
	// Batch holds the crafted attacks a = H_old·c, one per row.
	Batch *attack.Batch
	// HOld is the measurement matrix the attacks were crafted against.
	HOld *mat.Dense

	// gamma owns the x_old side. Its sketch is non-nil exactly when the
	// analytic residual path screens through the sparse-Gram identity;
	// anorm caches ‖a‖ per attack, the candidate-independent half of the
	// screened residual identity.
	gamma  *GammaEvaluator
	anorm  []float64
	skPool sync.Pool // *subspace.SketchSession for the screening chunks
}

// Len returns the number of attacks in the set.
func (s *AttackSet) Len() int {
	if s.Batch == nil {
		return 0
	}
	return s.Batch.Len()
}

// At materializes attack i as a standalone vector (copies).
func (s *AttackSet) At(i int) *attack.Vector { return s.Batch.At(i) }

// SampleAttacks draws cfg.NumAttacks random stealthy attacks against the
// configuration xOld with operating measurements zOld, preparing a private
// x_old side for cfg.GammaBackend.
func SampleAttacks(n *grid.Network, xOld, zOld []float64, cfg EffectivenessConfig) (*AttackSet, error) {
	return sampleAttacks(n, xOld, zOld, cfg, nil)
}

// SampleAttacks is SampleAttacks against the bundle's x_old: the set
// borrows the bundle's γ evaluator (basis and sketch) instead of building
// another one. Only when cfg.GammaBackend resolves differently from the
// backend the bundle was built for does the set prepare its own side, as
// SampleAttacks does. The attacks are identical either way.
func (e *Engines) SampleAttacks(zOld []float64, cfg EffectivenessConfig) (*AttackSet, error) {
	g := e.gamma
	if subspace.EffectiveGammaBackend(cfg.GammaBackend) != g.requested {
		return SampleAttacks(g.n, g.xOld, zOld, cfg)
	}
	return sampleAttacks(g.n, g.xOld, zOld, cfg, g)
}

// sampleAttacks crafts the batch and attaches the x_old side g, building
// one for cfg.GammaBackend when g is nil.
func sampleAttacks(n *grid.Network, xOld, zOld []float64, cfg EffectivenessConfig, g *GammaEvaluator) (*AttackSet, error) {
	cfg = cfg.withDefaults()
	if len(zOld) != n.M() {
		return nil, errors.New("core: operating measurement vector has wrong length")
	}
	hOld := n.MeasurementMatrix(xOld)
	rng := rand.New(rand.NewSource(cfg.Seed))
	batch, err := attack.RandomBatch(rng, hOld, zOld, cfg.AttackRatio, cfg.NumAttacks)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if g == nil {
		g = NewGammaEvaluatorBackend(n, xOld, cfg.GammaBackend)
	}
	set := &AttackSet{Batch: batch, HOld: hOld, gamma: g}
	if g.sketch != nil {
		set.anorm = make([]float64, batch.Len())
		for k := range set.anorm {
			set.anorm[k] = mat.Norm2(batch.A(k))
		}
	}
	return set, nil
}

// EvaluateAttacks computes the effectiveness of the perturbation xNew
// against a pre-crafted attack set. The analytic path scores the attacks
// in parallel chunks (cfg.Parallelism workers); every number it produces
// is bitwise identical to the historical sequential evaluation.
//
// When the set carries the sketch machinery (SampleAttacks under a
// SketchGamma effectiveness config) and the evaluation is analytic without
// per-attack probabilities, the residuals are screened through the
// sparse-Gram identity ‖(I−Γ′)a‖² = ‖a‖² − ‖L₂⁻¹P₂(M₁₂ᵀc)‖² instead of the
// dense QR; any attack whose screened residual lands inside a tolerance
// band around a decision threshold (a δ noncentrality threshold or the
// undetectability cutoff) is re-evaluated exactly, so the reported η′(δ)
// rows and UndetectableFraction are identical to the exact path's.
//
// The reported γ is the exact γ(H_old, H(xNew)) against the set's x_old
// side.
func EvaluateAttacks(n *grid.Network, set *AttackSet, xNew []float64, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	return evaluateAttacks(n, set, xNew, cfg, nil)
}

// EvaluateSelection is EvaluateAttacks for a selection's reactances that
// reports the selection's own γ instead of recomputing it. SelectMTD and
// MaxGamma report the exact γ of the winner against their evaluator's
// x_old side, which is the very number EvaluateAttacks would compute when
// the set's x_old side is the same one; the η′ rows are
// EvaluateAttacks's. A selection from another x_old side (or built by
// hand) gets its γ recomputed, so the result always equals
// EvaluateAttacks(n, set, sel.Reactances, cfg) bitwise.
func EvaluateSelection(n *grid.Network, set *AttackSet, sel *Selection, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	if sel.gammaOf != nil && sel.gammaOf.sameOldSide(set.gamma) {
		return evaluateAttacks(n, set, sel.Reactances, cfg, &sel.Gamma)
	}
	return EvaluateAttacks(n, set, sel.Reactances, cfg)
}

// evaluateAttacks is EvaluateAttacks reporting *gamma when it is given
// instead of computing the γ.
func evaluateAttacks(n *grid.Network, set *AttackSet, xNew []float64, cfg EffectivenessConfig, gamma *float64) (*EffectivenessResult, error) {
	cfg = cfg.withDefaults()
	if set.Len() == 0 {
		return nil, errors.New("core: empty attack set")
	}
	if set.gamma == nil {
		return nil, errors.New("core: attack set has no x_old side (build it with SampleAttacks)")
	}
	useSketch := set.gamma.sketch != nil && !cfg.MonteCarlo && !cfg.ReportProbs
	var est *se.Estimator
	// ensureEst builds the dense QR estimator on demand: always on the
	// exact path, lazily on the sketched path (only if a screening band
	// triggers an exact re-check). Fast sets with a cache take the memoized
	// rank-structured build (1e-9-agreement contract); the bitwise dense
	// path never does.
	ensureEst := func() (*se.Estimator, error) {
		if est == nil {
			if set.gamma.fast && cfg.Estimators != nil {
				e, err := cfg.Estimators.Get(n, xNew)
				if err != nil {
					return nil, fmt.Errorf("core: post-MTD estimator: %w", err)
				}
				est = e
				return est, nil
			}
			e, err := se.NewEstimator(n.MeasurementMatrix(xNew))
			if err != nil {
				return nil, fmt.Errorf("core: post-MTD estimator: %w", err)
			}
			est = e
		}
		return est, nil
	}
	var bdd *se.BDD
	if useSketch {
		b, err := se.NewBDDForDOF(n.M()-(n.N()-1), cfg.Sigma, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: post-MTD BDD: %w", err)
		}
		bdd = b
	} else {
		if _, err := ensureEst(); err != nil {
			return nil, err
		}
		b, err := se.NewBDD(est, cfg.Sigma, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: post-MTD BDD: %w", err)
		}
		bdd = b
	}

	numAtt := set.Len()
	eta := make([]float64, len(cfg.Deltas))
	var probs []float64
	undetectable := 0

	if cfg.MonteCarlo {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		probs = make([]float64, numAtt)
		for k := 0; k < numAtt; k++ {
			a := set.Batch.A(k)
			if est.IsStealthy(a, 0) {
				undetectable++
			}
			probs[k] = est.DetectionProbabilityMC(bdd, a, cfg.NoiseTrials, rng)
		}
		for i, d := range cfg.Deltas {
			eta[i] = stat.FractionAtLeast(probs, d)
		}
	} else {
		// Fast analytic path: P'_D(a) ≥ δ iff the residual component
		// ‖(I−Γ')a‖ meets the noncentrality threshold σ·sqrt(λ_δ).
		x := (bdd.Tau / bdd.Sigma) * (bdd.Tau / bdd.Sigma)
		dof := float64(bdd.DOF)
		raThresh := make([]float64, len(cfg.Deltas))
		for i, d := range cfg.Deltas {
			if d >= 1 {
				raThresh[i] = math.Inf(1)
				continue
			}
			lambda, err := lambdaForSFCached(dof, x, d)
			if err != nil {
				return nil, fmt.Errorf("core: inverting detection probability: %w", err)
			}
			raThresh[i] = bdd.Sigma * math.Sqrt(lambda)
		}
		ras := make([]float64, numAtt)
		if cfg.ReportProbs {
			probs = make([]float64, numAtt)
		}
		sketchDone := false
		if useSketch {
			ok, err := set.screenedResiduals(n, xNew, cfg.Parallelism, raThresh, ras, &undetectable, ensureEst)
			if err != nil {
				return nil, err
			}
			sketchDone = ok
			// ok=false (a candidate Gram matrix within roundoff of rank
			// deficiency) falls through to the exact loop below.
		}
		if !sketchDone {
			if _, err := ensureEst(); err != nil {
				return nil, err
			}
			var firstErr error
			undetectable, firstErr = forEachAttackChunk(numAtt, cfg.Parallelism, func(from, to int) (int, error) {
				var ws se.ResidualWorkspace
				undet := 0
				for k := from; k < to; k++ {
					a := set.Batch.A(k)
					ra := est.ResidualWS(&ws, a)
					ras[k] = ra
					if ra <= 1e-8*mat.Norm2(a) {
						undet++
					}
					if probs != nil {
						lambda := (ra / bdd.Sigma) * (ra / bdd.Sigma)
						pd, err := stat.NoncentralChiSquareSF(dof, lambda, x)
						if err != nil {
							return undet, fmt.Errorf("core: detection probability: %w", err)
						}
						probs[k] = pd
					}
				}
				return undet, nil
			})
			if firstErr != nil {
				return nil, firstErr
			}
		}
		for i, thresh := range raThresh {
			cnt := 0
			for _, ra := range ras {
				if ra >= thresh {
					cnt++
				}
			}
			eta[i] = float64(cnt) / float64(numAtt)
		}
	}

	if gamma == nil {
		g := set.gamma.GammaExact(xNew)
		gamma = &g
	}
	return &EffectivenessResult{
		Gamma:                *gamma,
		Deltas:               mat.CopyVec(cfg.Deltas),
		Eta:                  eta,
		DetectionProbs:       probs,
		UndetectableFraction: float64(undetectable) / float64(numAtt),
	}, nil
}

// errSketchRankDeficient signals that the screening session could not
// factor a candidate Gram matrix; the caller falls back to the exact loop.
var errSketchRankDeficient = errors.New("core: sketch candidate rank-deficient")

// screenBand is the relative half-width of the exact-re-check band around
// every residual decision threshold. The sparse-Gram residual identity is
// accurate to roughly κ(M₂₂)·ε ≲ 1e-10 relative, so a 1e-6 band certifies
// every out-of-band decision with orders of magnitude to spare while
// re-checking only the measure-small set of genuinely near-threshold
// attacks.
const screenBand = 1e-6

// screenedResiduals fills ras with the per-attack residuals under the
// candidate xNew through the sparse-Gram screen, re-evaluating exactly any
// attack whose screened value cannot certify a decision: a squared
// residual within screenBand of a δ noncentrality threshold, or small
// enough (≤ 1e-10·‖a‖², which subsumes cancellation noise and the
// 1e-8·‖a‖ undetectability cutoff) that the subtraction identity has lost
// its precision. It also counts the undetectable attacks, with the exact
// path's cutoff semantics. ok=false (with a nil error) means a candidate
// Gram matrix was rank-deficient and the caller must run the exact loop.
func (s *AttackSet) screenedResiduals(n *grid.Network, xNew []float64, parallelism int, raThresh, ras []float64, undetectable *int, ensureEst func() (*se.Estimator, error)) (ok bool, err error) {
	numAtt := s.Len()
	d := invInto(make([]float64, n.L()), xNew)
	ras2 := make([]float64, numAtt)
	_, chunkErr := forEachAttackChunk(numAtt, parallelism, func(from, to int) (int, error) {
		ss, _ := s.skPool.Get().(*subspace.SketchSession)
		if ss == nil {
			ss = s.gamma.sketch.NewSession()
		}
		defer s.skPool.Put(ss)
		if !ss.PrepareCandidate(d) {
			return 0, errSketchRankDeficient
		}
		for k := from; k < to; k++ {
			ras2[k] = ss.ResidualSq(s.Batch.C(k), s.anorm[k]*s.anorm[k])
		}
		return 0, nil
	})
	if chunkErr != nil {
		if errors.Is(chunkErr, errSketchRankDeficient) {
			return false, nil
		}
		return false, chunkErr
	}
	var ws se.ResidualWorkspace
	undet := 0
	for k := 0; k < numAtt; k++ {
		na := s.anorm[k]
		r2 := ras2[k]
		recheck := r2 <= 1e-10*na*na
		if !recheck {
			for _, th := range raThresh {
				if !math.IsInf(th, 1) && math.Abs(r2-th*th) <= screenBand*(na*na+th*th) {
					recheck = true
					break
				}
			}
		}
		switch {
		case recheck:
			est, err := ensureEst()
			if err != nil {
				return false, err
			}
			ras[k] = est.ResidualWS(&ws, s.Batch.A(k))
		case r2 > 0:
			ras[k] = math.Sqrt(r2)
		default:
			ras[k] = 0
		}
		if ras[k] <= 1e-8*na {
			undet++
		}
	}
	*undetectable = undet
	return true, nil
}

// lambdaKey identifies one noncentrality inversion.
type lambdaKey struct{ dof, x, delta float64 }

// lambdaCache memoizes stat.NoncentralChiSquareLambdaForSF. The inversion
// bisects the noncentral-χ² survival function (dozens of incomplete-gamma
// evaluations) yet depends only on the detector geometry (DOF, τ²/σ²) and
// the threshold δ — constants across an entire η′ sweep — so caching it
// removes roughly half the analytic evaluation cost. Cached values are the
// function's own outputs, so results are unchanged.
var lambdaCache sync.Map // lambdaKey -> float64

func lambdaForSFCached(dof, x, delta float64) (float64, error) {
	key := lambdaKey{dof, x, delta}
	if v, ok := lambdaCache.Load(key); ok {
		return v.(float64), nil
	}
	lambda, err := stat.NoncentralChiSquareLambdaForSF(dof, x, delta)
	if err != nil {
		return 0, err
	}
	lambdaCache.Store(key, lambda)
	return lambda, nil
}

// forEachAttackChunk splits [0, n) into contiguous chunks, runs fn on each
// (concurrently when parallelism allows), and returns the summed int
// results plus the error of the lowest-indexed failing chunk. With
// contiguous ascending chunks and per-index output slots the combined
// result is independent of the worker count.
func forEachAttackChunk(n, parallelism int, fn func(from, to int) (int, error)) (int, error) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	counts := make([]int, workers)
	errs := make([]error, workers)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		from := w * per
		to := from + per
		if to > n {
			to = n
		}
		if from >= to {
			continue
		}
		wg.Add(1)
		go func(w, from, to int) {
			defer wg.Done()
			counts[w], errs[w] = fn(from, to)
		}(w, from, to)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Effectiveness evaluates the MTD that changes the reactances from xOld
// (the configuration the attacker learned) to xNew. zOld is the operating
// measurement vector under xOld used for attack scaling (see
// OperatingMeasurements). It samples stealthy attacks a = H(xOld)·c,
// computes each attack's detection probability under H(xNew), and reduces
// them to the η'(δ) curve.
func Effectiveness(n *grid.Network, xOld, xNew, zOld []float64, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	set, err := SampleAttacks(n, xOld, zOld, cfg)
	if err != nil {
		return nil, err
	}
	return EvaluateAttacks(n, set, xNew, cfg)
}

// OperatingMeasurements solves the dispatch OPF at reactances x and returns
// the noiseless measurement vector z = [p; f; −f] (per-unit) of the
// resulting operating point. This is the z against which attack magnitudes
// are scaled.
func OperatingMeasurements(n *grid.Network, x []float64) ([]float64, error) {
	engine, err := opf.NewDispatchEngine(n)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}
	return OperatingMeasurementsEngine(n, engine, x)
}

// OperatingMeasurementsEngine is OperatingMeasurements on a pre-built
// dispatch engine for n, so a caller that already holds one skips the
// throwaway engine (and, on the sparse path, usually hits the engine's
// solve memo). The dispatch, and hence z, is bitwise the one
// OperatingMeasurements computes as long as the engine resolves to the same
// backend and, on the sparse path, n still has the reference reactances
// the engine's seed basis was taken at.
func OperatingMeasurementsEngine(n *grid.Network, engine *opf.DispatchEngine, x []float64) ([]float64, error) {
	res, err := engine.Solve(x)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}
	inj := n.InjectionsMW(res.DispatchMW)
	fl, err := dcflow.Solve(n, x, inj)
	if err != nil {
		return nil, err
	}
	return dcflow.Measurements(n, inj, fl), nil
}

// Gamma returns the subspace separation γ between the measurement matrices
// at the two reactance settings.
func Gamma(n *grid.Network, xOld, xNew []float64) float64 {
	return subspace.Gamma(n.MeasurementMatrix(xOld), n.MeasurementMatrix(xNew))
}
