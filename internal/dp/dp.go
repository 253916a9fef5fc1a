// Package dp implements the differential privacy mechanisms of Section 3 of
// the paper, plus the composition and amplification results the tree
// constructions rely on:
//
//   - the Laplace mechanism (Definition 2) and its variance,
//   - a generic exponential-mechanism sampler (Definition 5 is built on it),
//   - sequential composition accounting (Lemma 1),
//   - privacy amplification by Bernoulli sampling (Theorem 7),
//   - the smooth-sensitivity noise calibration constant ξ (Definition 4).
//
// Count noise is drawn per stream (SeededLaplace.AddAt): a node's variate
// depends only on the seed and the node's index, never on call order.
package dp

import (
	"errors"
	"fmt"
	"math"

	"psd/internal/rng"
)

// saltNoise namespaces the per-stream noise draws away from any other use
// of the same base seed.
const saltNoise = 0x6e6f697365 // "noise"

// SeededLaplace is the Laplace mechanism (Definition 2) with per-stream
// noise: the variate for (stream, value, sensitivity, eps) is a pure
// function of the seed and those arguments, so the tree release loop can
// draw it in any order, from many goroutines, and stay byte-identical to a
// sequential release.
type SeededLaplace struct {
	seed int64
}

// NewSeededLaplace returns the Laplace mechanism derived from seed.
func NewSeededLaplace(seed int64) *SeededLaplace {
	return &SeededLaplace{seed: seed}
}

// AddAt returns value perturbed with Lap(sensitivity/eps) noise drawn from
// the stream-th noise stream. An eps of zero means "release nothing
// useful": value comes back unchanged and the caller must not publish it
// (the tree code treats eps == 0 levels as unpublished).
func (l *SeededLaplace) AddAt(stream uint64, value, sensitivity, eps float64) float64 {
	if eps <= 0 {
		return value
	}
	src := rng.At(l.seed, stream, saltNoise)
	return value + src.Laplace(sensitivity/eps)
}

// Variance returns the variance of the noise AddAt injects for the given
// sensitivity and eps (see LaplaceVariance).
func (l *SeededLaplace) Variance(sensitivity, eps float64) float64 {
	return LaplaceVariance(sensitivity, eps)
}

// LaplaceVariance returns 2·(sensitivity/eps)², the variance of the Laplace
// mechanism, or +Inf when eps <= 0.
func LaplaceVariance(sensitivity, eps float64) float64 {
	if eps <= 0 {
		return math.Inf(1)
	}
	b := sensitivity / eps
	return 2 * b * b
}

// ExpMechanism samples an index from {0, ..., len(scores)-1} with
// probability proportional to weight(i) · exp(eps · scores(i) / (2·sens)),
// where weight is an optional non-negative base measure (pass nil for
// uniform). This is the exponential mechanism of McSherry and Talwar [19];
// Definition 5 of the paper instantiates it for medians with score
// -|rank(x) - rank(median)| and sens = 1.
//
// The computation is done in log space with a max-shift so it cannot
// overflow regardless of eps or score magnitudes.
func ExpMechanism(src *rng.Source, scores []float64, weight []float64, eps, sens float64) (int, error) {
	return ExpMechanismBuf(src, scores, weight, eps, sens, nil)
}

// ExpMechanismBuf is ExpMechanism with a caller-provided scratch buffer for
// the log-weights. When len(buf) >= len(scores) no allocation happens; a
// nil or short buf falls back to allocating. The buffer's contents are
// overwritten.
func ExpMechanismBuf(src *rng.Source, scores []float64, weight []float64, eps, sens float64, buf []float64) (int, error) {
	n := len(scores)
	if n == 0 {
		return 0, errors.New("dp: exponential mechanism over empty outcome set")
	}
	if weight != nil && len(weight) != n {
		return 0, fmt.Errorf("dp: weight length %d != scores length %d", len(weight), n)
	}
	if sens <= 0 {
		return 0, errors.New("dp: exponential mechanism needs positive sensitivity")
	}
	logw := buf
	if len(logw) < n {
		logw = make([]float64, n)
	}
	logw = logw[:n]
	maxLog := math.Inf(-1)
	for i, s := range scores {
		lw := eps * s / (2 * sens)
		if weight != nil {
			if weight[i] < 0 {
				return 0, fmt.Errorf("dp: negative base weight %v at %d", weight[i], i)
			}
			if weight[i] == 0 {
				lw = math.Inf(-1)
			} else {
				lw += math.Log(weight[i])
			}
		}
		logw[i] = lw
		if lw > maxLog {
			maxLog = lw
		}
	}
	if math.IsInf(maxLog, -1) {
		return 0, errors.New("dp: all outcomes have zero weight")
	}
	var total float64
	for i := range logw {
		logw[i] = math.Exp(logw[i] - maxLog)
		total += logw[i]
	}
	u := src.Uniform() * total
	var cum float64
	for i, w := range logw {
		cum += w
		if u < cum {
			return i, nil
		}
	}
	return n - 1, nil // numeric slack: land on the last outcome
}

// SmoothXi returns ξ = eps / (4·(1 + ln(2/delta))), the smoothing parameter
// of Definition 4 used by the smooth-sensitivity median mechanism [20].
// It returns an error unless 0 < eps < 1 and 0 < delta < 1, the ranges the
// definition is stated for.
func SmoothXi(eps, delta float64) (float64, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("dp: smooth sensitivity requires 0 < eps < 1, got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("dp: smooth sensitivity requires 0 < delta < 1, got %v", delta)
	}
	return eps / (4 * (1 + math.Log(2/delta))), nil
}

// AmplifiedEpsilon implements Theorem 7: running an eps-DP algorithm on a
// Bernoulli(p) sample of the input is (2·p·e^eps)-differentially private.
func AmplifiedEpsilon(eps, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	return 2 * p * math.Exp(eps)
}

// SampledBudget inverts Theorem 7: it returns the eps the sampled algorithm
// may spend so the overall release is target-DP when run on a Bernoulli(p)
// sample: eps = ln(target / (2p)). It returns an error when the target is
// unachievable (target <= 2p would require eps <= 0).
func SampledBudget(target, p float64) (float64, error) {
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("dp: sampling rate must be in (0,1], got %v", p)
	}
	if target <= 0 {
		return 0, fmt.Errorf("dp: non-positive privacy target %v", target)
	}
	eps := math.Log(target / (2 * p))
	if eps <= 0 {
		return 0, fmt.Errorf("dp: target %v unachievable at sampling rate %v", target, p)
	}
	return eps, nil
}

// TightAmplifiedEpsilon is the exact amplification-by-sampling bound of
// Kasiviswanathan et al. [14] that Theorem 7 loosens: running an eps-DP
// algorithm on a Bernoulli(p) sample is ln(1 + p·(e^eps − 1))-DP. Unlike the
// 2·p·e^eps form, this is always at most eps, so it remains usable when the
// target budget is small — which is how the paper's Figure 4 sampled
// variants get a budget "about 50 times larger" at p = 1% for a per-level
// target of 0.01 (Theorem 7's constant would make that target infeasible).
func TightAmplifiedEpsilon(eps, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	return math.Log1p(p * math.Expm1(eps))
}

// TightSampledBudget inverts TightAmplifiedEpsilon: the eps a sampled
// algorithm may spend so the composition achieves target-DP,
// eps = ln(1 + (e^target − 1)/p).
func TightSampledBudget(target, p float64) (float64, error) {
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("dp: sampling rate must be in (0,1], got %v", p)
	}
	if target <= 0 {
		return 0, fmt.Errorf("dp: non-positive privacy target %v", target)
	}
	return math.Log1p(math.Expm1(target) / p), nil
}
