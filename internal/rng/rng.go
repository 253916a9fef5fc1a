// Package rng is the randomness substrate for the library's differential
// privacy mechanisms. It provides the distributions the paper needs —
// Laplace, exponential, Bernoulli — behind a small
// Source type that is explicitly seeded so every experiment is reproducible.
//
// Source is a counter-based splitmix64 generator (a Weyl sequence pushed
// through an avalanching mixer, as in Java's SplittableRandom). Two design
// points matter for this library:
//
//   - State is two machine words and seeding is a handful of multiplies, so
//     a fresh stream per tree node costs nothing. At(seed, stream, salt)
//     derives the stream deterministically from its coordinates alone,
//     which is what makes parallel tree builds byte-identical to sequential
//     ones: node randomness depends on the node's index, never on the order
//     goroutines reach it.
//   - Every distribution is implemented directly on the raw generator
//     (inverse CDF or rejection), with no hidden shared state, so a Source
//     value can live on the stack of a worker goroutine.
//
// Nothing in this package is cryptographically secure; for an actual privacy
// deployment the uniform source should be replaced with crypto/rand. The
// paper's experiments (and ours) measure utility, for which a seeded PRNG is
// both sufficient and preferable.
package rng

import (
	"math"
	"math/bits"
)

// Source produces random variates for the DP mechanisms. It is not safe for
// concurrent use; create one Source per goroutine (see Split and At).
type Source struct {
	state uint64
	gamma uint64 // odd Weyl increment; distinct gammas give distinct streams
}

// goldenGamma is 2^64/φ rounded to odd, the canonical splitmix64 increment.
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output function (Stafford variant 13).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixGamma turns an arbitrary word into a usable Weyl increment: odd, and
// rejected toward better bit mixing when its bit transitions are too regular
// (the SplittableRandom heuristic).
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) | 1
	if bits.OnesCount64(z^(z>>1)) < 24 {
		z ^= 0xaaaaaaaaaaaaaaaa
	}
	return z
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := At(seed, 0, 0)
	return &s
}

// At returns the Source for stream (stream, salt) of the given base seed,
// as a value so hot paths can derive per-node streams without allocation.
// The derivation is pure: any call order, any goroutine, same stream.
// Conventionally stream indexes the consumer (a tree node) and salt the
// purpose (median vs count noise), so independent subsystems sharing one
// user-facing seed never collide.
func At(seed int64, stream, salt uint64) Source {
	h := mix64(uint64(seed) + goldenGamma)
	h = mix64(h + stream + 0x3c6ef372fe94f82b) // distinct odd round constants
	h = mix64(h + salt + 0xdaa66d2c7ddf743f)   // keep the three inputs separated
	return Source{state: h, gamma: mixGamma(h + goldenGamma)}
}

// Split derives a new, independent Source from s. Each call advances s, so
// repeated splits yield distinct streams. Use it to hand child components
// their own deterministic randomness.
func (s *Source) Split() *Source {
	c := Source{state: mix64(s.Uint64()), gamma: mixGamma(s.Uint64())}
	return &c
}

// Uint64 returns a uniform 64-bit word, advancing the stream.
func (s *Source) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Uniform returns a uniform variate in [0, 1).
func (s *Source) Uniform() float64 { return s.Float64() }

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1p-53
}

// UniformIn returns a uniform variate in [lo, hi).
func (s *Source) UniformIn(lo, hi float64) float64 {
	return lo + s.Float64()*(hi-lo)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// (Lemire's multiply-shift rejection keeps it bias-free.)
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Int63 returns a uniform non-negative 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Laplace returns a variate from the Laplace distribution with mean 0 and
// scale b (density (1/2b)·exp(-|x|/b)). Its variance is 2b².
//
// A scale of 0 returns 0 (degenerate distribution); this is what lets a
// "no-noise" configuration share the same code path. A negative scale panics.
func (s *Source) Laplace(b float64) float64 {
	switch {
	case b == 0:
		return 0
	case b < 0:
		panic("rng: negative Laplace scale")
	}
	// Inverse CDF on u ∈ (-1/2, 1/2): x = -b·sgn(u)·ln(1-2|u|).
	u := s.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// Exponential returns a variate from the exponential distribution with rate
// lambda (mean 1/lambda). It panics if lambda <= 0.
func (s *Source) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: non-positive exponential rate")
	}
	// Inverse CDF; Float64 < 1 keeps the log argument strictly positive.
	return -math.Log(1-s.Float64()) / lambda
}

// Gaussian returns a variate from N(mean, stddev²) via Box–Muller. The
// second variate of the pair is discarded so a Source carries no state
// beyond its generator words.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	u1 := 1 - s.Float64() // (0, 1]: keeps the log finite
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	return mean + stddev*r*math.Cos(2*math.Pi*u2)
}

// Shuffle randomly permutes the first n elements using swap (Fisher–Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// SampleBernoulli returns the indices of a Bernoulli(p) subsample of
// {0, ..., n-1}. It is the sampling primitive behind Theorem 7 of the paper
// (privacy amplification by sampling).
func (s *Source) SampleBernoulli(n int, p float64) []int {
	var idx []int
	if p > 0 && p < 1 {
		idx = make([]int, 0, int(float64(n)*p*1.2)+8)
	}
	return s.SampleBernoulliInto(idx, n, p)
}

// SampleBernoulliInto is SampleBernoulli appending into dst[:0], so hot
// paths can reuse one index buffer across calls.
func (s *Source) SampleBernoulliInto(dst []int, n int, p float64) []int {
	dst = dst[:0]
	if p <= 0 {
		return dst
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	for i := 0; i < n; i++ {
		if s.Float64() < p {
			dst = append(dst, i)
		}
	}
	return dst
}
