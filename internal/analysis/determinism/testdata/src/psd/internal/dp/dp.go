package dp

import (
	crand "crypto/rand" // want `crypto/rand`
	"math/rand"        // want `ambient randomness breaks seed-replayable builds`
	"time"

	"psd/internal/rng"
)

func ambient() float64 {
	return rand.Float64()
}

func entropy() byte {
	var b [1]byte
	crand.Read(b[:])
	return b[0]
}

func clock() int64 {
	t := time.Now() // want `wall-clock readings make byte-identical rebuilds impossible`
	return t.Unix()
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since`
}

func deadline(t0 time.Time) time.Duration {
	return time.Until(t0) // want `time\.Until`
}

func allowedClock() time.Time {
	//lint:allow determinism -- audit metadata timestamp, never release bytes
	return time.Now()
}

func unjustified() time.Time {
	//lint:allow determinism // want `needs a justification`
	return time.Now() // want `wall-clock`
}

func mapWalk(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration .* nondeterministic`
		sum += v
	}
	return sum
}

func sliceWalk(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

func sequential(seed int64) float64 {
	src := rng.New(seed) // want `rng\.New in build/release package psd/internal/dp: a sequential source`
	child := src.Split() // want `\(\*rng\.Source\)\.Split in build/release package`
	return child.Float64()
}

func allowedSequential(seed int64) float64 {
	//lint:allow determinism -- cells drawn in index order, one documented exception
	return rng.New(seed).Float64()
}

func perStream(seed int64, node uint64) float64 {
	src := rng.At(seed, node, 1)
	return src.Float64()
}
