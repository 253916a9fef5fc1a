// Package serve is OUT of determinism's scope: the serving tier may jitter
// retries with ambient randomness and read the clock freely.
package serve

import (
	"math/rand"
	"time"

	"psd/internal/rng"
)

func jitter(d time.Duration) time.Duration {
	return time.Duration(rand.Int63n(int64(d)))
}

func now() time.Time { return time.Now() }

func pick(m map[string]int) int {
	for _, v := range m {
		return v
	}
	return 0
}

func sequentialDraws(seed int64) float64 { return rng.New(seed).Split().Float64() }
