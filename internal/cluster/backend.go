package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// HealthState is a backend's position in the health state machine.
type HealthState int32

const (
	// Healthy backends take traffic. Backends start healthy (optimistic):
	// a fleet is routable before the first probe round completes, and a
	// genuinely dead backend is caught by the data path's retries until
	// the checker demotes it.
	Healthy HealthState = iota
	// Suspect backends failed their last probe but not enough in a row to
	// be declared down; they still take traffic (the breaker and retries
	// contain the damage) while the checker decides.
	Suspect
	// Down backends are skipped by routing entirely until UpAfter
	// consecutive probe successes bring them back.
	Down
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "unknown"
}

// Backend is one psdserve replica as the proxy sees it: its base URL,
// health-checker state, circuit breaker, and data-path counters. All
// mutable fields are atomics or internally locked; the request hot path
// reads state without taking any lock.
type Backend struct {
	// URL is the replica's base URL (scheme://host:port, no trailing
	// slash) and its ring member key.
	URL string
	// Breaker is the backend's data-path circuit breaker.
	Breaker *Breaker

	state atomic.Int32

	// probeMu guards the checker's consecutive-outcome bookkeeping.
	probeMu    sync.Mutex
	consecFail int
	consecOK   int
	lastProbe  time.Time
	lastErr    string

	// Data-path counters, surfaced in /metrics and /v1/backends.
	Requests   atomic.Uint64 // attempts forwarded to this backend
	Failures   atomic.Uint64 // attempts that failed (transport error or 5xx)
	Probes     atomic.Uint64 // health probes issued
	ProbeFails atomic.Uint64
}

// NewBackend returns a backend for url with a default breaker.
func NewBackend(url string) *Backend {
	return &Backend{URL: url, Breaker: &Breaker{}}
}

// State returns the backend's current health state.
func (b *Backend) State() HealthState { return HealthState(b.state.Load()) }

// setState records s, returning the previous state.
func (b *Backend) setState(s HealthState) HealthState {
	return HealthState(b.state.Swap(int32(s)))
}

// LastProbe returns the time and error text of the most recent health
// probe ("" when it succeeded; zero time when none ran yet).
func (b *Backend) LastProbe() (time.Time, string) {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return b.lastProbe, b.lastErr
}
