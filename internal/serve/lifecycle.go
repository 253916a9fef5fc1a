package serve

import (
	"cmp"
	"context"
	"errors"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"psd/internal/daemon"
)

// Request-lifecycle hardening: the middleware and probe endpoints that keep
// one replica alive and honest under fault and overload. Three layers wrap
// the API mux, outermost first:
//
//   - recoverPanics: a panicking handler answers 500 (when nothing was
//     written yet), logs the stack, bumps the panics counter — and the
//     process lives on. One poisoned request must never take down the
//     replica serving everyone else.
//   - shed: past MaxInFlight concurrently-served /v1 requests, further ones
//     are refused immediately with 503 + Retry-After. Queries are pure CPU
//     post-processing, so queueing past the core count only grows latency
//     for everyone; a fast 503 lets the load balancer place the request on
//     a replica with capacity.
//   - deadline: with RequestTimeout set, each /v1 request carries a
//     deadline through its context into the traversal's cancellation
//     checkpoints (internal/core); an over-deadline traversal is abandoned
//     mid-walk and answered 503 + Retry-After.
//
// Probe endpoints stay outside the shed gate — a saturated replica is still
// alive, and the load balancer must be able to see that.

// DefaultRetryAfter is the Retry-After hint on shed and over-deadline
// responses when API.RetryAfter is zero.
const DefaultRetryAfter = time.Second

// SetReady flips the readiness probe. psdserve sets it true once the
// initial releases are loaded and the listener is up, and back to false on
// SIGTERM — before the listener closes — so load balancers stop routing new
// work to a draining replica while its in-flight requests complete.
func (a *API) SetReady(ready bool) { a.ready.Store(ready) }

// Ready reports the current readiness state.
func (a *API) Ready() bool { return a.ready.Load() }

// ServerStats is the process-level counter snapshot of GET /stats —
// the fleet-facing view (per-release serving stats live under
// /v1/releases/{name}/stats).
type ServerStats struct {
	Ready       bool `json:"ready"`
	Releases    int  `json:"releases"`
	Quarantined int  `json:"quarantined"`
	// VersionedBases counts base names served through versioned releases
	// ("name@vN" families from the streaming ingest tier).
	VersionedBases int    `json:"versioned_bases"`
	InFlight       int64  `json:"in_flight"`
	Panics         uint64 `json:"panics"`
	Sheds          uint64 `json:"sheds"`
	Timeouts       uint64 `json:"timeouts"`
	Uptime         string `json:"uptime"`
}

func (a *API) serverStats() ServerStats {
	return ServerStats{
		Ready:          a.ready.Load(),
		Releases:       a.Registry.Len(),
		Quarantined:    a.Registry.QuarantineLen(),
		VersionedBases: len(a.Registry.VersionedBases()),
		InFlight:       a.inflight.Load(),
		Panics:         a.panics.Load(),
		Sheds:          a.sheds.Load(),
		Timeouts:       a.timeouts.Load(),
		Uptime:         time.Since(a.started).Round(time.Millisecond).String(),
	}
}

func (a *API) handleServerStats(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, a.serverStats())
}

// handleReadyz is the readiness probe: 503 until the initial releases are
// loaded, 503 again once a drain began. Liveness (/healthz) is separate —
// an unready replica is still alive and must not be restarted.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ready"
	if !a.ready.Load() {
		status = http.StatusServiceUnavailable
		state = "unready"
	}
	daemon.WriteJSON(w, status, map[string]any{
		"status":   state,
		"releases": a.Registry.Len(),
	})
}

func (a *API) logf(format string, args ...any) {
	if a.Logger != nil {
		a.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// statusWriter remembers whether a response was started, so the panic
// recoverer knows whether a 500 can still be written.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (s *statusWriter) WriteHeader(code int) {
	s.wrote = true
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	s.wrote = true
	return s.ResponseWriter.Write(p)
}

// recoverPanics is the outermost middleware: a panic below it is logged
// with its stack, counted, and answered with a 500 if the response had not
// started — and the server keeps serving. http.ErrAbortHandler is re-raised
// untouched: it is net/http's own control flow for deliberately dropped
// connections, not a defect.
func (a *API) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			a.panics.Add(1)
			a.logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				daemon.WriteError(sw, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// shed applies the in-flight cap and the per-request deadline to /v1
// traffic. Probes (/healthz, /readyz, /stats) bypass both: they are how
// operators see a saturated replica, and they do no traversal work.
func (a *API) shed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		n := a.inflight.Add(1)
		defer a.inflight.Add(-1)
		if limit := a.MaxInFlight; limit > 0 && n > int64(limit) {
			a.sheds.Add(1)
			w.Header().Set("Retry-After", daemon.RetryAfter(cmp.Or(a.RetryAfter, DefaultRetryAfter)))
			daemon.WriteError(w, http.StatusServiceUnavailable,
				"server at capacity (%d requests in flight)", limit)
			return
		}
		if d := a.RequestTimeout; d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// countErr answers a failed ctx-aware count: an expired deadline is a 503
// with Retry-After (the replica is fine — this request ran out of time); a
// client that went away gets its write attempted and dropped by net/http.
func (a *API) countErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		a.timeouts.Add(1)
		w.Header().Set("Retry-After", daemon.RetryAfter(cmp.Or(a.RetryAfter, DefaultRetryAfter)))
		daemon.WriteError(w, http.StatusServiceUnavailable, "request deadline exceeded")
		return
	}
	// Client cancellation: nobody is listening, but complete the exchange.
	daemon.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
}
