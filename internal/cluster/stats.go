package cluster

import (
	"net/http"
	"time"

	"psd/internal/daemon"
	"psd/internal/promtext"
)

// BackendInfo is the JSON shape of one backend in /stats and
// /v1/backends.
type BackendInfo struct {
	URL          string    `json:"url"`
	State        string    `json:"state"`
	Breaker      string    `json:"breaker"`
	BreakerTrips uint64    `json:"breaker_trips"`
	Requests     uint64    `json:"requests"`
	Failures     uint64    `json:"failures"`
	Probes       uint64    `json:"probes"`
	ProbeFails   uint64    `json:"probe_fails"`
	LastProbe    time.Time `json:"last_probe,omitzero"`
	LastError    string    `json:"last_error,omitempty"`
}

// ProxyStats is the JSON shape of the proxy's GET /stats.
type ProxyStats struct {
	Ready        bool          `json:"ready"`
	Backends     []BackendInfo `json:"backends"`
	Routable     int           `json:"routable"`
	Requests     uint64        `json:"requests"`
	Retries      uint64        `json:"retries"`
	Failovers    uint64        `json:"failovers"`
	NoReplica503 uint64        `json:"no_replica_503"`
	BreakerSkips uint64        `json:"breaker_skips"`
	Rollouts     uint64        `json:"rollouts"`
	Rollbacks    uint64        `json:"rollbacks"`
	Uptime       string        `json:"uptime"`
}

func infoOf(b *Backend) BackendInfo {
	lastProbe, lastErr := b.LastProbe()
	return BackendInfo{
		URL:          b.URL,
		State:        b.State().String(),
		Breaker:      b.Breaker.State().String(),
		BreakerTrips: b.Breaker.Trips(),
		Requests:     b.Requests.Load(),
		Failures:     b.Failures.Load(),
		Probes:       b.Probes.Load(),
		ProbeFails:   b.ProbeFails.Load(),
		LastProbe:    lastProbe,
		LastError:    lastErr,
	}
}

// Stats returns a snapshot of the proxy's fleet counters.
func (p *Proxy) Stats() ProxyStats {
	st := ProxyStats{
		Ready:        p.ready.Load(),
		Routable:     p.routable(),
		Requests:     p.requests.Load(),
		Retries:      p.retries.Load(),
		Failovers:    p.failovers.Load(),
		NoReplica503: p.noReplica.Load(),
		BreakerSkips: p.breakerSkips.Load(),
		Rollouts:     p.rollouts.Load(),
		Rollbacks:    p.rollbacks.Load(),
		Uptime:       time.Since(p.started).Round(time.Millisecond).String(),
	}
	for _, b := range p.ordered {
		st.Backends = append(st.Backends, infoOf(b))
	}
	return st
}

func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, p.Stats())
}

func (p *Proxy) handleBackends(w http.ResponseWriter, r *http.Request) {
	infos := make([]BackendInfo, 0, len(p.ordered))
	for _, b := range p.ordered {
		infos = append(infos, infoOf(b))
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"backends": infos})
}

// healthGauge encodes a health state for the psdproxy_backend_state
// gauge: 2 healthy, 1 suspect, 0 down — "bigger is better", so alerting
// on `< 2` reads naturally.
func healthGauge(s HealthState) float64 {
	switch s {
	case Healthy:
		return 2
	case Suspect:
		return 1
	}
	return 0
}

// breakerGauge encodes a breaker state: 0 closed, 1 half-open, 2 open.
func breakerGauge(s BreakerState) float64 {
	switch s {
	case BreakerClosed:
		return 0
	case BreakerHalfOpen:
		return 1
	}
	return 2
}

// handleMetrics is the proxy's Prometheus exposition: fleet counters
// plus per-backend health, breaker, and traffic gauges.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	daemon.WriteMetrics(w, p.renderMetrics)
}

func (p *Proxy) renderMetrics(pw *promtext.Writer) {
	st := p.Stats()

	pw.Family("psdproxy_ready", "gauge", "1 when the proxy reports ready, 0 while draining or with no routable backend.")
	pw.Sample("psdproxy_ready", nil, promtext.Bool(st.Ready))
	pw.Family("psdproxy_backends", "gauge", "Configured backend count.")
	pw.Sample("psdproxy_backends", nil, float64(len(st.Backends)))
	pw.Family("psdproxy_backends_routable", "gauge", "Backends not marked down by the health checker.")
	pw.Sample("psdproxy_backends_routable", nil, float64(st.Routable))
	pw.Family("psdproxy_requests_total", "counter", "Proxied /v1/releases requests.")
	pw.Sample("psdproxy_requests_total", nil, float64(st.Requests))
	pw.Family("psdproxy_retries_total", "counter", "Backend attempts beyond each request's first.")
	pw.Sample("psdproxy_retries_total", nil, float64(st.Retries))
	pw.Family("psdproxy_failovers_total", "counter", "Requests answered by a replica other than the ring owner.")
	pw.Sample("psdproxy_failovers_total", nil, float64(st.Failovers))
	pw.Family("psdproxy_no_replica_503_total", "counter", "Proxy-originated 503s: no routable replica produced a response.")
	pw.Sample("psdproxy_no_replica_503_total", nil, float64(st.NoReplica503))
	pw.Family("psdproxy_breaker_skips_total", "counter", "Candidate backends skipped by an open circuit breaker.")
	pw.Sample("psdproxy_breaker_skips_total", nil, float64(st.BreakerSkips))
	pw.Family("psdproxy_rollouts_total", "counter", "Manifest rollouts attempted.")
	pw.Sample("psdproxy_rollouts_total", nil, float64(st.Rollouts))
	pw.Family("psdproxy_rollbacks_total", "counter", "Manifest rollouts rolled back.")
	pw.Sample("psdproxy_rollbacks_total", nil, float64(st.Rollbacks))

	label := func(b *Backend) []promtext.Label {
		return []promtext.Label{{Name: "backend", Value: b.URL}}
	}
	perBackend := []struct {
		name, typ, help string
		value           func(*Backend) float64
	}{
		{"psdproxy_backend_state", "gauge", "Health state: 2 healthy, 1 suspect, 0 down.",
			func(b *Backend) float64 { return healthGauge(b.State()) }},
		{"psdproxy_backend_up", "gauge", "1 when the backend is routable (not down).",
			func(b *Backend) float64 { return promtext.Bool(b.State() != Down) }},
		{"psdproxy_backend_breaker_state", "gauge", "Breaker: 0 closed, 1 half-open, 2 open.",
			func(b *Backend) float64 { return breakerGauge(b.Breaker.State()) }},
		{"psdproxy_backend_breaker_trips_total", "counter", "Times the backend's breaker opened.",
			func(b *Backend) float64 { return float64(b.Breaker.Trips()) }},
		{"psdproxy_backend_requests_total", "counter", "Attempts forwarded to the backend.",
			func(b *Backend) float64 { return float64(b.Requests.Load()) }},
		{"psdproxy_backend_failures_total", "counter", "Forwarded attempts that failed (transport error or 5xx).",
			func(b *Backend) float64 { return float64(b.Failures.Load()) }},
		{"psdproxy_backend_probes_total", "counter", "Health probes issued to the backend.",
			func(b *Backend) float64 { return float64(b.Probes.Load()) }},
		{"psdproxy_backend_probe_failures_total", "counter", "Health probes that failed.",
			func(b *Backend) float64 { return float64(b.ProbeFails.Load()) }},
	}
	for _, fam := range perBackend {
		pw.Family(fam.name, fam.typ, fam.help)
		for _, b := range p.ordered {
			pw.Sample(fam.name, label(b), fam.value(b))
		}
	}
}
