package serve

import (
	"net/http"

	"psd/internal/daemon"
	"psd/internal/promtext"
)

// GET /metrics: the same counters /stats and /v1/releases/{name}/stats
// already expose, in Prometheus text exposition format so a scraper can
// watch the fleet without bespoke JSON glue. No external dependencies —
// the exposition writer is internal/promtext.

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	daemon.WriteMetrics(w, a.renderMetrics)
}

func (a *API) renderMetrics(pw *promtext.Writer) {
	st := a.serverStats()

	pw.Family("psdserve_ready", "gauge", "1 when the replica reports ready, 0 while loading or draining.")
	pw.Sample("psdserve_ready", nil, promtext.Bool(st.Ready))
	pw.Family("psdserve_releases", "gauge", "Number of releases currently served.")
	pw.Sample("psdserve_releases", nil, float64(st.Releases))
	pw.Family("psdserve_quarantined", "gauge", "Number of quarantined watch-dir artifacts.")
	pw.Sample("psdserve_quarantined", nil, float64(st.Quarantined))
	if bases := a.Registry.VersionedBases(); len(bases) > 0 {
		type baseVer struct {
			base           string
			count          int
			latest, active float64
		}
		bvs := make([]baseVer, 0, len(bases))
		for _, b := range bases {
			bv := baseVer{base: b}
			for _, v := range a.Registry.Versions(b) {
				bv.count++
				if float64(v.Version) > bv.latest {
					bv.latest = float64(v.Version)
				}
				if v.Active {
					bv.active = float64(v.Version)
				}
			}
			bvs = append(bvs, bv)
		}
		baseLabel := func(b string) []promtext.Label {
			return []promtext.Label{{Name: "base", Value: b}}
		}
		pw.Family("psdserve_release_versions", "gauge", "Registered versions per base release name.")
		for _, bv := range bvs {
			pw.Sample("psdserve_release_versions", baseLabel(bv.base), float64(bv.count))
		}
		pw.Family("psdserve_release_version_latest", "gauge", "Highest registered version per base release name.")
		for _, bv := range bvs {
			pw.Sample("psdserve_release_version_latest", baseLabel(bv.base), bv.latest)
		}
		pw.Family("psdserve_release_version_active", "gauge", "Version the bare base name resolves to (pinned or latest).")
		for _, bv := range bvs {
			pw.Sample("psdserve_release_version_active", baseLabel(bv.base), bv.active)
		}
	}
	pw.Family("psdserve_in_flight", "gauge", "Concurrently served /v1 requests right now.")
	pw.Sample("psdserve_in_flight", nil, float64(st.InFlight))
	pw.Family("psdserve_panics_total", "counter", "Handler panics recovered.")
	pw.Sample("psdserve_panics_total", nil, float64(st.Panics))
	pw.Family("psdserve_sheds_total", "counter", "Requests shed with 503 at the in-flight cap.")
	pw.Sample("psdserve_sheds_total", nil, float64(st.Sheds))
	pw.Family("psdserve_timeouts_total", "counter", "Requests abandoned at the per-request deadline.")
	pw.Sample("psdserve_timeouts_total", nil, float64(st.Timeouts))

	rels := a.Registry.List()
	relLabel := func(name string) []promtext.Label {
		return []promtext.Label{{Name: "release", Value: name}}
	}
	// One stats snapshot per release, reused across families (the format
	// wants each family's samples grouped under its TYPE line).
	snaps := make([]StatsSnapshot, len(rels))
	for i, rel := range rels {
		snaps[i] = rel.Stats()
	}
	perRelease := []struct {
		name, typ, help string
		value           func(StatsSnapshot) float64
	}{
		{"psdserve_release_requests_total", "counter", "Count/batch requests served, per release.",
			func(s StatsSnapshot) float64 { return float64(s.Requests) }},
		{"psdserve_release_queries_total", "counter", "Individual rectangles answered, per release.",
			func(s StatsSnapshot) float64 { return float64(s.Queries) }},
		{"psdserve_release_cache_hits_total", "counter", "Rectangles answered from the cache, per release.",
			func(s StatsSnapshot) float64 { return float64(s.CacheHits) }},
		{"psdserve_release_cache_hit_rate", "gauge", "Cache hit rate since load, per release.",
			func(s StatsSnapshot) float64 { return s.CacheHitRate }},
		{"psdserve_release_cache_len", "gauge", "Answers currently cached, per release.",
			func(s StatsSnapshot) float64 { return float64(s.CacheLen) }},
		{"psdserve_release_cache_evictions_total", "counter", "Cached answers displaced by capacity pressure, per release.",
			func(s StatsSnapshot) float64 { return float64(s.CacheEvictions) }},
	}
	for _, fam := range perRelease {
		pw.Family(fam.name, fam.typ, fam.help)
		for i, rel := range rels {
			pw.Sample(fam.name, relLabel(rel.Name), fam.value(snaps[i]))
		}
	}
}
