package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"psd"
	"psd/internal/daemon"
)

// API builds the HTTP handler of psdserve. All mutable state is atomic
// counters or lives in the Registry; the API is safe for concurrent use.
type API struct {
	// Registry holds the served releases.
	Registry *Registry
	// WatchDir, when non-empty, is rescanned by POST /v1/reload.
	WatchDir string
	// MaxBodyBytes bounds uploaded release artifacts and batch bodies
	// (default 256 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds the rectangles per batch request (default 65536).
	MaxBatch int
	// MaxInFlight caps concurrently-served /v1 requests; past it, new ones
	// are shed with 503 + Retry-After (0 disables shedding).
	MaxInFlight int
	// RequestTimeout bounds each /v1 request; an over-deadline traversal is
	// abandoned at its next cancellation checkpoint and answered 503 +
	// Retry-After (0 disables deadlines).
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint on shed and over-deadline
	// responses (default DefaultRetryAfter).
	RetryAfter time.Duration
	// Logger receives panic stacks (nil means the standard logger).
	Logger *log.Logger

	started time.Time
	// ready gates /readyz: false until initial loading finished, false
	// again once a drain began (SetReady).
	ready atomic.Bool
	// inflight is the live /v1 request count; panics, sheds and timeouts
	// are the monotonic fault counters of GET /stats.
	inflight atomic.Int64
	panics   atomic.Uint64
	sheds    atomic.Uint64
	timeouts atomic.Uint64
	// testHookBatch, when set, runs inside handleBatch between resolving
	// the release and answering — the graceful-drain test uses it to hold a
	// request in flight at a known point.
	testHookBatch func()
}

// DefaultMaxBodyBytes bounds request bodies when API.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 256 << 20

// DefaultMaxBatch bounds batch sizes when API.MaxBatch is zero.
const DefaultMaxBatch = 65536

// Handler returns the routed HTTP handler:
//
//	GET    /healthz                      liveness + release count
//	GET    /readyz                       readiness (503 while loading/draining)
//	GET    /stats                        process-level counters (ServerStats)
//	GET    /v1/releases                  list releases, metadata + quarantine
//	POST   /v1/releases/{name}           register/replace a release from the body
//	                                     (JSON or binary v2, sniffed)
//	DELETE /v1/releases/{name}           unregister
//	GET    /v1/releases/{name}/count     one query: ?rect=lox,loy,hix,hiy
//	POST   /v1/releases/{name}/batch     many queries: {"rects":[[4]...]}
//	GET    /v1/releases/{name}/regions   effective leaf regions + counts
//	GET    /v1/releases/{name}/stats     serving counters
//	POST   /v1/reload                    rescan the watch directory
//
// The handler is wrapped in the lifecycle middleware (lifecycle.go): panic
// recovery outermost, then load shedding and per-request deadlines on the
// /v1 routes. Note /v1 routes are NOT gated on readiness — a draining
// replica keeps answering requests already routed to it; only the /readyz
// probe tells the balancer to stop sending new ones.
func (a *API) Handler() http.Handler {
	a.started = time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /readyz", a.handleReadyz)
	mux.HandleFunc("GET /stats", a.handleServerStats)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /v1/manifest", a.handleManifestGet)
	mux.HandleFunc("POST /v1/manifest", a.handleManifestApply)
	mux.HandleFunc("GET /v1/releases", a.handleList)
	mux.HandleFunc("POST /v1/releases/{name}", a.handleRegister)
	mux.HandleFunc("DELETE /v1/releases/{name}", a.handleDelete)
	mux.HandleFunc("GET /v1/releases/{name}/count", a.handleCount)
	mux.HandleFunc("POST /v1/releases/{name}/batch", a.handleBatch)
	mux.HandleFunc("GET /v1/releases/{name}/regions", a.handleRegions)
	mux.HandleFunc("GET /v1/releases/{name}/stats", a.handleStats)
	mux.HandleFunc("GET /v1/releases/{name}/versions", a.handleVersions)
	mux.HandleFunc("POST /v1/releases/{name}/promote", a.handlePromote)
	mux.HandleFunc("POST /v1/reload", a.handleReload)
	return a.recoverPanics(a.shed(mux))
}

func (a *API) maxBody() int64 {
	if a.MaxBodyBytes > 0 {
		return a.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

func (a *API) maxBatch() int {
	if a.MaxBatch > 0 {
		return a.MaxBatch
	}
	return DefaultMaxBatch
}

// release resolves the {name} path segment — a bare name (served at its
// pinned or latest version when versioned artifacts exist), an explicit
// "name@vN", or a bare name plus ?version=vN time travel — writing a 404
// (or 400 for a malformed version) on a miss.
func (a *API) release(w http.ResponseWriter, r *http.Request) (*Release, bool) {
	name := r.PathValue("name")
	version := r.URL.Query().Get("version")
	rel, err := a.Registry.Resolve(name, version)
	if err != nil {
		status := http.StatusNotFound
		if version != "" && (strings.HasPrefix(err.Error(), "bad version") ||
			strings.Contains(err.Error(), "already carries a version")) {
			status = http.StatusBadRequest
		}
		daemon.WriteError(w, status, "%v", err)
		return nil, false
	}
	return rel, true
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"releases": a.Registry.Len(),
		"uptime":   time.Since(a.started).Round(time.Millisecond).String(),
	})
}

// releaseInfo is the metadata shape of /v1/releases.
type releaseInfo struct {
	Name       string     `json:"name"`
	Kind       string     `json:"kind"`
	Height     int        `json:"height"`
	Epsilon    float64    `json:"epsilon"`
	Domain     [4]float64 `json:"domain"`
	NumRegions int        `json:"num_regions"`
	Bytes      int64      `json:"bytes"`
	Source     string     `json:"source"`
	LoadedAt   time.Time  `json:"loaded_at"`
}

func infoOf(rel *Release) releaseInfo {
	d := rel.Slab.Domain()
	return releaseInfo{
		Name:       rel.Name,
		Kind:       rel.Slab.Kind(),
		Height:     rel.Slab.Height(),
		Epsilon:    rel.Slab.PrivacyCost(),
		Domain:     [4]float64{d.Lo.X, d.Lo.Y, d.Hi.X, d.Hi.Y},
		NumRegions: rel.NumRegions,
		Bytes:      rel.Bytes,
		Source:     rel.Source,
		LoadedAt:   rel.LoadedAt,
	}
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	rels := a.Registry.List()
	infos := make([]releaseInfo, len(rels))
	for i, rel := range rels {
		infos[i] = infoOf(rel)
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"releases":    infos,
		"quarantined": a.Registry.Quarantined(),
	})
}

func (a *API) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, a.maxBody())
	rel, err := a.Registry.Register(name, "api", body)
	if err != nil {
		if tooLarge(err) {
			daemon.WriteError(w, http.StatusRequestEntityTooLarge,
				"register %q: artifact exceeds the %d-byte body limit", name, a.maxBody())
			return
		}
		daemon.WriteError(w, http.StatusBadRequest, "register %q: %v", name, err)
		return
	}
	daemon.WriteJSON(w, http.StatusCreated, infoOf(rel))
}

// tooLarge recognizes http.MaxBytesReader's failure inside a decode or
// parse error chain: an over-limit request is the client asking for too
// much (413), not a malformed body (400), so the two must not share a
// status.
func tooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

func (a *API) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !a.Registry.Remove(name) {
		daemon.WriteError(w, http.StatusNotFound, "no release %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseRect parses "lox,loy,hix,hiy" into a finite, ordered rectangle
// (inverted bounds are swapped, matching psdtool).
func parseRect(s string) (psd.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return psd.Rect{}, fmt.Errorf("want lox,loy,hix,hiy, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return psd.Rect{}, fmt.Errorf("bad coordinate %q", p)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return psd.Rect{}, fmt.Errorf("non-finite coordinate %q", p)
		}
		v[i] = f
	}
	return rectFrom(v)
}

// rectFrom orders and validates four bounds as a query rectangle.
func rectFrom(v [4]float64) (psd.Rect, error) {
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return psd.Rect{}, fmt.Errorf("non-finite rect %v", v)
		}
	}
	if v[2] < v[0] {
		v[0], v[2] = v[2], v[0]
	}
	if v[3] < v[1] {
		v[1], v[3] = v[3], v[1]
	}
	return psd.Rect{Lo: psd.Point{X: v[0], Y: v[1]}, Hi: psd.Point{X: v[2], Y: v[3]}}, nil
}

func (a *API) handleCount(w http.ResponseWriter, r *http.Request) {
	rel, ok := a.release(w, r)
	if !ok {
		return
	}
	spec := r.URL.Query().Get("rect")
	if spec == "" {
		daemon.WriteError(w, http.StatusBadRequest, "missing ?rect=lox,loy,hix,hiy")
		return
	}
	q, err := parseRect(spec)
	if err != nil {
		daemon.WriteError(w, http.StatusBadRequest, "bad rect: %v", err)
		return
	}
	val, cached, err := rel.CountCtx(r.Context(), q)
	if err != nil {
		a.countErr(w, err)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"release": rel.Name,
		"rect":    [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y},
		"count":   val,
		"cached":  cached,
	})
}

// batchRequest is the body of POST /v1/releases/{name}/batch.
type batchRequest struct {
	Rects [][4]float64 `json:"rects"`
}

func (a *API) handleBatch(w http.ResponseWriter, r *http.Request) {
	rel, ok := a.release(w, r)
	if !ok {
		return
	}
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, a.maxBody())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		// An over--max-body request surfaces as a decode error; report it as
		// 413 like the over-MaxBatch path below, not as a malformed body.
		if tooLarge(err) {
			daemon.WriteError(w, http.StatusRequestEntityTooLarge,
				"batch body exceeds the %d-byte limit", a.maxBody())
			return
		}
		daemon.WriteError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Rects) > a.maxBatch() {
		daemon.WriteError(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds limit %d", len(req.Rects), a.maxBatch())
		return
	}
	qs := make([]psd.Rect, len(req.Rects))
	for i, v := range req.Rects {
		q, err := rectFrom(v)
		if err != nil {
			daemon.WriteError(w, http.StatusBadRequest, "rect %d: %v", i, err)
			return
		}
		qs[i] = q
	}
	if a.testHookBatch != nil {
		a.testHookBatch()
	}
	// One node-major engine call answers every miss; hits fill from the
	// cache per query, exactly as the single-query endpoint would.
	vals := make([]float64, len(qs))
	hits, bst, err := rel.CountBatchIntoCtx(r.Context(), vals, qs)
	if err != nil {
		a.countErr(w, err)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"release":    rel.Name,
		"counts":     vals,
		"cache_hits": hits,
		"stats":      bst,
	})
}

func (a *API) handleRegions(w http.ResponseWriter, r *http.Request) {
	rel, ok := a.release(w, r)
	if !ok {
		return
	}
	rects, counts := rel.Slab.Regions()
	flat := make([][4]float64, len(rects))
	for i, rc := range rects {
		flat[i] = [4]float64{rc.Lo.X, rc.Lo.Y, rc.Hi.X, rc.Hi.Y}
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"release": rel.Name,
		"rects":   flat,
		"counts":  counts,
	})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	rel, ok := a.release(w, r)
	if !ok {
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"release": rel.Name,
		"stats":   rel.Stats(),
	})
}

// handleVersions lists the registered versions of a base name with the pin
// and active markers — the time-travel index.
func (a *API) handleVersions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	versions := a.Registry.Versions(name)
	if len(versions) == 0 {
		daemon.WriteError(w, http.StatusNotFound, "no versioned releases for %q", name)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "versions": versions})
}

// handlePromote pins a base name to ?version=N (or vN); ?version=0 or
// ?version=latest unpins, returning the name to latest-wins resolution.
func (a *API) handlePromote(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec := r.URL.Query().Get("version")
	if spec == "" {
		daemon.WriteError(w, http.StatusBadRequest, "missing ?version=N (0 or \"latest\" to unpin)")
		return
	}
	v := 0
	if spec != "latest" {
		var ok bool
		if v, ok = parseVersionSuffix(spec); !ok {
			n, err := strconv.Atoi(spec)
			if err != nil || n < 0 {
				daemon.WriteError(w, http.StatusBadRequest, "bad version %q (want N, vN, 0, or \"latest\")", spec)
				return
			}
			v = n
		}
	}
	if err := a.Registry.Promote(name, v); err != nil {
		daemon.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	if v == 0 {
		a.logf("serve: unpinned %q (latest-wins resolution)", name)
	} else {
		a.logf("serve: promoted %q to v%d", name, v)
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "versions": a.Registry.Versions(name)})
}

// handleManifestGet reports the last applied rollout manifest; 404 until
// one has been applied (a watch-dir or flag-loaded replica has none).
func (a *API) handleManifestGet(w http.ResponseWriter, r *http.Request) {
	st, ok := a.Registry.CurrentManifest()
	if !ok {
		daemon.WriteError(w, http.StatusNotFound, "no manifest applied")
		return
	}
	daemon.WriteJSON(w, http.StatusOK, st)
}

// handleManifestApply pulls, verifies, and atomically installs a rollout
// manifest. A failed apply changes nothing (400: the replica still
// serves its previous set), which is what the fleet coordinator's
// rollback leans on.
func (a *API) handleManifestApply(w http.ResponseWriter, r *http.Request) {
	var m Manifest
	body := http.MaxBytesReader(w, r.Body, a.maxBody())
	if err := json.NewDecoder(body).Decode(&m); err != nil {
		if tooLarge(err) {
			daemon.WriteError(w, http.StatusRequestEntityTooLarge,
				"manifest exceeds the %d-byte body limit", a.maxBody())
			return
		}
		daemon.WriteError(w, http.StatusBadRequest, "bad manifest body: %v", err)
		return
	}
	if err := a.Registry.ApplyManifest(m); err != nil {
		daemon.WriteError(w, http.StatusBadRequest, "apply manifest: %v", err)
		return
	}
	a.logf("serve: applied manifest %q (%d releases)", m.Version, len(m.Releases))
	st, _ := a.Registry.CurrentManifest()
	daemon.WriteJSON(w, http.StatusOK, st)
}

func (a *API) handleReload(w http.ResponseWriter, r *http.Request) {
	if a.WatchDir == "" {
		daemon.WriteError(w, http.StatusBadRequest, "no watch directory configured (-dir)")
		return
	}
	loaded, skipped, err := a.Registry.ScanDir(a.WatchDir)
	resp := map[string]any{
		"loaded":      loaded,
		"skipped":     skipped,
		"quarantined": a.Registry.Quarantined(),
	}
	if err != nil {
		resp["error"] = err.Error()
		daemon.WriteJSON(w, http.StatusInternalServerError, resp)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, resp)
}
