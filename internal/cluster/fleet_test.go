package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"psd"
	"psd/internal/checksum"
	"psd/internal/serve"
)

// ---- fixtures -------------------------------------------------------------

func fleetPoints(seed int64, n int) []psd.Point {
	pts := make([]psd.Point, 0, n)
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		pts = append(pts, psd.Point{X: 100 * next(), Y: 100 * next()})
	}
	return pts
}

func fleetTree(t testing.TB, seed int64) *psd.Tree {
	t.Helper()
	tree, err := psd.Build(fleetPoints(seed, 1500), psd.NewRect(0, 0, 100, 100), psd.Options{
		Kind: psd.QuadtreeKind, Height: 4, Epsilon: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func fleetArtifact(t testing.TB, tree *psd.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteRelease(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ---- fault-injectable replica --------------------------------------------

// Replica fault modes, applied to /v1/releases traffic only (probe and
// manifest endpoints stay honest, so each fault is isolated to the data
// path it is meant to break).
const (
	modeOK int32 = iota
	mode500
	modeStall    // hold the request until the client gives up
	modeSlowBody // start a response, then break the connection mid-body
	modeShed503  // orderly shed: 503 + Retry-After, like serve's load shedder
)

type replica struct {
	reg  *serve.Registry
	api  *serve.API
	srv  *httptest.Server
	mode atomic.Int32
}

// newReplica starts one real psdserve stack (serve.API over a Registry)
// behind a fault-injection middleware.
func newReplica(t *testing.T, releases map[string]*psd.Tree) *replica {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	rep := &replica{reg: serve.NewRegistry(1 << 10)}
	rep.reg.SetLogger(quiet)
	rep.api = &serve.API{Registry: rep.reg, Logger: quiet}
	for name, tree := range releases {
		if _, err := rep.reg.Register(name, "test", bytes.NewReader(fleetArtifact(t, tree))); err != nil {
			t.Fatal(err)
		}
	}
	inner := rep.api.Handler()
	rep.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/releases") {
			switch rep.mode.Load() {
			case mode500:
				http.Error(w, "injected backend fault", http.StatusInternalServerError)
				return
			case modeStall:
				<-r.Context().Done()
				return
			case modeSlowBody:
				w.Header().Set("Content-Length", "1048576")
				w.WriteHeader(http.StatusOK)
				w.Write([]byte(`{"count":`))
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				return // short write: net/http kills the connection mid-body
			case modeShed503:
				w.Header().Set("Retry-After", "7")
				http.Error(w, "injected shed", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	rep.api.SetReady(true)
	t.Cleanup(rep.srv.Close)
	return rep
}

// newFleet starts n replicas all serving the same releases, plus a proxy
// configured for fast deterministic tests (no real backoff sleeps).
func newFleet(t *testing.T, n int, releases map[string]*psd.Tree) ([]*replica, *Proxy, *httptest.Server) {
	t.Helper()
	reps := make([]*replica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newReplica(t, releases)
		urls[i] = reps[i].srv.URL
	}
	p := NewProxy(urls, 64)
	p.Logger = log.New(io.Discard, "", 0)
	p.AttemptTimeout = 500 * time.Millisecond
	p.RolloutPoll = 10 * time.Millisecond
	p.RolloutReadyTimeout = 5 * time.Second
	p.sleep = func(time.Duration) {} // backoff math still runs; no wall-clock cost
	p.SetReady(true)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	return reps, p, front
}

func replicaFor(t *testing.T, reps []*replica, url string) *replica {
	t.Helper()
	for _, rep := range reps {
		if rep.srv.URL == url {
			return rep
		}
	}
	t.Fatalf("no replica with URL %s", url)
	return nil
}

func fleetGet(t *testing.T, url string, wantStatus int, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d; body %s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %s: %v", url, body, err)
		}
	}
	return resp
}

// sweepRects is the query sweep used for bit-identity checks.
func sweepRects() []psd.Rect {
	rects := make([]psd.Rect, 0, 24)
	for i := 0; i < 24; i++ {
		lo := float64(i * 2)
		rects = append(rects, psd.NewRect(lo, lo/2, lo+30, lo/2+45))
	}
	return rects
}

// sweep runs every rect through the proxy and requires status 200 and
// the exact expected count for each — zero client-visible errors.
func sweep(t *testing.T, front, release string, want []float64) {
	t.Helper()
	for i, q := range sweepRects() {
		var out struct {
			Count float64 `json:"count"`
		}
		fleetGet(t, fmt.Sprintf("%s/v1/releases/%s/count?rect=%g,%g,%g,%g",
			front, release, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &out)
		if out.Count != want[i] {
			t.Fatalf("rect %d: count %v, want %v (answers must be bit-identical across failover)",
				i, out.Count, want[i])
		}
	}
}

// ---- failover -------------------------------------------------------------

// TestFleetFailoverBitIdentical is the core robustness contract: with 3
// replicas serving the same release, faulting the ring owner in any way
// — 5xx, stall, mid-body connection loss, and finally a hard kill — a
// full query sweep through the proxy sees zero errors and bit-identical
// answers throughout.
func TestFleetFailoverBitIdentical(t *testing.T) {
	tree := fleetTree(t, 101)
	reps, p, front := newFleet(t, 3, map[string]*psd.Tree{"alpha": tree})

	want := make([]float64, 0, len(sweepRects()))
	for _, q := range sweepRects() {
		want = append(want, tree.Count(q))
	}

	sweep(t, front.URL, "alpha", want) // healthy fleet first

	owner := replicaFor(t, reps, p.Ring().Owner("alpha"))
	for _, fault := range []struct {
		name string
		mode int32
	}{
		{"5xx", mode500},
		{"stall", modeStall},
		{"slow-body", modeSlowBody},
	} {
		owner.mode.Store(fault.mode)
		sweep(t, front.URL, "alpha", want)
		owner.mode.Store(modeOK)
		// Close the owner's breaker again if the fault tripped it, so the
		// next fault starts from a clean slate.
		owner.srv.CloseClientConnections()
		p.backends[owner.srv.URL].Breaker.Success()
		if t.Failed() {
			t.Fatalf("failed during %s fault", fault.name)
		}
	}

	// Hard kill last: connection refused from now on.
	owner.srv.Close()
	sweep(t, front.URL, "alpha", want)

	st := p.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded despite a faulted owner")
	}
	if st.NoReplica503 != 0 {
		t.Fatalf("%d proxy-originated 503s during single-replica faults, want 0", st.NoReplica503)
	}
}

// TestFleetRetryBudgetExhausted: when every replica 5xxes, the proxy
// spends its whole retry budget and then forwards the last backend
// response rather than synthesizing its own.
func TestFleetRetryBudgetExhausted(t *testing.T) {
	tree := fleetTree(t, 102)
	reps, p, front := newFleet(t, 3, map[string]*psd.Tree{"alpha": tree})
	for _, rep := range reps {
		rep.mode.Store(mode500)
	}
	resp := fleetGet(t, front.URL+"/v1/releases/alpha/count?rect=0,0,50,50",
		http.StatusInternalServerError, nil)
	if got := resp.Header.Get("X-PSD-Backend"); got == "" {
		t.Fatal("exhausted-retries response does not name the last backend")
	}
	st := p.Stats()
	if st.Retries != uint64(DefaultRetries) {
		t.Fatalf("retries = %d, want %d (the full budget)", st.Retries, DefaultRetries)
	}
	total := uint64(0)
	for _, b := range st.Backends {
		total += b.Requests
	}
	if total != uint64(DefaultRetries)+1 {
		t.Fatalf("backend attempts = %d, want %d", total, DefaultRetries+1)
	}
}

// TestFleetBreakerLifecycle drives a backend's breaker through
// closed → open → half-open → closed via real proxied traffic.
func TestFleetBreakerLifecycle(t *testing.T) {
	tree := fleetTree(t, 103)
	reps, p, front := newFleet(t, 2, map[string]*psd.Tree{"alpha": tree})
	owner := replicaFor(t, reps, p.Ring().Owner("alpha"))
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	br := &Breaker{FailureThreshold: 2, OpenFor: time.Minute, now: clk.now}
	p.backends[owner.srv.URL].Breaker = br

	url := front.URL + "/v1/releases/alpha/count?rect=0,0,50,50"
	want := tree.Count(psd.NewRect(0, 0, 50, 50))

	// Two failing rounds trip the owner's breaker; requests still succeed
	// via the other replica.
	owner.mode.Store(mode500)
	var out struct {
		Count float64 `json:"count"`
	}
	fleetGet(t, url, http.StatusOK, &out)
	fleetGet(t, url, http.StatusOK, &out)
	if br.State() != BreakerOpen {
		t.Fatalf("breaker after 2 failed attempts: %v, want open", br.State())
	}

	// While open the owner is skipped entirely: no new attempts hit it.
	before := p.backends[owner.srv.URL].Requests.Load()
	skips := p.Stats().BreakerSkips
	fleetGet(t, url, http.StatusOK, &out)
	if got := p.backends[owner.srv.URL].Requests.Load(); got != before {
		t.Fatalf("open breaker let %d attempts through", got-before)
	}
	if p.Stats().BreakerSkips <= skips {
		t.Fatal("breaker skip not counted")
	}

	// Past the window, one half-open probe goes through; the replica is
	// healthy again, so the probe closes the breaker.
	owner.mode.Store(modeOK)
	clk.advance(time.Minute)
	fleetGet(t, url, http.StatusOK, &out)
	if out.Count != want {
		t.Fatalf("count %v, want %v", out.Count, want)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker after healthy half-open probe: %v, want closed", br.State())
	}
	if got := p.backends[owner.srv.URL].Requests.Load(); got != before+1 {
		t.Fatalf("half-open admitted %d probes, want 1", got-before)
	}
}

// ---- Retry-After semantics (satellite) -----------------------------------

func TestFleetRetryAfterPassthrough(t *testing.T) {
	tree := fleetTree(t, 104)
	reps, _, front := newFleet(t, 3, map[string]*psd.Tree{"alpha": tree})
	url := front.URL + "/v1/releases/alpha/count?rect=0,0,50,50"

	// Backend-originated 503s (orderly shed) pass through unmodified:
	// same status, same Retry-After the backend set.
	for _, rep := range reps {
		rep.mode.Store(modeShed503)
	}
	resp := fleetGet(t, url, http.StatusServiceUnavailable, nil)
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("shed 503 Retry-After = %q, want the backend's own %q", got, "7")
	}
	if resp.Header.Get("X-PSD-Backend") == "" {
		t.Fatal("passthrough 503 does not name its backend")
	}
}

func TestFleetProxyOriginated503(t *testing.T) {
	tree := fleetTree(t, 105)
	reps, p, front := newFleet(t, 2, map[string]*psd.Tree{"alpha": tree})
	p.RetryAfter = 3 * time.Second
	for _, rep := range reps {
		rep.srv.Close()
	}
	resp := fleetGet(t, front.URL+"/v1/releases/alpha/count?rect=0,0,50,50",
		http.StatusServiceUnavailable, nil)
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("proxy-originated 503 Retry-After = %q, want %q", got, "3")
	}
	if resp.Header.Get("X-PSD-Backend") != "" {
		t.Fatal("proxy-originated 503 claims a backend served it")
	}
	if p.Stats().NoReplica503 == 0 {
		t.Fatal("no-replica 503 not counted")
	}
}

// TestFleetUniversal404PassesThrough: a release no replica holds 404s
// everywhere; the proxy must surface that 404, not convert it.
func TestFleetUniversal404PassesThrough(t *testing.T) {
	tree := fleetTree(t, 106)
	_, _, front := newFleet(t, 3, map[string]*psd.Tree{"alpha": tree})
	fleetGet(t, front.URL+"/v1/releases/nosuch/count?rect=0,0,1,1", http.StatusNotFound, nil)
}

// TestFleetRefusesMutations: replica divergence is designed out — state
// changes must go through manifests, so direct mutation is 405.
func TestFleetRefusesMutations(t *testing.T) {
	tree := fleetTree(t, 107)
	_, _, front := newFleet(t, 2, map[string]*psd.Tree{"alpha": tree})
	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/releases/alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE through proxy: status %d, want 405", resp.StatusCode)
	}
}

// ---- health checker integration ------------------------------------------

// TestFleetHealthMarksDeadReplicaDown wires the health checker over a
// real fleet: a killed replica is demoted to down, routing stops trying
// it, queries keep succeeding, and /metrics shows the state.
func TestFleetHealthMarksDeadReplicaDown(t *testing.T) {
	tree := fleetTree(t, 108)
	reps, p, front := newFleet(t, 3, map[string]*psd.Tree{"alpha": tree})
	h := &Health{Backends: p.BackendList(), Timeout: time.Second,
		DownAfter: 3, UpAfter: 2, Logger: log.New(io.Discard, "", 0)}

	dead := reps[1]
	dead.srv.Close()
	for i := 0; i < 3; i++ {
		h.CheckOnce(context.Background())
	}
	db := p.backends[dead.srv.URL]
	if db.State() != Down {
		t.Fatalf("killed replica state %v, want down", db.State())
	}

	want := make([]float64, 0, len(sweepRects()))
	for _, q := range sweepRects() {
		want = append(want, tree.Count(q))
	}
	before := db.Requests.Load()
	sweep(t, front.URL, "alpha", want)
	if got := db.Requests.Load(); got != before {
		t.Fatalf("down replica received %d attempts during the sweep", got-before)
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	downLine := fmt.Sprintf(`psdproxy_backend_state{backend=%q} 0`, dead.srv.URL)
	if !strings.Contains(string(body), downLine) {
		t.Fatalf("/metrics missing %q:\n%s", downLine, body)
	}
	if !strings.Contains(string(body), "psdproxy_backends_routable 2") {
		t.Fatalf("/metrics missing routable=2 gauge:\n%s", body)
	}

	var ready struct {
		Routable int `json:"routable"`
	}
	fleetGet(t, front.URL+"/readyz", http.StatusOK, &ready)
	if ready.Routable != 2 {
		t.Fatalf("readyz routable = %d, want 2", ready.Routable)
	}
}

// ---- manifest rollouts ---------------------------------------------------

// rolloutFixture writes artifact files and returns a manifest over them.
func rolloutFixture(t *testing.T, dir, version string, artifacts map[string][]byte) serve.Manifest {
	t.Helper()
	m := serve.Manifest{Version: version}
	for name, data := range artifacts {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", name, version))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m.Releases = append(m.Releases, serve.ManifestEntry{
			Name: name, Path: path, Fingerprint: checksum.FormatFingerprint(checksum.Checksum(data, checksum.Fingerprint))})
	}
	return m
}

func postRollout(t *testing.T, front string, req RolloutRequest, wantStatus int) RolloutResult {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(front+"/v1/rollout", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/rollout: status %d, want %d; body %s", resp.StatusCode, wantStatus, raw)
	}
	var res RolloutResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding rollout result %s: %v", raw, err)
	}
	return res
}

func manifestVersionOf(t *testing.T, rep *replica) string {
	t.Helper()
	var st serve.ManifestStatus
	fleetGet(t, rep.srv.URL+"/v1/manifest", http.StatusOK, &st)
	return st.Manifest.Version
}

// TestFleetRolloutAndRollback is the rollout contract end to end:
// a clean rollout lands everywhere; a corrupt artifact fails fast
// leaving every replica on the old version; an answer-changing artifact
// passes per-replica apply but fails the bit-compare canary and is
// rolled back automatically; and the same change succeeds when the
// operator explicitly opts into answer changes.
func TestFleetRolloutAndRollback(t *testing.T) {
	dir := t.TempDir()
	treeV1 := fleetTree(t, 109)
	artV1 := fleetArtifact(t, treeV1)
	reps, p, front := newFleet(t, 3, nil)

	// v1: fresh fleet, new release — gated on 200 + finite only.
	m1 := rolloutFixture(t, dir, "v1", map[string][]byte{"alpha": artV1})
	res := postRollout(t, front.URL, RolloutRequest{Manifest: m1}, http.StatusOK)
	if !res.OK || res.Updated != 3 || res.RolledBack {
		t.Fatalf("v1 rollout = %+v", res)
	}
	for _, rep := range reps {
		if v := manifestVersionOf(t, rep); v != "v1" {
			t.Fatalf("replica %s on %q after v1 rollout", rep.srv.URL, v)
		}
	}
	want := make([]float64, 0, len(sweepRects()))
	for _, q := range sweepRects() {
		want = append(want, treeV1.Count(q))
	}
	sweep(t, front.URL, "alpha", want)

	// v2: same bytes republished under a new version (a format/infra
	// migration) — must pass the bit-compare canary on every replica.
	m2 := rolloutFixture(t, dir, "v2", map[string][]byte{"alpha": artV1})
	res = postRollout(t, front.URL, RolloutRequest{Manifest: m2}, http.StatusOK)
	if !res.OK || res.Updated != 3 {
		t.Fatalf("v2 rollout = %+v", res)
	}
	sweep(t, front.URL, "alpha", want)

	// v3: corrupt artifact with an honest checksum. Every replica's apply
	// refuses it (atomic, nothing swapped), so the rollout fails at the
	// first replica with nothing to roll back — the fleet stays on v2.
	m3 := rolloutFixture(t, dir, "v3", map[string][]byte{"alpha": []byte("garbage bytes")})
	res = postRollout(t, front.URL, RolloutRequest{Manifest: m3}, http.StatusBadGateway)
	if res.OK || res.Updated != 0 || res.RolledBack {
		t.Fatalf("corrupt rollout = %+v", res)
	}
	for _, rep := range reps {
		if v := manifestVersionOf(t, rep); v != "v2" {
			t.Fatalf("replica %s on %q after corrupt rollout, want v2", rep.srv.URL, v)
		}
	}
	sweep(t, front.URL, "alpha", want)

	// v4: a *valid* artifact with different answers. Apply succeeds on the
	// first replica, the bit-compare canary catches the changed answers,
	// and the rollout rolls that replica back to v2 automatically.
	treeV4 := fleetTree(t, 110)
	artV4 := fleetArtifact(t, treeV4)
	m4 := rolloutFixture(t, dir, "v4", map[string][]byte{"alpha": artV4})
	res = postRollout(t, front.URL, RolloutRequest{Manifest: m4}, http.StatusBadGateway)
	if res.OK || !res.RolledBack {
		t.Fatalf("answer-changing rollout = %+v, want canary failure + rollback", res)
	}
	if !strings.Contains(res.Error, "canary") {
		t.Fatalf("rollout error %q does not name the canary", res.Error)
	}
	for _, rep := range reps {
		if v := manifestVersionOf(t, rep); v != "v2" {
			t.Fatalf("replica %s on %q after rolled-back rollout, want v2", rep.srv.URL, v)
		}
	}
	sweep(t, front.URL, "alpha", want) // answers unchanged, fleet homogeneous
	if got := p.Stats().Rollbacks; got != 1 {
		t.Fatalf("rollback counter = %d, want 1", got)
	}

	// v4 again with canary=ok: the operator explicitly allows the data
	// change, so the same manifest now lands everywhere.
	res = postRollout(t, front.URL, RolloutRequest{Manifest: m4, Canary: CanaryOK}, http.StatusOK)
	if !res.OK || res.Updated != 3 {
		t.Fatalf("canary=ok rollout = %+v", res)
	}
	want4 := make([]float64, 0, len(sweepRects()))
	for _, q := range sweepRects() {
		want4 = append(want4, treeV4.Count(q))
	}
	sweep(t, front.URL, "alpha", want4)
}

// TestFleetRolloutRefusesLegacyPin: a manifest that pins the old
// whole-file "crc64" instead of the artifact fingerprint is a 400 at the
// proxy, naming the new field, before any replica is touched.
func TestFleetRolloutRefusesLegacyPin(t *testing.T) {
	dir := t.TempDir()
	art := fleetArtifact(t, fleetTree(t, 112))
	reps, p, front := newFleet(t, 2, nil)
	m1 := rolloutFixture(t, dir, "v1", map[string][]byte{"alpha": art})
	postRollout(t, front.URL, RolloutRequest{Manifest: m1}, http.StatusOK)

	legacy := rolloutFixture(t, dir, "v2", map[string][]byte{"alpha": art})
	legacy.Releases[0].LegacyCRC64, legacy.Releases[0].Fingerprint = legacy.Releases[0].Fingerprint, ""
	body, _ := json.Marshal(RolloutRequest{Manifest: legacy})
	resp, err := http.Post(front.URL+"/v1/rollout", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, `"fingerprint"`) {
		t.Fatalf("legacy rollout: status %d, error %q; want 400 naming \"fingerprint\"", resp.StatusCode, msg.Error)
	}
	if got := p.Stats().Rollouts; got != 1 {
		t.Fatalf("rollouts attempted = %d, want 1 (the legacy manifest never started)", got)
	}
	for _, rep := range reps {
		if v := manifestVersionOf(t, rep); v != "v1" {
			t.Fatalf("replica %s on %q after a refused legacy rollout, want v1", rep.srv.URL, v)
		}
	}
}

// TestFleetMidRolloutReplicaDeath: a replica dying between rollout steps
// fails the rollout and rolls the already-updated replicas back — the
// surviving fleet ends homogeneous on the old version.
func TestFleetMidRolloutReplicaDeath(t *testing.T) {
	dir := t.TempDir()
	tree := fleetTree(t, 111)
	art := fleetArtifact(t, tree)
	reps, p, front := newFleet(t, 3, nil)

	m1 := rolloutFixture(t, dir, "v1", map[string][]byte{"alpha": art})
	res := postRollout(t, front.URL, RolloutRequest{Manifest: m1}, http.StatusOK)
	if !res.OK {
		t.Fatalf("v1 rollout = %+v", res)
	}

	// Kill the second replica in rollout order, then roll out v2. The
	// first replica updates; the dead one fails its snapshot step; the
	// rollout must roll the first back to v1 and never touch the third.
	var deadURL string
	for i, b := range p.BackendList() {
		if i == 1 {
			deadURL = b.URL
			replicaFor(t, reps, b.URL).srv.Close()
		}
	}
	m2 := rolloutFixture(t, dir, "v2", map[string][]byte{"alpha": art})
	res = postRollout(t, front.URL, RolloutRequest{Manifest: m2}, http.StatusBadGateway)
	if res.OK || !res.RolledBack || res.Updated != 1 {
		t.Fatalf("mid-death rollout = %+v, want 1 updated then rolled back", res)
	}
	for _, b := range res.Backends {
		switch b.URL {
		case p.BackendList()[0].URL:
			if b.Status != "rolled-back" {
				t.Fatalf("first replica status %q, want rolled-back", b.Status)
			}
		case deadURL:
			if b.Status != "failed" {
				t.Fatalf("dead replica status %q, want failed", b.Status)
			}
		default:
			if b.Status != "not-attempted" {
				t.Fatalf("third replica status %q, want not-attempted", b.Status)
			}
		}
	}
	for _, rep := range reps {
		if rep.srv.URL == deadURL {
			continue
		}
		if v := manifestVersionOf(t, rep); v != "v1" {
			t.Fatalf("surviving replica %s on %q, want v1", rep.srv.URL, v)
		}
	}
	if p.Stats().Rollbacks != 1 {
		t.Fatalf("rollback counter = %d, want 1", p.Stats().Rollbacks)
	}
}

// TestProxyMetricsExposition: the proxy's /metrics carries the fleet
// counters in valid exposition shape.
func TestProxyMetricsExposition(t *testing.T) {
	tree := fleetTree(t, 112)
	_, _, front := newFleet(t, 2, map[string]*psd.Tree{"alpha": tree})
	fleetGet(t, front.URL+"/v1/releases/alpha/count?rect=0,0,50,50", http.StatusOK, nil)

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, wantSub := range []string{
		"# TYPE psdproxy_requests_total counter",
		"psdproxy_requests_total 1",
		"psdproxy_backends 2",
		"# TYPE psdproxy_backend_requests_total counter",
		"psdproxy_backend_state{backend=",
	} {
		if !strings.Contains(text, wantSub) {
			t.Fatalf("/metrics missing %q:\n%s", wantSub, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}
