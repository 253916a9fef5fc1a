package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"psd"
	"psd/internal/daemon"
)

// testPoints generates n deterministic points over [0,100)² via splitmix64
// hashing (no internal/rng import). Every skip-th point is pulled into the
// lower-left corner; skip 0 leaves the cloud uniform.
func testPoints(seed int64, n, skip int) []psd.Point {
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
		x, y := 100*next(), 100*next()
		if skip > 0 && i%skip == 0 {
			x, y = x*0.2, y*0.2
		}
		pts = append(pts, psd.Point{X: x, Y: y})
	}
	return pts
}

// countOf asks rel for one rect under a context that never fires.
func countOf(t testing.TB, rel *Release, q psd.Rect) (val float64, cached bool) {
	t.Helper()
	val, cached, err := rel.CountCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("CountCtx(%v): %v", q, err)
	}
	return val, cached
}

// countBatchOf answers qs on rel on one worker under a context that never
// fires.
func countBatchOf(t testing.TB, rel *Release, qs []psd.Rect) (vals []float64, hits int, st psd.QueryStats) {
	t.Helper()
	vals = make([]float64, len(qs))
	hits, st, err := rel.CountBatchIntoCtx(context.Background(), vals, qs, 1)
	if err != nil {
		t.Fatalf("CountBatchIntoCtx: %v", err)
	}
	return vals, hits, st
}

// buildTree constructs a small deterministic tree for serving tests.
func buildTree(t testing.TB, seed int64) *psd.Tree {
	t.Helper()
	dom := psd.NewRect(0, 0, 100, 100)
	tree, err := psd.Build(testPoints(seed, 2000, 0), dom, psd.Options{
		Kind: psd.QuadtreeKind, Height: 4, Epsilon: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func releaseBytes(t *testing.T, tree *psd.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteRelease(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, api *API) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	tree := buildTree(t, 7)
	reg := NewRegistry(1024)
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	// Empty registry: health is up, count 404s.
	var health struct {
		Status   string `json:"status"`
		Releases int    `json:"releases"`
	}
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Releases != 0 {
		t.Fatalf("healthz = %+v", health)
	}
	getJSON(t, srv.URL+"/v1/releases/roads/count?rect=0,0,1,1", http.StatusNotFound, nil)

	// Register over HTTP.
	var info releaseInfo
	postJSON(t, srv.URL+"/v1/releases/roads", releaseBytes(t, tree), http.StatusCreated, &info)
	if info.Kind != "quadtree" || info.Height != 4 {
		t.Fatalf("register info = %+v", info)
	}

	// Single count matches the in-process tree exactly.
	q := psd.NewRect(10, 20, 55, 70)
	want := tree.Count(q)
	var single struct {
		Count  float64 `json:"count"`
		Cached bool    `json:"cached"`
	}
	url := fmt.Sprintf("%s/v1/releases/roads/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y)
	getJSON(t, url, http.StatusOK, &single)
	if single.Count != want {
		t.Fatalf("served count %v, want %v", single.Count, want)
	}
	if single.Cached {
		t.Fatal("first query reported cached")
	}
	getJSON(t, url, http.StatusOK, &single)
	if single.Count != want || !single.Cached {
		t.Fatalf("repeat query = %+v, want cached %v", single, want)
	}

	// Batch matches CountBatch exactly (including a repeated rect → cache hit).
	qs := []psd.Rect{
		psd.NewRect(0, 0, 100, 100),
		psd.NewRect(25, 25, 75, 75),
		q, // cached from above
	}
	wantAll := tree.CountBatch(qs)
	body, _ := json.Marshal(map[string][][4]float64{"rects": {
		{0, 0, 100, 100}, {25, 25, 75, 75}, {q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y},
	}})
	var batch struct {
		Counts    []float64 `json:"counts"`
		CacheHits int       `json:"cache_hits"`
	}
	postJSON(t, srv.URL+"/v1/releases/roads/batch", body, http.StatusOK, &batch)
	if len(batch.Counts) != len(wantAll) {
		t.Fatalf("batch returned %d counts", len(batch.Counts))
	}
	for i := range wantAll {
		if batch.Counts[i] != wantAll[i] {
			t.Fatalf("batch[%d] = %v, want %v", i, batch.Counts[i], wantAll[i])
		}
	}
	if batch.CacheHits < 1 {
		t.Fatalf("batch cache hits = %d, want >= 1", batch.CacheHits)
	}

	// Regions match.
	rects, counts := tree.Regions()
	var regions struct {
		Rects  [][4]float64 `json:"rects"`
		Counts []float64    `json:"counts"`
	}
	getJSON(t, srv.URL+"/v1/releases/roads/regions", http.StatusOK, &regions)
	if len(regions.Rects) != len(rects) || len(regions.Counts) != len(counts) {
		t.Fatalf("regions: %d/%d, want %d/%d",
			len(regions.Rects), len(regions.Counts), len(rects), len(counts))
	}
	for i := range counts {
		if regions.Counts[i] != counts[i] {
			t.Fatalf("region count %d = %v, want %v", i, regions.Counts[i], counts[i])
		}
	}

	// Stats reflect the traffic.
	var statsResp struct {
		Stats StatsSnapshot `json:"stats"`
	}
	getJSON(t, srv.URL+"/v1/releases/roads/stats", http.StatusOK, &statsResp)
	st := statsResp.Stats
	if st.Requests != 3 || st.Queries != 5 {
		t.Fatalf("stats = %+v, want 3 requests / 5 queries", st)
	}
	if st.CacheHits != 2 || st.CacheHitRate != 0.4 {
		t.Fatalf("stats = %+v, want 2 hits (rate 0.4)", st)
	}

	// List, then delete.
	var list struct {
		Releases []releaseInfo `json:"releases"`
	}
	getJSON(t, srv.URL+"/v1/releases", http.StatusOK, &list)
	if len(list.Releases) != 1 || list.Releases[0].Name != "roads" {
		t.Fatalf("list = %+v", list)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/releases/roads", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/v1/releases/roads/count?rect=0,0,1,1", http.StatusNotFound, nil)
}

func TestServerRejectsBadInput(t *testing.T) {
	tree := buildTree(t, 9)
	reg := NewRegistry(16)
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: reg, MaxBatch: 4}
	srv := newTestServer(t, api)

	getJSON(t, srv.URL+"/v1/releases/r/count", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/releases/r/count?rect=1,2,3", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/releases/r/count?rect=a,b,c,d", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/v1/releases/r/count?rect=NaN,0,1,1", http.StatusBadRequest, nil)

	// Inverted bounds are normalized, not rejected.
	var single struct {
		Count float64 `json:"count"`
	}
	getJSON(t, srv.URL+"/v1/releases/r/count?rect=60,60,20,20", http.StatusOK, &single)
	if want := tree.Count(psd.NewRect(20, 20, 60, 60)); single.Count != want {
		t.Fatalf("normalized count %v, want %v", single.Count, want)
	}

	postJSON(t, srv.URL+"/v1/releases/r/batch", []byte("{bad"), http.StatusBadRequest, nil)
	over, _ := json.Marshal(map[string][][4]float64{"rects": {
		{0, 0, 1, 1}, {0, 0, 1, 1}, {0, 0, 1, 1}, {0, 0, 1, 1}, {0, 0, 1, 1},
	}})
	postJSON(t, srv.URL+"/v1/releases/r/batch", over, http.StatusRequestEntityTooLarge, nil)
	nanBatch, _ := json.Marshal(map[string][]any{"rects": {[]any{math.MaxFloat64, 0, "NaN", 1}}})
	postJSON(t, srv.URL+"/v1/releases/r/batch", nanBatch, http.StatusBadRequest, nil)
	// Like /count, a batch rect is exactly four numbers: short, long and
	// null rects are rejected, never zero-filled or truncated.
	for body, want := range map[string]string{
		`{"rects":[[1,2]]}`:                 "rect 0: want 4 numbers, got 2",
		`{"rects":[[0,0,1,1],[0,0,1,1,5]]}`: "rect 1: want 4 numbers, got 5",
		`{"rects":[[]]}`:                    "rect 0: want 4 numbers, got 0",
		`{"rects":[null]}`:                  "rect 0: want 4 numbers, got 0",
	} {
		var resp struct {
			Error string `json:"error"`
		}
		postJSON(t, srv.URL+"/v1/releases/r/batch", []byte(body), http.StatusBadRequest, &resp)
		if resp.Error != want {
			t.Errorf("batch %s: error %q, want %q", body, resp.Error, want)
		}
	}

	// Malformed artifacts never register.
	postJSON(t, srv.URL+"/v1/releases/bad", []byte("{not a release"), http.StatusBadRequest, nil)
	postJSON(t, srv.URL+"/v1/releases/bad",
		[]byte(`{"version":1,"kind":"quadtree","epsilon":1,"fanout":4,"height":12,"domain":[0,0,1,1],"rects":[[0,0,1,1]],"counts":[1]}`),
		http.StatusBadRequest, nil)
	postJSON(t, srv.URL+"/v1/releases/bad%2Fname", releaseBytes(t, tree), http.StatusBadRequest, nil)
	if _, ok := reg.Get("bad"); ok {
		t.Fatal("malformed artifact was registered")
	}

	// Reload without a watch dir is a 400.
	postJSON(t, srv.URL+"/v1/reload", nil, http.StatusBadRequest, nil)
}

// TestOverLimitBodiesReturn413 pins the HTTP status split between "too big"
// and "malformed": a batch body over -max-body must be 413 (like the
// over-MaxBatch rect-count path), never a generic 400 decode error — and
// the same for an over-limit artifact upload.
func TestOverLimitBodiesReturn413(t *testing.T) {
	tree := buildTree(t, 10)
	artifact := releaseBytes(t, tree)
	reg := NewRegistry(16)
	if _, err := reg.Register("r", "test", bytes.NewReader(artifact)); err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: reg, MaxBodyBytes: 512, MaxBatch: 100000}
	srv := newTestServer(t, api)

	// A structurally valid batch body that is simply too large.
	big := map[string][][4]float64{"rects": {}}
	for i := 0; i < 200; i++ {
		big["rects"] = append(big["rects"], [4]float64{0, 0, float64(i), float64(i)})
	}
	body, _ := json.Marshal(big)
	if len(body) <= 512 {
		t.Fatalf("test body is only %d bytes", len(body))
	}
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusRequestEntityTooLarge, nil)

	// Under the limit, the same shape still works.
	small, _ := json.Marshal(map[string][][4]float64{"rects": {{0, 0, 1, 1}}})
	postJSON(t, srv.URL+"/v1/releases/r/batch", small, http.StatusOK, nil)

	// Artifact uploads over the limit are 413 too (and register nothing).
	if len(artifact) <= 512 {
		t.Fatalf("artifact is only %d bytes", len(artifact))
	}
	postJSON(t, srv.URL+"/v1/releases/toobig", artifact, http.StatusRequestEntityTooLarge, nil)
	if _, ok := reg.Get("toobig"); ok {
		t.Fatal("over-limit artifact was registered")
	}

	// A malformed (but small) body keeps its 400.
	postJSON(t, srv.URL+"/v1/releases/r/batch", []byte("{bad"), http.StatusBadRequest, nil)
}

// ageFile pushes a file's mtime far enough into the past that a rescan can
// trust an unchanged {size, mtime} (see fileState.settled).
func ageFile(t *testing.T, path string) {
	t.Helper()
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

func TestWatchDirReload(t *testing.T) {
	dir := t.TempDir()
	treeA := buildTree(t, 11)
	if err := os.WriteFile(filepath.Join(dir, "alpha.json"), releaseBytes(t, treeA), 0o644); err != nil {
		t.Fatal(err)
	}
	// Settle the mtime: a freshly written file is deliberately rescanned
	// until its mtime-granularity window closes (TestWatchDirRescansFreshMtime).
	ageFile(t, filepath.Join(dir, "alpha.json"))
	reg := NewRegistry(64)
	api := &API{Registry: reg, WatchDir: dir}
	srv := newTestServer(t, api)

	var out struct {
		Loaded  []string `json:"loaded"`
		Skipped []string `json:"skipped"`
	}
	postJSON(t, srv.URL+"/v1/reload", nil, http.StatusOK, &out)
	if len(out.Loaded) != 1 || out.Loaded[0] != "alpha" {
		t.Fatalf("first scan loaded %v", out.Loaded)
	}

	// Unchanged files are skipped (cache and stats survive).
	rel, _ := reg.Get("alpha")
	countOf(t, rel, psd.NewRect(0, 0, 50, 50))
	postJSON(t, srv.URL+"/v1/reload", nil, http.StatusOK, &out)
	if len(out.Skipped) != 1 || len(out.Loaded) != 0 {
		t.Fatalf("second scan = %+v", out)
	}
	if rel2, _ := reg.Get("alpha"); rel2 != rel {
		t.Fatal("unchanged file was re-registered")
	}

	// A new file registers under its basename; a bad file reports an error
	// without blocking the good ones.
	treeB := buildTree(t, 12)
	if err := os.WriteFile(filepath.Join(dir, "beta.json"), releaseBytes(t, treeB), 0o644); err != nil {
		t.Fatal(err)
	}
	ageFile(t, filepath.Join(dir, "beta.json"))
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var third struct {
		Loaded  []string `json:"loaded"`
		Skipped []string `json:"skipped"`
		Error   string   `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&third); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("scan with bad file: status %d", resp.StatusCode)
	}
	if len(third.Loaded) != 1 || third.Loaded[0] != "beta" || third.Error == "" {
		t.Fatalf("third scan = %+v", third)
	}
	if _, ok := reg.Get("beta"); !ok {
		t.Fatal("beta not registered")
	}

	// An API-posted release under a watched name must not stick: even with
	// the file unchanged on disk, the next rescan reinstates the file's
	// artifact (the skip requires the live entry to still be file-sourced).
	os.Remove(filepath.Join(dir, "broken.json"))
	if _, err := reg.Register("alpha", "api", bytes.NewReader(releaseBytes(t, treeB))); err != nil {
		t.Fatal(err)
	}
	postJSON(t, srv.URL+"/v1/reload", nil, http.StatusOK, &out)
	reinstated, _ := reg.Get("alpha")
	if reinstated.Source == "api" {
		t.Fatal("rescan did not reinstate the watched file over the API-posted release")
	}
}

// TestWatchDirRescansFreshMtime is the regression test for the coarse-mtime
// skip bug: a release overwritten with an equal-length artifact inside the
// mtime's granularity window keeps the exact {size, mtime} it was loaded
// with, so a skip keyed on that pair alone would serve the stale artifact
// forever. A rescan must not trust an unsettled {size, mtime} match.
func TestWatchDirRescansFreshMtime(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hot.json")
	relA := releaseBytes(t, buildTree(t, 11))
	relB := releaseBytes(t, buildTree(t, 12))
	// Pad to a common length (trailing whitespace is valid JSON padding), so
	// the rewrite below is size-preserving, as in the bug scenario.
	for len(relA) < len(relB) {
		relA = append(relA, '\n')
	}
	for len(relB) < len(relA) {
		relB = append(relB, '\n')
	}
	if err := os.WriteFile(path, relA, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(64)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	q := psd.NewRect(0, 0, 50, 50)
	relHot, _ := reg.Get("hot")
	before, _ := countOf(t, relHot, q)

	// Same-tick rewrite: equal length, and the mtime pinned to the value the
	// scan recorded — exactly what a coarse-mtime filesystem produces when
	// the file is overwritten within the same second it was scanned.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, relB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := reg.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != "hot" {
		t.Fatalf("rescan after a same-size same-mtime rewrite skipped the file (loaded %v)", loaded)
	}
	relHot, _ = reg.Get("hot")
	after, _ := countOf(t, relHot, q)
	slab, err := psd.OpenSlab(bytes.NewReader(relB))
	if err != nil {
		t.Fatal(err)
	}
	if after != slab.Count(q) {
		t.Fatalf("rescan served %v, want the rewritten artifact's %v (stale %v)", after, slab.Count(q), before)
	}

	// Once the mtime window has settled, unchanged files skip again — the
	// warm-cache optimization is only suspended inside the window.
	ageFile(t, path)
	if loaded, _, err := reg.ScanDir(dir); err != nil || len(loaded) != 1 {
		t.Fatalf("settling scan = %v, %v", loaded, err)
	}
	rel2, _ := reg.Get("hot")
	if _, skipped, err := reg.ScanDir(dir); err != nil || len(skipped) != 1 {
		t.Fatalf("settled rescan did not skip: %v, %v", skipped, err)
	}
	if rel3, _ := reg.Get("hot"); rel3 != rel2 {
		t.Fatal("settled rescan re-registered an unchanged file")
	}

	// A far-future mtime (skewed writer clock) must settle too: perpetually
	// reloading would wipe the warm cache on every scan with no signal.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if loaded, _, err := reg.ScanDir(dir); err != nil || len(loaded) != 1 {
		t.Fatalf("future-mtime scan = %v, %v", loaded, err)
	}
	rel4, _ := reg.Get("hot")
	if _, skipped, err := reg.ScanDir(dir); err != nil || len(skipped) != 1 {
		t.Fatalf("future-mtime rescan did not skip: %v, %v", skipped, err)
	}
	if rel5, _ := reg.Get("hot"); rel5 != rel4 {
		t.Fatal("future-mtime rescan re-registered an unchanged file")
	}
}

// TestConcurrentQueriesAndHotReload is the acceptance race check: many
// goroutines query while others repeatedly hot-swap the same release. Every
// answer must equal one of the two valid trees' answers — never a torn mix.
func TestConcurrentQueriesAndHotReload(t *testing.T) {
	treeA := buildTree(t, 21)
	treeB := buildTree(t, 22)
	relA, relB := releaseBytes(t, treeA), releaseBytes(t, treeB)

	reg := NewRegistry(512)
	if _, err := reg.Register("hot", "test", bytes.NewReader(relA)); err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	q := psd.NewRect(12.5, 12.5, 87.5, 87.5)
	wantA, wantB := treeA.Count(q), treeB.Count(q)
	if wantA == wantB {
		t.Fatal("test needs distinguishable trees")
	}

	const readers, swaps, queries = 8, 40, 60
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	url := fmt.Sprintf("%s/v1/releases/hot/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				resp, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				var out struct {
					Count float64 `json:"count"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if out.Count != wantA && out.Count != wantB {
					errc <- fmt.Errorf("torn answer %v (want %v or %v)", out.Count, wantA, wantB)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			body := relA
			if i%2 == 0 {
				body = relB
			}
			resp, err := http.Post(srv.URL+"/v1/releases/hot", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errc <- fmt.Errorf("swap status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCountBatchIntoMatchesPerQuery pins the serving batch path: one
// node-major engine call per request, per-query cache semantics preserved,
// answers and traversal stats identical to the per-rect Count loop at every
// cache state.
func TestCountBatchIntoMatchesPerQuery(t *testing.T) {
	tree := buildTree(t, 31)
	slab := tree.Seal()
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		t.Fatal(err)
	}
	d := tree.Domain()
	qs := make([]psd.Rect, 0, 96)
	for i := 0; i < 96; i++ {
		fx := float64(i%12) / 12
		fy := float64(i/12) / 12
		qs = append(qs, psd.NewRect(
			d.Lo.X+fx*0.8*d.Width(), d.Lo.Y+fy*0.8*d.Height(),
			d.Lo.X+(fx*0.8+0.2)*d.Width(), d.Lo.Y+(fy*0.8+0.2)*d.Height(),
		))
	}
	want := make([]float64, len(qs))
	var wantSt psd.QueryStats
	for i, q := range qs {
		want[i] = slab.Count(q)
	}
	wantSt = slab.CountBatchIntoWorkers(make([]float64, len(qs)), qs, 1)

	for _, cacheSize := range []int{0, 8, 4096} {
		reg := NewRegistry(cacheSize)
		rel, err := reg.Register("b", "test", bytes.NewReader(artifact.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// Cold: every answer fresh, stats cover the whole batch.
		vals, hits, st := countBatchOf(t, rel, qs)
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("cache=%d: batch[%d] = %v, want %v", cacheSize, i, vals[i], want[i])
			}
		}
		if hits != 0 {
			t.Fatalf("cache=%d: cold batch reported %d hits", cacheSize, hits)
		}
		if st != wantSt {
			t.Fatalf("cache=%d: cold batch stats %+v, want %+v", cacheSize, st, wantSt)
		}
		// Warm: answers unchanged; with a big enough cache everything hits
		// and the engine does no traversal at all.
		for i := range vals {
			vals[i] = -1
		}
		hits, st, err = rel.CountBatchIntoCtx(context.Background(), vals, qs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("cache=%d: warm batch[%d] = %v, want %v", cacheSize, i, vals[i], want[i])
			}
		}
		if cacheSize >= len(qs) {
			if hits != len(qs) || st != (psd.QueryStats{}) {
				t.Fatalf("cache=%d: warm batch hits=%d stats=%+v, want all hits / zero stats",
					cacheSize, hits, st)
			}
		}
	}
}

// TestDegenerateRectsThroughCache pins degenerate query rectangles —
// zero-width, zero-height, points, bounds exactly on node edges — through
// the serving cache: the first (miss) answer, the cached answer, and the
// batch-path answer must all equal the raw engine's, for both a fixed-height
// and an adaptive (privtree, pruned + partially published) release.
func TestDegenerateRectsThroughCache(t *testing.T) {
	dom := psd.NewRect(0, 0, 100, 100)
	// Skew half the mass into the corner so the adaptive tree actually prunes.
	pts := testPoints(77, 3000, 2)
	qs := []psd.Rect{
		psd.NewRect(25, 10, 25, 90),     // zero width, on an h=2 node edge
		psd.NewRect(10, 50, 90, 50),     // zero height, on the root midpoint
		psd.NewRect(50, 50, 50, 50),     // point on the root corner
		psd.NewRect(33, 77, 33, 77),     // interior point
		psd.NewRect(0, 0, 0, 0),         // domain lower corner
		psd.NewRect(100, 100, 100, 100), // domain upper corner (half-open: outside)
		psd.NewRect(25, 25, 75, 75),     // all bounds on node edges
		psd.NewRect(0, 0, 100, 100),     // the domain
	}
	for _, kind := range []psd.Kind{psd.QuadtreeKind, psd.PrivTreeKind} {
		tree, err := psd.Build(pts, dom, psd.Options{Kind: kind, Height: 4, Epsilon: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		slab := tree.Seal()
		var artifact bytes.Buffer
		if err := tree.WriteBinaryV3Release(&artifact); err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry(1024)
		rel, err := reg.Register("d", "test", bytes.NewReader(artifact.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			want := slab.Count(q)
			if got, cached := countOf(t, rel, q); got != want || cached {
				t.Errorf("%v: miss Count(%v) = %v (cached=%v), want %v", kind, q, got, cached, want)
			}
			if got, cached := countOf(t, rel, q); got != want || !cached {
				t.Errorf("%v: hit Count(%v) = %v (cached=%v), want %v", kind, q, got, cached, want)
			}
		}
		// The batch path agrees, fully warm (all hits) and on a fresh
		// registry (all misses through one engine call).
		vals, hits, _ := countBatchOf(t, rel, qs)
		if hits != len(qs) {
			t.Errorf("%v: warm batch hits = %d, want %d", kind, hits, len(qs))
		}
		for i, q := range qs {
			if want := slab.Count(q); vals[i] != want {
				t.Errorf("%v: warm batch[%d] = %v, want %v", kind, i, vals[i], want)
			}
		}
		reg2 := NewRegistry(1024)
		rel2, err := reg2.Register("d2", "test", bytes.NewReader(artifact.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		vals2, hits2, _ := countBatchOf(t, rel2, qs)
		if hits2 != 0 {
			t.Errorf("%v: cold batch hits = %d, want 0", kind, hits2)
		}
		for i, q := range qs {
			if want := slab.Count(q); vals2[i] != want {
				t.Errorf("%v: cold batch[%d] = %v, want %v", kind, i, vals2[i], want)
			}
		}
	}
}

// TestCacheEvictionsSurfaced pins the eviction counter: a cache smaller
// than the query mix must report evictions through the stats snapshot and
// the /stats endpoint.
func TestCacheEvictionsSurfaced(t *testing.T) {
	tree := buildTree(t, 33)
	reg := NewRegistry(16) // 16 shards x 1 entry
	rel, err := reg.Register("tiny", "test", bytes.NewReader(releaseBytes(t, tree)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		f := float64(i)
		countOf(t, rel, psd.NewRect(f/10, f/10, f/10+1, f/10+1))
	}
	snap := rel.Stats()
	if snap.CacheEvictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", snap)
	}
	api := &API{Registry: reg}
	srv := newTestServer(t, api)
	var statsResp struct {
		Stats StatsSnapshot `json:"stats"`
	}
	getJSON(t, srv.URL+"/v1/releases/tiny/stats", http.StatusOK, &statsResp)
	if statsResp.Stats.CacheEvictions == 0 {
		t.Fatalf("/stats = %+v, want cache_evictions > 0", statsResp.Stats)
	}

	// A fresh all-hit release reports zero evictions.
	reg2 := NewRegistry(4096)
	rel2, err := reg2.Register("big", "test", bytes.NewReader(releaseBytes(t, tree)))
	if err != nil {
		t.Fatal(err)
	}
	countOf(t, rel2, psd.NewRect(0, 0, 1, 1))
	countOf(t, rel2, psd.NewRect(0, 0, 1, 1))
	if s := rel2.Stats(); s.CacheEvictions != 0 {
		t.Fatalf("big cache stats = %+v, want 0 evictions", s)
	}
}

// TestBatchEndpointStats pins the /batch response's per-batch stats field:
// it must equal the engine's aggregate over the missed rectangles.
func TestBatchEndpointStats(t *testing.T) {
	tree := buildTree(t, 35)
	slab := tree.Seal()
	reg := NewRegistry(1024)
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, &API{Registry: reg})

	qs := []psd.Rect{psd.NewRect(0, 0, 50, 50), psd.NewRect(10, 10, 90, 40)}
	wantSt := slab.CountBatchIntoWorkers(make([]float64, len(qs)), qs, 1)
	body, _ := json.Marshal(map[string][][4]float64{"rects": {
		{0, 0, 50, 50}, {10, 10, 90, 40},
	}})
	var batch struct {
		Counts    []float64      `json:"counts"`
		CacheHits int            `json:"cache_hits"`
		Stats     psd.QueryStats `json:"stats"`
	}
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusOK, &batch)
	if batch.Stats != wantSt {
		t.Fatalf("/batch stats = %+v, want %+v", batch.Stats, wantSt)
	}
	// Second, fully cached request: zero traversal.
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusOK, &batch)
	if batch.CacheHits != len(qs) || batch.Stats != (psd.QueryStats{}) {
		t.Fatalf("cached /batch = %+v, want all hits / zero stats", batch)
	}
}

// TestGracefulDrain pins the drain sequence a rolling restart relies on,
// run by the daemon lifecycle over the real API: readiness flips to 503
// while the listener still serves (the grace window for load balancers to
// route away), an in-flight batch completes across Shutdown, and new
// connections are refused once the listener closes.
func TestGracefulDrain(t *testing.T) {
	tree := buildTree(t, 31)
	reg := NewRegistry(0)
	if _, err := reg.Register("live", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	unpark := make(chan struct{})
	api := &API{Registry: reg}
	api.testHookBatch = func() {
		close(entered)
		<-unpark
	}
	// Hold the lifecycle in its grace window: readiness is down, the
	// listener still open.
	draining, hold := make(chan struct{}), make(chan struct{})
	setReady := func(ready bool) {
		api.SetReady(ready)
		if !ready {
			close(draining)
			<-hold
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- daemon.Serve(ctx, ln, daemon.Config{
			Handler:         api.Handler(),
			SetReady:        setReady,
			ShutdownTimeout: 10 * time.Second,
			Logger:          log.New(io.Discard, "", 0),
		})
	}()
	base := "http://" + ln.Addr().String()
	for !api.Ready() {
		time.Sleep(time.Millisecond)
	}

	// Park one /batch in flight.
	rect := tree.Domain()
	body, _ := json.Marshal(map[string]any{
		"rects": [][4]float64{{rect.Lo.X, rect.Lo.Y, rect.Hi.X, rect.Hi.Y}},
	})
	type batchResult struct {
		status int
		counts []float64
		err    error
	}
	inflight := make(chan batchResult, 1)
	go func() {
		resp, err := http.Post(base+"/v1/releases/live/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- batchResult{err: err}
			return
		}
		defer resp.Body.Close()
		var out struct {
			Counts []float64 `json:"counts"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		inflight <- batchResult{status: resp.StatusCode, counts: out.Counts, err: err}
	}()
	<-entered

	// Grace window: readiness is down, but the replica still serves.
	cancel()
	<-draining
	getJSON(t, base+"/readyz", http.StatusServiceUnavailable, nil)
	getJSON(t, base+"/healthz", http.StatusOK, nil)

	// Shutdown blocks on the parked request; the listener closes first.
	close(hold)
	refused := false
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			refused = true
			break
		}
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting connections after Shutdown began")
	}
	select {
	case err := <-served:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	default:
	}

	// Unpark: the in-flight batch must complete normally.
	close(unpark)
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight batch: %v", res.err)
	}
	if res.status != http.StatusOK || len(res.counts) != 1 {
		t.Fatalf("in-flight batch: status %d, counts %v", res.status, res.counts)
	}
	if want := tree.Count(rect); res.counts[0] != want {
		t.Fatalf("in-flight batch answered %v, want %v", res.counts[0], want)
	}

	// A clean drain: Shutdown succeeded and Serve ended with
	// ErrServerClosed, which the lifecycle reports as nil.
	if err := <-served; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
