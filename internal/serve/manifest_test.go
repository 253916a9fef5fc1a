package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"psd"
	"psd/internal/checksum"
	"psd/internal/serve/faultfs"
)

// fingerprintOf is the artifact fingerprint of data, as a manifest pins it.
func fingerprintOf(data []byte) string {
	return checksum.FormatFingerprint(checksum.Checksum(data, checksum.Fingerprint))
}

// manifestFor builds a manifest over already-written artifact files,
// fingerprinting each the way a publisher would.
func manifestFor(t *testing.T, version string, artifacts map[string]string) Manifest {
	t.Helper()
	m := Manifest{Version: version}
	for name, path := range artifacts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m.Releases = append(m.Releases, ManifestEntry{Name: name, Path: path, Fingerprint: fingerprintOf(data)})
	}
	return m
}

func TestManifestApplyAndOwnership(t *testing.T) {
	dir := t.TempDir()
	treeA, treeB := buildTree(t, 11), buildTree(t, 22)
	pathA := filepath.Join(dir, "a.bin")
	pathB := filepath.Join(dir, "b.bin")
	writeFile(t, pathA, releaseBytes(t, treeA))
	writeFile(t, pathB, releaseBytes(t, treeB))

	reg := NewRegistry(256)
	reg.SetLogger(log.New(io.Discard, "", 0))
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	// No manifest applied yet: GET 404s.
	getJSON(t, srv.URL+"/v1/manifest", http.StatusNotFound, nil)

	// A hand-registered release, to prove manifests leave it alone.
	postJSON(t, srv.URL+"/v1/releases/manual", releaseBytes(t, treeA), http.StatusCreated, nil)

	// Apply v1: two releases.
	m1 := manifestFor(t, "v1", map[string]string{"alpha": pathA, "beta": pathB})
	body, _ := json.Marshal(m1)
	var st ManifestStatus
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusOK, &st)
	if st.Manifest.Version != "v1" || len(st.Manifest.Releases) != 2 {
		t.Fatalf("apply status = %+v", st)
	}
	getJSON(t, srv.URL+"/v1/manifest", http.StatusOK, &st)
	if st.Manifest.Version != "v1" {
		t.Fatalf("GET manifest version = %q, want v1", st.Manifest.Version)
	}

	// Served answers match the source trees bit-for-bit.
	q := psd.NewRect(5, 5, 80, 60)
	var got struct {
		Count float64 `json:"count"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/releases/alpha/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &got)
	if want := treeA.Count(q); got.Count != want {
		t.Fatalf("alpha count %v, want %v", got.Count, want)
	}

	// Apply v2: beta gone, alpha now serves tree B's artifact. The
	// manifest owns its release set — beta is removed — but the manual
	// release survives.
	m2 := manifestFor(t, "v2", map[string]string{"alpha": pathB})
	body, _ = json.Marshal(m2)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusOK, &st)
	if st.Manifest.Version != "v2" {
		t.Fatalf("v2 apply status = %+v", st)
	}
	getJSON(t, srv.URL+"/v1/releases/beta/count?rect=0,0,1,1", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/v1/releases/manual/count?rect=0,0,1,1", http.StatusOK, nil)
	getJSON(t, fmt.Sprintf("%s/v1/releases/alpha/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &got)
	if want := treeB.Count(q); got.Count != want {
		t.Fatalf("alpha after v2: count %v, want %v (tree B)", got.Count, want)
	}
}

// TestManifestApplyIsAtomic pins the rollback contract: a manifest that
// fails on any artifact — checksum mismatch, corrupt bytes, unreadable
// path — changes nothing at all.
func TestManifestApplyIsAtomic(t *testing.T) {
	dir := t.TempDir()
	tree := buildTree(t, 33)
	goodPath := filepath.Join(dir, "good.bin")
	writeFile(t, goodPath, releaseBytes(t, tree))

	reg := NewRegistry(256)
	reg.SetLogger(log.New(io.Discard, "", 0))
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	m1 := manifestFor(t, "v1", map[string]string{"alpha": goodPath})
	body, _ := json.Marshal(m1)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusOK, nil)

	// Fingerprint mismatch: manifest lies about the bytes.
	bad := m1
	bad.Version = "v2"
	bad.Releases = append([]ManifestEntry(nil), m1.Releases...)
	bad.Releases[0].Fingerprint = fingerprintOf([]byte("not the file"))
	bad.Releases = append(bad.Releases, ManifestEntry{
		Name: "newrel", Path: goodPath, Fingerprint: fingerprintOf(releaseBytes(t, tree))})
	body, _ = json.Marshal(bad)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// Corrupt artifact whose fingerprint is honest (decode fails).
	corruptPath := filepath.Join(dir, "corrupt.bin")
	writeFile(t, corruptPath, []byte("garbage artifact"))
	m3 := manifestFor(t, "v3", map[string]string{"alpha": corruptPath})
	body, _ = json.Marshal(m3)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// Unreadable path.
	m4 := manifestFor(t, "v4", map[string]string{"alpha": goodPath})
	m4.Releases[0].Path = filepath.Join(dir, "missing.bin")
	body, _ = json.Marshal(m4)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// Transient read fault through the FS seam.
	ffs := faultfs.New()
	ffs.Set(goodPath, faultfs.Fault{ReadErr: errors.New("injected EIO")})
	reg.SetFS(ffs)
	m5 := manifestFor(t, "v5", map[string]string{"alpha": goodPath})
	body, _ = json.Marshal(m5)
	postJSON(t, srv.URL+"/v1/manifest", body, http.StatusBadRequest, nil)

	// After all four failures: still v1, still serving, answers intact.
	var st ManifestStatus
	getJSON(t, srv.URL+"/v1/manifest", http.StatusOK, &st)
	if st.Manifest.Version != "v1" {
		t.Fatalf("after failed applies: version %q, want v1", st.Manifest.Version)
	}
	q := psd.NewRect(10, 10, 90, 90)
	var got struct {
		Count float64 `json:"count"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/releases/alpha/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &got)
	if want := tree.Count(q); got.Count != want {
		t.Fatalf("alpha count after failed applies %v, want %v", got.Count, want)
	}
	getJSON(t, srv.URL+"/v1/releases/newrel/count?rect=0,0,1,1", http.StatusNotFound, nil)
}

func TestManifestValidate(t *testing.T) {
	good := ManifestEntry{Name: "a", Path: "/x/a.bin", Fingerprint: fingerprintOf([]byte("x"))}
	cases := []struct {
		name string
		m    Manifest
		want string // substring of the error
	}{
		{"no version", Manifest{Releases: []ManifestEntry{good}}, "no version"},
		{"no releases", Manifest{Version: "v1"}, "names no releases"},
		{"duplicate name", Manifest{Version: "v1", Releases: []ManifestEntry{good, good}}, "twice"},
		{"no path", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Fingerprint: good.Fingerprint}}}, "no path"},
		{"bad fingerprint", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x", Fingerprint: "zz"}}}, "16 hex digits"},
		{"15 digits", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x", Fingerprint: "0123456789abcde"}}}, "16 hex digits"},
		{"17 digits", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x", Fingerprint: "0123456789abcdef0"}}}, "16 hex digits"},
		{"no fingerprint", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x"}}}, "16 hex digits"},
		{"legacy crc64 only", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x", LegacyCRC64: "0123456789abcdef"}}}, `"fingerprint"`},
		{"bad name", Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "../evil", Path: "/x", Fingerprint: good.Fingerprint}}}, "invalid release name"},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.m)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	for _, fp := range []string{good.Fingerprint, strings.ToUpper(good.Fingerprint)} {
		ok := Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "a", Path: "/x", Fingerprint: fp}}}
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid manifest (fingerprint %s) rejected: %v", fp, err)
		}
	}
}

// v3Bytes is tree's release in format v3, the encoding the mmap path maps.
func v3Bytes(t testing.TB, tree *psd.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteBinaryV3Release(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestManifestRefusesRewrittenRelease pins what a pin is for: a pinned
// path overwritten with another *valid* v3 release is refused, and the
// replica keeps its manifest version, its release and its answers. It runs
// on both load paths — mmap + Verify under the real filesystem, the
// reader under faultfs — and checks that an uppercase pin of the new
// bytes then applies on each.
func TestManifestRefusesRewrittenRelease(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FS
	}{{"mmap", nil}, {"reader", faultfs.New()}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "r.bin")
			tree1, tree2 := buildTree(t, 1), buildTree(t, 2)
			v1, v2 := v3Bytes(t, tree1), v3Bytes(t, tree2)
			if fingerprintOf(v1) == fingerprintOf(v2) {
				t.Fatal("two distinct v3 releases share a fingerprint")
			}
			writeFile(t, path, v1)
			reg := NewRegistry(64)
			if tc.fs != nil {
				reg.SetFS(tc.fs)
			}
			m1 := manifestFor(t, "m1", map[string]string{"r": path})
			if err := reg.ApplyManifest(m1); err != nil {
				t.Fatal(err)
			}
			before, _ := reg.Get("r")

			// Replaced the way publishers replace artifacts (write aside,
			// rename over): rewriting a mapped file in place would change
			// the live release's pages under it.
			writeFile(t, path+".tmp", v2)
			if err := os.Rename(path+".tmp", path); err != nil {
				t.Fatal(err)
			}
			m2 := m1
			m2.Version = "m2"
			err := reg.ApplyManifest(m2)
			if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
				t.Fatalf("rewritten artifact under the old pin: err = %v, want a fingerprint mismatch", err)
			}
			st, _ := reg.CurrentManifest()
			after, _ := reg.Get("r")
			if st.Manifest.Version != "m1" || after != before {
				t.Fatalf("refused apply changed the replica: version %q, release replaced %v",
					st.Manifest.Version, after != before)
			}
			q := psd.NewRect(5, 5, 80, 60)
			if got, want := after.Slab.Count(q), tree1.Count(q); got != want {
				t.Fatalf("after refusal: count %v, want %v", got, want)
			}

			m2.Releases = []ManifestEntry{{Name: "r", Path: path, Fingerprint: strings.ToUpper(fingerprintOf(v2))}}
			if err := reg.ApplyManifest(m2); err != nil {
				t.Fatalf("uppercase pin of the new bytes: %v", err)
			}
			rel, _ := reg.Get("r")
			if got, want := rel.Slab.Count(q), tree2.Count(q); got != want {
				t.Fatalf("after re-pin: count %v, want %v", got, want)
			}
			if rel.Bytes != int64(len(v2)) {
				t.Fatalf("Bytes = %d, want %d", rel.Bytes, len(v2))
			}
		})
	}
}

// TestManifestLegacyCRC64Refused pins that a manifest written for the old
// whole-file CRC-64/ECMA pin gets a 400 naming the new field, and changes
// nothing on the replica.
func TestManifestLegacyCRC64Refused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	writeFile(t, path, v3Bytes(t, buildTree(t, 7)))
	reg := NewRegistry(64)
	srv := newTestServer(t, &API{Registry: reg})
	body := fmt.Sprintf(`{"version":"v1","releases":[{"name":"a","path":%q,"crc64":"38564cc5b9bd1aa1"}]}`, path)
	resp, err := http.Post(srv.URL+"/v1/manifest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "fingerprint") {
		t.Fatalf("legacy manifest: status %d, body %s; want 400 naming the fingerprint field", resp.StatusCode, msg)
	}
	if _, ok := reg.CurrentManifest(); ok || reg.Len() != 0 {
		t.Fatal("a refused legacy manifest changed the registry")
	}
}

// TestManifestInstallIsMapped pins the heap cost of a manifest install: a
// v3 release of several MiB applied through a manifest is mmap'd, so the
// heap grows by a small fraction of the artifact (the Release, its idle
// cache and the slab's shape), not by a decoded copy of it.
func TestManifestInstallIsMapped(t *testing.T) {
	dom := psd.NewRect(0, 0, 100, 100)
	tree, err := psd.Build(testPoints(3, 5000, 0), dom, psd.Options{
		Kind: psd.QuadtreeKind, Height: 8, Epsilon: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.bin")
	data := v3Bytes(t, tree)
	writeFile(t, path, data)
	if s, _, _, err := psd.MapSlabFile(path); s == nil {
		t.Skipf("no zero-copy open on this platform (%v)", err)
	} else {
		s.Close()
	}
	m := Manifest{Version: "v1", Releases: []ManifestEntry{{Name: "big", Path: path, Fingerprint: fingerprintOf(data)}}}
	size := int64(len(data))
	tree, data = nil, nil
	reg := NewRegistry(1 << 16)
	var inuse [2]uint64
	var ms runtime.MemStats
	for i, apply := range []bool{false, true} {
		if apply {
			if err := reg.ApplyManifest(m); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		inuse[i] = ms.HeapInuse
	}
	growth := int64(inuse[1]) - int64(inuse[0])
	t.Logf("artifact %d B; HeapInuse %d -> %d (%+d B)", size, inuse[0], inuse[1], growth)
	if growth > size/16 {
		t.Errorf("manifest install grew the heap by %d B for a %d B artifact; want < 1/16 (mmap'd)", growth, size)
	}
	runtime.KeepAlive(reg)
}

// TestTransientBackoffJitterDecorrelates pins the full-jitter satellite:
// two registries with the same retryBase must not produce identical
// retry schedules — that lockstep is exactly what re-thunders a shared
// filer after a blip.
func TestTransientBackoffJitterDecorrelates(t *testing.T) {
	// The draw itself: bounded by the ceiling, not constant.
	const samples = 8
	drawsA := make([]time.Duration, samples)
	drawsB := make([]time.Duration, samples)
	for i := 0; i < samples; i++ {
		drawsA[i] = fullJitter(time.Hour)
		drawsB[i] = fullJitter(time.Hour)
		for _, d := range []time.Duration{drawsA[i], drawsB[i]} {
			if d < 0 || d > time.Hour {
				t.Fatalf("fullJitter(1h) = %v, outside [0, 1h]", d)
			}
		}
	}
	same := true
	for i := range drawsA {
		if drawsA[i] != drawsB[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("two independent jitter sequences identical: %v", drawsA)
	}
	if fullJitter(0) != 0 {
		t.Fatal("fullJitter(0) != 0")
	}

	// End to end: two replicas watching the same flaky artifact with the
	// same retryBase record different drawn delays.
	dir := t.TempDir()
	path := filepath.Join(dir, "flaky.bin")
	writeFile(t, path, releaseBytes(t, buildTree(t, 55)))
	errIO := errors.New("injected EIO")

	delays := make(map[*Registry]time.Duration)
	mkReg := func() *Registry {
		ffs := faultfs.New()
		ffs.Set(path, faultfs.Fault{ReadErr: errIO})
		var logBuf bytes.Buffer
		reg := quietRegistry(64, ffs, &logBuf)
		reg.retryBase = time.Hour
		reg.jitter = func(d time.Duration) time.Duration {
			v := fullJitter(d) // the real draw, recorded
			delays[reg] = v
			return v
		}
		return reg
	}
	reg1, reg2 := mkReg(), mkReg()
	reg1.ScanDir(dir)
	reg2.ScanDir(dir)
	d1, ok1 := delays[reg1]
	d2, ok2 := delays[reg2]
	if !ok1 || !ok2 {
		t.Fatalf("jitter draw not recorded: %v %v", ok1, ok2)
	}
	if d1 > time.Hour || d2 > time.Hour {
		t.Fatalf("drawn delays %v, %v exceed the retryBase ceiling", d1, d2)
	}
	if d1 == d2 {
		t.Fatalf("two same-retryBase registries drew the identical delay %v", d1)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition: content type,
// server gauges, and per-release counters consistent with /stats.
func TestMetricsEndpoint(t *testing.T) {
	tree := buildTree(t, 66)
	reg := NewRegistry(256)
	reg.SetLogger(log.New(io.Discard, "", 0))
	api := &API{Registry: reg}
	api.SetReady(true)
	srv := newTestServer(t, api)

	postJSON(t, srv.URL+"/v1/releases/roads", releaseBytes(t, tree), http.StatusCreated, nil)
	// Two identical queries: 2 requests, 1 cache hit.
	for i := 0; i < 2; i++ {
		getJSON(t, srv.URL+"/v1/releases/roads/count?rect=0,0,50,50", http.StatusOK, nil)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE psdserve_ready gauge",
		"psdserve_ready 1",
		"psdserve_releases 1",
		"# TYPE psdserve_release_requests_total counter",
		`psdserve_release_requests_total{release="roads"} 2`,
		`psdserve_release_cache_hits_total{release="roads"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Exposition sanity: every non-comment line is name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}
