package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"psd"
	"psd/internal/ingest"
)

// testDirs returns fresh state and publish directories.
func testDirs(t *testing.T) (state, publish string) {
	t.Helper()
	root := t.TempDir()
	return filepath.Join(root, "state"), filepath.Join(root, "publish")
}

func testConfig(t *testing.T, state, publish string, budget float64) ingest.Config {
	t.Helper()
	return ingest.Config{
		Name:         "taxi",
		StateDir:     state,
		PublishDir:   publish,
		Domain:       psd.NewRect(0, 0, 100, 100),
		Build:        psd.Options{Kind: psd.QuadtreeKind, Height: 4, Seed: 42},
		Budget:       budget,
		EpochEpsilon: 1,
		Logger:       log.New(io.Discard, "", 0),
	}
}

func openServer(t *testing.T, cfg ingest.Config) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	in, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	srv := httptest.NewServer(newServer(in, cfg.Logger).handler())
	t.Cleanup(srv.Close)
	return in, srv
}

func postBody(t *testing.T, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func daemonStats(t *testing.T, url string) ingest.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ingest.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func ingestBody(n int, salt float64) []byte {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{float64(i%97) + salt, float64(i%89) + salt}
	}
	b, _ := json.Marshal(map[string]any{"points": pts})
	return b
}

func TestDaemonHTTPSurface(t *testing.T) {
	state, publish := testDirs(t)
	_, srv := openServer(t, testConfig(t, state, publish, 10))

	// Nothing published yet: a manual publish with zero points refuses.
	postBody(t, srv.URL+"/publish", nil, http.StatusConflict, nil)

	var ack struct {
		Added int    `json:"added"`
		Total uint64 `json:"total"`
	}
	postBody(t, srv.URL+"/ingest", ingestBody(100, 0), http.StatusOK, &ack)
	if ack.Added != 100 || ack.Total != 100 {
		t.Fatalf("ingest ack = %+v", ack)
	}

	// Malformed and non-finite batches are rejected whole, acknowledging
	// nothing.
	postBody(t, srv.URL+"/ingest", []byte("{bad"), http.StatusBadRequest, nil)
	postBody(t, srv.URL+"/ingest", []byte(`{"points":[]}`), http.StatusBadRequest, nil)
	nan, _ := json.Marshal(map[string]any{"points": []any{[]any{1.0, "NaN"}}})
	postBody(t, srv.URL+"/ingest", nan, http.StatusBadRequest, nil)
	// A point is exactly two numbers: an empty, short, long or null point
	// rejects the whole batch, never zero-filled or truncated into (0,0).
	for _, body := range []string{
		`{"points":[[]]}`,
		`{"points":[[5]]}`,
		`{"points":[[1,1],[1,2,3]]}`,
		`{"points":[[1,1],null]}`,
	} {
		postBody(t, srv.URL+"/ingest", []byte(body), http.StatusBadRequest, nil)
	}
	if st := daemonStats(t, srv.URL); st.Points != 100 {
		t.Fatalf("rejected batches moved /stats points to %d, want 100", st.Points)
	}

	var pub struct {
		Version int    `json:"version"`
		Points  uint64 `json:"points"`
		CRC64   string `json:"crc64"`
		Path    string `json:"path"`
	}
	postBody(t, srv.URL+"/publish", nil, http.StatusOK, &pub)
	if pub.Version != 1 || pub.Points != 100 || len(pub.CRC64) != 16 {
		t.Fatalf("publish = %+v", pub)
	}
	if _, err := os.Stat(pub.Path); err != nil {
		t.Fatalf("published artifact missing: %v", err)
	}
	// No new points since v1: refuse rather than burn ε on a no-op.
	postBody(t, srv.URL+"/publish", nil, http.StatusConflict, nil)

	st := daemonStats(t, srv.URL)
	if st.Points != 100 || st.LatestVersion != 1 || st.Spent != 1 || st.IngestErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"psdingest_points_total 100",
		"psdingest_latest_version 1",
		"psdingest_budget_spent_epsilon 1",
		"psdingest_budget_exhausted 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestDaemonBudgetExhaustion(t *testing.T) {
	state, publish := testDirs(t)
	_, srv := openServer(t, testConfig(t, state, publish, 1.5))

	postBody(t, srv.URL+"/ingest", ingestBody(50, 0), http.StatusOK, nil)
	postBody(t, srv.URL+"/publish", nil, http.StatusOK, nil)
	postBody(t, srv.URL+"/ingest", ingestBody(50, 0.5), http.StatusOK, nil)
	// The second epoch would need ε=1 with only 0.5 left: a durable refusal.
	postBody(t, srv.URL+"/publish", nil, http.StatusForbidden, nil)
	// Ingest continues: exhaustion degrades publishing, not ingestion.
	postBody(t, srv.URL+"/ingest", ingestBody(10, 0.25), http.StatusOK, nil)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"psdingest_budget_exhausted 1", "psdingest_refused_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestPublishLoopStopsOnCancel pins the shutdown side of the publisher:
// once its context ends, a nudge still queued must not start a publish
// cycle — the daemon closes the ingester as soon as the loop returns.
func TestPublishLoopStopsOnCancel(t *testing.T) {
	state, publish := testDirs(t)
	cfg := testConfig(t, state, publish, 10)
	cfg.RebuildCount = 1
	in, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if _, err := in.Ingest(walPoints(10)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(in, cfg.Logger)
	srv.publishCh <- ingest.TriggerCount
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.publishLoop(ctx, time.Millisecond)
	if st := in.Stats(); st.Published != 0 {
		t.Fatalf("publish loop published %d version(s) after its context ended", st.Published)
	}
}

// TestVerifySubcommand runs the audit against a real publish history, then
// corrupts an artifact and expects the bit-compare to fail loudly. The
// history is published with -keep 1 and audited without -keep, as the
// usage documents: the pruned v1 passes.
func TestVerifySubcommand(t *testing.T) {
	state, publish := testDirs(t)
	cfg := testConfig(t, state, publish, 10)
	cfg.Keep = 1
	in, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(walPoints(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Publish(ingest.TriggerManual); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(walPoints(60)); err != nil {
		t.Fatal(err)
	}
	res, err := in.Publish(ingest.TriggerManual)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	args := []string{
		"-name", "taxi", "-state", state, "-publish", publish,
		"-domain", "0,0,100,100", "-kind", "quadtree", "-height", "4",
		"-seed", "42", "-budget", "10", "-epoch-eps", "1",
	}
	logger := log.New(io.Discard, "", 0)
	var out bytes.Buffer
	if err := runVerify(args, logger, &out); err != nil {
		t.Fatalf("verify on a clean history: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 versions, all byte-identical") ||
		!strings.Contains(out.String(), "artifact=(pruned)") {
		t.Fatalf("verify output:\n%s", out.String())
	}

	// Flip one byte of the latest artifact: the journal and rebuild still
	// agree, but the on-disk artifact must fail the compare.
	data, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(res.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runVerify(args, logger, &out)
	if err == nil || !strings.Contains(err.Error(), "failed the bit-compare") {
		t.Fatalf("verify on a corrupted artifact returned %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "MISMATCH") {
		t.Fatalf("verify output:\n%s", out.String())
	}

	// A mismatched build configuration (different height) is also caught:
	// the rebuild no longer matches the journal.
	badArgs := append([]string(nil), args...)
	for i, a := range badArgs {
		if a == "-height" {
			badArgs[i+1] = "5"
		}
	}
	out.Reset()
	if err := runVerify(badArgs, logger, &out); err == nil {
		t.Fatalf("verify with the wrong build config passed:\n%s", out.String())
	}
}

func walPoints(n int) []psd.Point {
	pts := make([]psd.Point, n)
	for i := range pts {
		pts[i] = psd.Point{X: float64(i%97) + 0.5, Y: float64(i%89) + 0.25}
	}
	return pts
}

// TestParseDomain pins -domain parsing through buildFlags.config: inverted
// bounds are swapped, and malformed or non-finite input is an error, never
// a panic.
func TestParseDomain(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	domain := func(spec string) (psd.Rect, error) {
		cfg, err := (&buildFlags{kind: "quadtree", domain: spec}).config(logger)
		return cfg.Domain, err
	}
	for _, bad := range []string{"0,0,100", "a,b,c,d", "NaN,0,1,1", "0,0,Inf,10"} {
		if _, err := domain(bad); err == nil {
			t.Errorf("-domain %q accepted", bad)
		}
	}
	for spec, want := range map[string]psd.Rect{
		"1, 2, 3, 4": psd.NewRect(1, 2, 3, 4),
		"10,0,0,10":  psd.NewRect(0, 0, 10, 10),
	} {
		if dom, err := domain(spec); err != nil || dom != want {
			t.Errorf("-domain %q = %v, %v; want %v", spec, dom, err, want)
		}
	}
	if _, err := (&buildFlags{kind: "nope", domain: "0,0,1,1"}).config(logger); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
