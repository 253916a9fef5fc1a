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
	"strings"
	"testing"
	"time"

	"psd"
	"psd/internal/serve/faultfs"
)

// The fault-injection suite: every failure mode the robustness layer claims
// to absorb, exercised deterministically through the faultfs seam —
// corrupt releases, truncated writes, transient I/O errors, handler panics,
// overload, and expired deadlines. Throughout, the server must stay up,
// keep serving what it already had, and surface each fault through the
// /stats counters and the quarantine list.

// writeFile writes an artifact into the watch dir and settles its mtime so
// rescans may trust {size, mtime}.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ageFile(t, path)
}

// quietRegistry returns a registry with immediate transient retries and a
// captured log, wired to the given fault filesystem.
func quietRegistry(cacheSize int, ffs *faultfs.FS, logBuf *bytes.Buffer) *Registry {
	reg := NewRegistry(cacheSize)
	reg.retryBase = 0
	reg.SetFS(ffs)
	reg.SetLogger(log.New(logBuf, "", 0))
	return reg
}

func serverStatsOf(t *testing.T, url string) ServerStats {
	t.Helper()
	var st ServerStats
	getJSON(t, url+"/stats", http.StatusOK, &st)
	return st
}

// TestQuarantineCorruptRelease pins the permanent-failure path: a corrupt
// artifact in the watch dir fails its one decode attempt, lands in
// quarantine, and is never re-read on later rescans until the file changes
// — at which point it gets exactly one fresh attempt. The good artifact
// next to it keeps serving the whole time.
func TestQuarantineCorruptRelease(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	writeFile(t, good, releaseBytes(t, buildTree(t, 41)))
	writeFile(t, bad, []byte("this is not a release"))

	ffs := faultfs.New()
	var logBuf bytes.Buffer
	reg := quietRegistry(64, ffs, &logBuf)
	api := &API{Registry: reg, WatchDir: dir}
	srv := newTestServer(t, api)

	if _, _, err := reg.ScanDir(dir); err == nil {
		t.Fatal("scan with a corrupt artifact reported success")
	}
	if _, ok := reg.Get("good"); !ok {
		t.Fatal("corrupt artifact blocked the good one")
	}
	q := reg.Quarantined()
	if len(q) != 1 || q[0].Name != "bad" || q[0].Kind != quarantineCorrupt || q[0].Attempts != 1 {
		t.Fatalf("quarantine = %+v", q)
	}
	if got := strings.Count(logBuf.String(), "quarantined"); got != 1 {
		t.Fatalf("first failure logged %d quarantine lines:\n%s", got, logBuf.String())
	}

	// Rescans skip the unchanged corrupt file: no decode attempts, no new
	// errors, no new log lines.
	for i := 0; i < 5; i++ {
		if _, _, err := reg.ScanDir(dir); err != nil {
			t.Fatalf("rescan %d re-reported the quarantined file: %v", i, err)
		}
	}
	if n := ffs.OpenCount(bad); n != 1 {
		t.Fatalf("quarantined file was opened %d times, want exactly 1 per change", n)
	}
	if got := strings.Count(logBuf.String(), "quarantined"); got != 1 {
		t.Fatalf("rescans added log lines (%d total):\n%s", got, logBuf.String())
	}

	// The quarantine is visible to operators: /v1/releases and /stats.
	var list struct {
		Releases    []releaseInfo    `json:"releases"`
		Quarantined []QuarantineInfo `json:"quarantined"`
	}
	getJSON(t, srv.URL+"/v1/releases", http.StatusOK, &list)
	if len(list.Quarantined) != 1 || list.Quarantined[0].Name != "bad" {
		t.Fatalf("/v1/releases quarantine = %+v", list.Quarantined)
	}
	if st := serverStatsOf(t, srv.URL); st.Quarantined != 1 || st.Releases != 1 {
		t.Fatalf("/stats = %+v, want 1 quarantined / 1 release", st)
	}

	// Fixing the file earns a fresh attempt, which succeeds and clears it.
	writeFile(t, bad, releaseBytes(t, buildTree(t, 42)))
	loaded, _, err := reg.ScanDir(dir)
	if err != nil {
		t.Fatalf("scan after fix: %v", err)
	}
	if len(loaded) != 1 || loaded[0] != "bad" {
		t.Fatalf("scan after fix loaded %v", loaded)
	}
	if n := reg.QuarantineLen(); n != 0 {
		t.Fatalf("quarantine not cleared after fix: %d", n)
	}
}

// TestTruncatedWriteQuarantinedAsCorrupt pins the partial-write failure
// mode: a binary artifact cut off mid-file reads cleanly up to EOF and then
// fails to decode — permanent corruption (re-reading identical bytes cannot
// help), one decode attempt per file change, no retries.
func TestTruncatedWriteQuarantinedAsCorrupt(t *testing.T) {
	dir := t.TempDir()
	tree := buildTree(t, 43)
	var bin bytes.Buffer
	if err := tree.WriteBinaryV3Release(&bin); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cut.bin")
	writeFile(t, path, bin.Bytes())

	ffs := faultfs.New()
	// Serve only the first 100 bytes with a clean EOF: what a reader sees
	// after an interrupted non-atomic write.
	ffs.Set(path, faultfs.Fault{TruncateAt: 100})
	var logBuf bytes.Buffer
	reg := quietRegistry(64, ffs, &logBuf)

	if _, _, err := reg.ScanDir(dir); err == nil {
		t.Fatal("truncated artifact loaded")
	}
	q := reg.Quarantined()
	if len(q) != 1 || q[0].Kind != quarantineCorrupt {
		t.Fatalf("quarantine = %+v, want one corrupt entry", q)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := reg.ScanDir(dir); err != nil {
			t.Fatalf("rescan %d re-attempted the truncated file: %v", i, err)
		}
	}
	if n := ffs.OpenCount(path); n != 1 {
		t.Fatalf("truncated file was opened %d times, want 1", n)
	}

	// Healing the seam and touching the file gets it served.
	ffs.Clear(path)
	now := time.Now().Add(-30 * time.Second)
	if err := os.Chtimes(path, now, now); err != nil {
		t.Fatal(err)
	}
	if loaded, _, err := reg.ScanDir(dir); err != nil || len(loaded) != 1 {
		t.Fatalf("scan after heal = %v, %v", loaded, err)
	}
}

// TestTransientIORetryAndBackoff pins the transient-failure path: a read
// that dies with a genuine I/O error is retried (the bytes were never
// judged), with backoff, at most maxLoadAttempts times — and a mid-stream
// error after some clean bytes still counts as transient.
func TestTransientIORetryAndBackoff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flaky.json")
	writeFile(t, path, releaseBytes(t, buildTree(t, 44)))
	errIO := errors.New("injected EIO")

	// One-shot failure: the first scan fails transiently, the immediate
	// retry (retryBase 0) succeeds.
	ffs := faultfs.New()
	ffs.Set(path, faultfs.Fault{ReadErr: errIO, ReadErrAfter: 64, Times: 1})
	var logBuf bytes.Buffer
	reg := quietRegistry(64, ffs, &logBuf)
	if _, _, err := reg.ScanDir(dir); err == nil {
		t.Fatal("faulted scan reported success")
	}
	q := reg.Quarantined()
	if len(q) != 1 || q[0].Kind != quarantineIO || q[0].Attempts != 1 {
		t.Fatalf("quarantine = %+v, want one io entry with 1 attempt", q)
	}
	loaded, _, err := reg.ScanDir(dir)
	if err != nil || len(loaded) != 1 {
		t.Fatalf("retry scan = %v, %v", loaded, err)
	}
	if reg.QuarantineLen() != 0 {
		t.Fatal("successful retry did not clear the quarantine")
	}
	if n := ffs.OpenCount(path); n != 2 {
		t.Fatalf("open count %d, want 2 (one failure, one retry)", n)
	}

	// Unhealing failure: attempts are bounded. After maxLoadAttempts the
	// scanner goes quiet until the file changes.
	ffs2 := faultfs.New()
	ffs2.Set(path, faultfs.Fault{ReadErr: errIO})
	reg2 := quietRegistry(64, ffs2, &logBuf)
	for i := 0; i < maxLoadAttempts+3; i++ {
		reg2.ScanDir(dir)
	}
	if n := ffs2.OpenCount(path); n != maxLoadAttempts {
		t.Fatalf("unhealing file was opened %d times, want %d", n, maxLoadAttempts)
	}
	if q := reg2.Quarantined(); len(q) != 1 || q[0].Attempts != maxLoadAttempts {
		t.Fatalf("quarantine after exhaustion = %+v", q)
	}

	// Backoff gating: with a long retryBase, the failed attempt is not
	// retried on an immediate rescan at all.
	ffs3 := faultfs.New()
	ffs3.Set(path, faultfs.Fault{ReadErr: errIO})
	reg3 := quietRegistry(64, ffs3, &logBuf)
	reg3.retryBase = time.Hour
	// Pin the jitter to its ceiling: this test is about the gate holding
	// for the full backoff window, not about the draw.
	reg3.jitter = func(d time.Duration) time.Duration { return d }
	reg3.ScanDir(dir)
	for i := 0; i < 3; i++ {
		if _, _, err := reg3.ScanDir(dir); err != nil {
			t.Fatalf("backoff rescan %d attempted a load: %v", i, err)
		}
	}
	if n := ffs3.OpenCount(path); n != 1 {
		t.Fatalf("backoff rescans opened the file %d times, want 1", n)
	}

	// A stat failure is transient too: it heals, the artifact loads.
	ffs4 := faultfs.New()
	ffs4.Set(path, faultfs.Fault{StatErr: errIO, Times: 1})
	reg4 := quietRegistry(64, ffs4, &logBuf)
	if _, _, err := reg4.ScanDir(dir); err == nil {
		t.Fatal("stat-faulted scan reported success")
	}
	if loaded, _, err := reg4.ScanDir(dir); err != nil || len(loaded) != 1 {
		t.Fatalf("scan after stat heal = %v, %v", loaded, err)
	}
}

// TestBadReloadKeepsServingOldRelease pins crash-safety across a bad
// republish: when a served file is overwritten with garbage (a crashed
// writer's torn output), the rescan quarantines the new bytes but the old
// release keeps serving untouched — a malformed artifact never displaces a
// live one.
func TestBadReloadKeepsServingOldRelease(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.json")
	tree := buildTree(t, 45)
	writeFile(t, path, releaseBytes(t, tree))

	ffs := faultfs.New()
	var logBuf bytes.Buffer
	reg := quietRegistry(64, ffs, &logBuf)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	rel, _ := reg.Get("live")
	q := psd.NewRect(10, 10, 60, 60)
	want, _ := countOf(t, rel, q)

	// Torn overwrite: half a JSON artifact.
	writeFile(t, path, releaseBytes(t, tree)[:40])
	if _, _, err := reg.ScanDir(dir); err == nil {
		t.Fatal("torn artifact loaded")
	}
	rel2, ok := reg.Get("live")
	if !ok {
		t.Fatal("torn overwrite removed the live release")
	}
	if rel2 != rel {
		t.Fatal("torn overwrite displaced the live release")
	}
	if got, _ := countOf(t, rel2, q); got != want {
		t.Fatalf("after torn overwrite Count = %v, want %v", got, want)
	}
	if qr := reg.Quarantined(); len(qr) != 1 || qr[0].Kind != quarantineCorrupt {
		t.Fatalf("quarantine = %+v", qr)
	}

	// Leftover temp files from a crashed atomic writer are invisible to the
	// scanner (glob only sees *.json / *.bin).
	if err := os.WriteFile(filepath.Join(dir, ".live.json.tmp123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, releaseBytes(t, tree))
	if loaded, _, err := reg.ScanDir(dir); err != nil || len(loaded) != 1 {
		t.Fatalf("scan with leftover tmp = %v, %v", loaded, err)
	}
}

// TestSlowIODoesNotBlockServing pins the isolation between scanning and
// serving: a rescan stalled in slow I/O must not stop the server from
// answering queries against already-loaded releases.
func TestSlowIODoesNotBlockServing(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.json")
	slow := filepath.Join(dir, "slow.json")
	writeFile(t, live, releaseBytes(t, buildTree(t, 46)))

	ffs := faultfs.New()
	var logBuf bytes.Buffer
	reg := quietRegistry(64, ffs, &logBuf)
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	writeFile(t, slow, releaseBytes(t, buildTree(t, 47)))
	ffs.Set(slow, faultfs.Fault{Delay: 150 * time.Millisecond})

	api := &API{Registry: reg, WatchDir: dir}
	srv := newTestServer(t, api)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		reg.ScanDir(dir)
	}()
	// While the scan crawls, queries answer promptly.
	deadline := time.Now().Add(100 * time.Millisecond)
	served := 0
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/v1/releases/live/count?rect=0,0,50,50", http.StatusOK, nil)
		served++
	}
	<-scanDone
	if served == 0 {
		t.Fatal("no queries served during the slow scan")
	}
	if _, ok := reg.Get("slow"); !ok {
		t.Fatal("slow artifact did not load")
	}
}

// TestHandlerPanicRecovered pins the panic middleware: a panicking handler
// answers 500, the stack is logged, the counter moves — and the very same
// server keeps answering.
func TestHandlerPanicRecovered(t *testing.T) {
	tree := buildTree(t, 48)
	reg := NewRegistry(64)
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	api := &API{Registry: reg, Logger: log.New(&logBuf, "", 0)}
	boom := true
	api.testHookBatch = func() {
		if boom {
			boom = false
			panic("injected handler panic")
		}
	}
	srv := newTestServer(t, api)

	body, _ := json.Marshal(map[string][][4]float64{"rects": {{0, 0, 10, 10}}})
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusInternalServerError, nil)
	if !strings.Contains(logBuf.String(), "injected handler panic") {
		t.Fatalf("panic not logged:\n%s", logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "fault_test") && !strings.Contains(logBuf.String(), "goroutine") {
		t.Fatalf("no stack in panic log:\n%s", logBuf.String())
	}

	// The server is still alive and correct.
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusOK, nil)
	if st := serverStatsOf(t, srv.URL); st.Panics != 1 {
		t.Fatalf("/stats panics = %d, want 1", st.Panics)
	}
}

// TestLoadShedding pins the backpressure path: past MaxInFlight, requests
// are refused immediately with 503 + Retry-After, the shed counter moves,
// and the in-flight request completes untouched.
func TestLoadShedding(t *testing.T) {
	tree := buildTree(t, 49)
	reg := NewRegistry(64)
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: reg, MaxInFlight: 1, RetryAfter: 2 * time.Second}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	api.testHookBatch = func() {
		select {
		case entered <- struct{}{}:
			<-release // first request parks here, holding its in-flight slot
		default:
		}
	}
	srv := newTestServer(t, api)

	body, _ := json.Marshal(map[string][][4]float64{"rects": {{0, 0, 10, 10}}})
	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/releases/r/batch", "application/json", bytes.NewReader(body))
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("held request finished with %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		firstDone <- err
	}()
	<-entered // the slot is provably occupied

	resp, err := http.Post(srv.URL+"/v1/releases/r/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request got %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Probes bypass the gate even at capacity.
	getJSON(t, srv.URL+"/healthz", http.StatusOK, nil)
	st := serverStatsOf(t, srv.URL)
	if st.Sheds != 1 || st.InFlight != 1 {
		t.Fatalf("/stats = %+v, want 1 shed / 1 in flight", st)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	// Capacity is back.
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusOK, nil)
}

// TestRequestDeadline pins the per-request deadline: a request that
// outlives RequestTimeout abandons its traversal and answers 503 +
// Retry-After, and the timeout counter moves. The request is provably late
// (the hook sleeps past the deadline), so the outcome is deterministic.
func TestRequestDeadline(t *testing.T) {
	tree := buildTree(t, 50)
	reg := NewRegistry(0) // caching off: the miss path must consult the deadline
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: reg, RequestTimeout: 5 * time.Millisecond}
	api.testHookBatch = func() { time.Sleep(30 * time.Millisecond) }
	srv := newTestServer(t, api)

	body, _ := json.Marshal(map[string][][4]float64{"rects": {{0, 0, 10, 10}}})
	resp, err := http.Post(srv.URL+"/v1/releases/r/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("late request got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("late request has no Retry-After")
	}
	if st := serverStatsOf(t, srv.URL); st.Timeouts != 1 {
		t.Fatalf("/stats timeouts = %d, want 1", st.Timeouts)
	}

	// Within the deadline, the same endpoint answers fine.
	api.testHookBatch = nil
	postJSON(t, srv.URL+"/v1/releases/r/batch", body, http.StatusOK, nil)
}

// TestReadyzLifecycle pins the health/readiness split: /healthz is
// liveness-only (200 from birth), /readyz is 503 until the server is marked
// ready and 503 again when a drain begins — while /v1 keeps answering
// through it all (draining replicas finish their in-flight work; only the
// balancer's routing changes).
func TestReadyzLifecycle(t *testing.T) {
	tree := buildTree(t, 51)
	reg := NewRegistry(64)
	if _, err := reg.Register("r", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: reg}
	srv := newTestServer(t, api)

	getJSON(t, srv.URL+"/healthz", http.StatusOK, nil)
	getJSON(t, srv.URL+"/readyz", http.StatusServiceUnavailable, nil)
	getJSON(t, srv.URL+"/v1/releases/r/count?rect=0,0,10,10", http.StatusOK, nil)

	api.SetReady(true)
	getJSON(t, srv.URL+"/readyz", http.StatusOK, nil)

	api.SetReady(false) // drain begins
	getJSON(t, srv.URL+"/readyz", http.StatusServiceUnavailable, nil)
	getJSON(t, srv.URL+"/healthz", http.StatusOK, nil)
	getJSON(t, srv.URL+"/v1/releases/r/count?rect=0,0,10,10", http.StatusOK, nil)
}
