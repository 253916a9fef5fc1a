package daemon

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunBindFailure pins bind-before-ready: a daemon that cannot listen
// returns a "bind" error without ever reporting ready or starting workers.
func TestRunBindFailure(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	var readyCalls, workerRuns atomic.Int32
	err = Run(context.Background(), Config{
		Addr:     busy.Addr().String(),
		Handler:  http.NotFoundHandler(),
		SetReady: func(bool) { readyCalls.Add(1) },
		Workers:  []func(context.Context){func(context.Context) { workerRuns.Add(1) }},
		Logger:   log.New(io.Discard, "", 0),
	})
	if err == nil || !strings.Contains(err.Error(), "bind "+busy.Addr().String()) {
		t.Fatalf("Run on a busy address = %v, want a bind error", err)
	}
	if n := readyCalls.Load(); n != 0 {
		t.Fatalf("SetReady called %d times on a bind failure", n)
	}
	if n := workerRuns.Load(); n != 0 {
		t.Fatalf("%d workers started on a bind failure", n)
	}
}

// TestServeDrain pins the drain sequence a rolling restart relies on:
// after cancel, readiness flips to 503 while the listener still serves;
// after DrainDelay the listener refuses new connections; a request in
// flight completes across Shutdown; workers run until the server is down
// and are joined before Serve returns.
func TestServeDrain(t *testing.T) {
	const drainDelay = 50 * time.Millisecond
	var ready atomic.Bool
	entered, unpark := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-unpark
		io.WriteString(w, "done")
	})

	// The readiness hook holds the daemon right after it flips to unready,
	// so the test can probe the drain window before the delay runs.
	draining, hold := make(chan struct{}), make(chan struct{})
	setReady := func(b bool) {
		ready.Store(b)
		if !b {
			close(draining)
			<-hold
		}
	}
	workerStopped := make(chan struct{})
	worker := func(ctx context.Context) {
		<-ctx.Done()
		close(workerStopped)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	var logs bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, Config{
			Handler:         mux,
			SetReady:        setReady,
			DrainDelay:      drainDelay,
			ShutdownTimeout: 10 * time.Second,
			Workers:         []func(context.Context){worker},
			Logger:          log.New(&logs, "", 0),
		})
	}()

	// Fresh connections per probe: an idle keep-alive connection would let
	// a probe through after the listener closed.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	status := func(path string) int {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for status("/readyz") != http.StatusOK {
		time.Sleep(time.Millisecond)
	}

	type result struct {
		status int
		body   string
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := client.Get(base + "/slow")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		inflight <- result{status: resp.StatusCode, body: string(body), err: err}
	}()
	<-entered

	cancel()
	<-draining
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during the drain window = %d, want 503", got)
	}
	if got := status("/ping"); got != http.StatusOK {
		t.Fatalf("/ping during the drain window = %d, want 200", got)
	}
	select {
	case <-workerStopped:
		t.Fatal("worker stopped before the server shut down")
	default:
	}

	released := time.Now()
	close(hold)
	refused := false
	for i := 0; i < 2000; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			refused = true
			break
		}
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting connections after the drain delay")
	}
	if waited := time.Since(released); waited < drainDelay {
		t.Fatalf("listener closed %v after readiness flipped, before the %v drain delay", waited, drainDelay)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	default:
	}

	close(unpark)
	res := <-inflight
	if res.err != nil || res.status != http.StatusOK || res.body != "done" {
		t.Fatalf("in-flight request across Shutdown: status %d body %q err %v", res.status, res.body, res.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after a clean drain: %v", err)
	}
	select {
	case <-workerStopped:
	default:
		t.Fatal("Serve returned before its worker stopped")
	}
	if !strings.Contains(logs.String(), "bye") {
		t.Fatalf("no bye in the lifecycle log:\n%s", logs.String())
	}
}
