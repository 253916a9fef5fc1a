// Package daemon is the process runtime psdserve, psdproxy and psdingest
// share: one serve-and-drain lifecycle (Run) and the reply helpers their
// handlers answer with (WriteJSON, WriteError, RetryAfter, WriteMetrics).
//
// The lifecycle:
//
//   - bind before declaring readiness, so a process that cannot listen
//     exits non-zero instead of reporting ready to a load balancer;
//   - on SIGINT/SIGTERM (or when the caller's context ends) readiness flips
//     to false FIRST, while the listener still accepts, so balancers route
//     away from a replica that still finishes the work sent to it;
//   - after DrainDelay, http.Server.Shutdown closes the listener and gives
//     in-flight requests ShutdownTimeout to finish;
//   - background workers are stopped and joined, "bye" is logged, and Run
//     returns nil: the process exits 0.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"psd/internal/promtext"
)

// Config is one daemon's wiring.
type Config struct {
	// Addr is the listen address Run binds.
	Addr string
	// Handler serves every request, probes included.
	Handler http.Handler
	// SetReady flips the daemon's readiness probe: true once the listener
	// is bound, false when the drain begins.
	SetReady func(bool)
	// DrainDelay is the pause between flipping readiness off and closing
	// the listener.
	DrainDelay time.Duration
	// ShutdownTimeout is the grace period in-flight requests get once the
	// listener closes.
	ShutdownTimeout time.Duration
	// Workers run in the background while the daemon serves. Their context
	// is cancelled once the HTTP server has shut down, and Serve returns
	// only after every worker has returned — so whatever the caller closes
	// after Run is no longer in use by them.
	Workers []func(context.Context)
	// Logger receives the lifecycle lines.
	Logger *log.Logger
}

// Run binds cfg.Addr and serves until SIGINT, SIGTERM or the end of ctx,
// then drains (see Serve). A bind failure returns "bind <addr>: …" before
// readiness is ever set.
func Run(ctx context.Context, cfg Config) error {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("bind %s: %w", cfg.Addr, err)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal arrived, restore the default disposition: a
	// second SIGINT/SIGTERM kills a drain that hangs.
	context.AfterFunc(ctx, stop)
	return Serve(ctx, ln, cfg)
}

// Serve runs the lifecycle on an already bound listener: ready, serve
// until ctx ends, unready, DrainDelay, Shutdown, stop and join Workers.
// It returns nil after a clean drain.
func Serve(ctx context.Context, ln net.Listener, cfg Config) error {
	srv := &http.Server{Handler: cfg.Handler, ReadHeaderTimeout: 10 * time.Second}
	cfg.SetReady(true)

	// Workers outlive the signal: they stop only after the last in-flight
	// request, which may still depend on them, has finished.
	workCtx, stopWorkers := context.WithCancel(context.WithoutCancel(ctx))
	var wg sync.WaitGroup
	for _, work := range cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(workCtx)
		}()
	}
	err := serveAndDrain(ctx, srv, ln, cfg)
	stopWorkers()
	wg.Wait()
	if err != nil {
		return err
	}
	cfg.Logger.Print("bye")
	return nil
}

func serveAndDrain(ctx context.Context, srv *http.Server, ln net.Listener, cfg Config) error {
	cfg.Logger.Printf("listening on %s", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	cfg.SetReady(false)
	cfg.Logger.Printf("draining: /readyz now 503 (delay %s, grace %s)", cfg.DrainDelay, cfg.ShutdownTimeout)
	if cfg.DrainDelay > 0 {
		time.Sleep(cfg.DrainDelay)
	}
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cfg.ShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// WriteJSON answers status with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is gone; nothing sane to do on error
}

// WriteError answers status with {"error": <formatted message>}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// RetryAfter formats d as a Retry-After header value in whole seconds,
// rounded up, minimum 1 — zero would tell clients to hammer.
func RetryAfter(d time.Duration) string {
	return strconv.Itoa(max(int(math.Ceil(d.Seconds())), 1))
}

// WriteMetrics answers a Prometheus text exposition: render fills it, and
// a render error becomes a 500 instead of a truncated scrape.
func WriteMetrics(w http.ResponseWriter, render func(*promtext.Writer)) {
	var buf bytes.Buffer
	pw := promtext.NewWriter(&buf)
	render(pw)
	if pw.Err() != nil {
		WriteError(w, http.StatusInternalServerError, "rendering metrics: %v", pw.Err())
		return
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	_, _ = w.Write(buf.Bytes()) // a failed write means the scraper left
}
