package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/cluster"
	"psd/internal/ingest"
	"psd/internal/serve"
)

// Release parameters.
var (
	// roadsOptions builds the static release: the paper's quadtree at
	// h=10, about 1.4M nodes and 56 MB in format v3.
	roadsOptions = psd.Options{Kind: psd.QuadtreeKind, Height: 10, Epsilon: 0.5}
	// liveOptions builds each published version of "live"; the ingester
	// funds every version with liveEpochEps.
	liveOptions  = psd.Options{Kind: psd.KDHybrid, Height: 8}
	liveEpochEps = 0.1
)

const (
	liveName = "live"
	// liveKeep is the ingester's artifact retention (psdingest -keep).
	liveKeep = 2
)

var quiet = log.New(io.Discard, "", 0)

// fleet is the system under test, wired in one process over loopback as
// the daemons are wired across processes: an ingest.Ingester publishing
// into a watch directory (psdingest), two serve.API replicas opening its
// releases by mmap (psdserve -dir), and a cluster.Proxy with a health
// prober in front (psdproxy), each at its command's default settings.
type fleet struct {
	publishDir string
	ingester   *ingest.Ingester
	regs       []*serve.Registry
	replicas   []*server
	proxy      *cluster.Proxy
	front      *server
	stopHealth context.CancelFunc
	healthDone chan struct{}
}

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, drops its connections, and waits for Serve.
func (s *server) close() {
	_ = s.srv.Close() // Close reports only listener-close errors; Serve's return is awaited below
	<-s.done
}

// fleetSpec is what one set-up builds.
type fleetSpec struct {
	dir    string
	seed   int64
	domain psd.Rect
	// roads, when non-nil, is built into the static "roads" release.
	roads []psd.Point
	// initial is ingested and published as live@v1; later versions follow
	// every cadence points.
	initial []psd.Point
	cadence int
	// wrap, when non-nil, wraps each replica's and the proxy's handler
	// (the traced run records spans there).
	wrap func(layer spanLayer, h http.Handler) http.Handler
}

// startFleet builds the releases, opens the ingester and starts the
// replicas and the proxy, returning once the proxy answers ready. On error
// everything already started is stopped.
func startFleet(fs fleetSpec) (*fleet, error) {
	f := &fleet{publishDir: filepath.Join(fs.dir, "publish")}
	if err := f.start(fs); err != nil {
		_ = f.close() // the start error is the one to report
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(fs fleetSpec) error {
	if err := os.MkdirAll(f.publishDir, 0o755); err != nil {
		return err
	}
	if fs.roads != nil {
		opts := roadsOptions
		opts.Seed = fs.seed
		tree, err := psd.Build(fs.roads, fs.domain, opts)
		if err != nil {
			return fmt.Errorf("building roads: %w", err)
		}
		path := filepath.Join(f.publishDir, "roads.bin")
		if _, err := atomicfile.Write(path, tree.WriteBinaryV3Release); err != nil {
			return fmt.Errorf("publishing roads: %w", err)
		}
		// A static release is old by the time a fleet serves it. Dating it
		// so lets the registry's rescans skip it as unchanged, instead of
		// reloading it (and dropping its cache) on every publish of "live"
		// while its mtime is too fresh to trust.
		old := time.Now().Add(-time.Hour)
		if err := os.Chtimes(path, old, old); err != nil {
			return err
		}
	}
	build := liveOptions
	build.Seed = fs.seed
	in, err := ingest.Open(ingest.Config{
		Name:         liveName,
		StateDir:     filepath.Join(fs.dir, "state"),
		PublishDir:   f.publishDir,
		Domain:       fs.domain,
		Build:        build,
		EpochEpsilon: liveEpochEps,
		RebuildCount: fs.cadence,
		Keep:         liveKeep,
	})
	if err != nil {
		return err
	}
	f.ingester = in
	if _, err := in.Ingest(fs.initial); err != nil {
		return err
	}
	if _, err := in.Publish(ingest.TriggerManual); err != nil {
		return err
	}

	var urls []string
	for range replicas {
		reg := serve.NewRegistry(cacheEntries)
		reg.SetLogger(quiet)
		if _, _, err := reg.ScanDir(f.publishDir); err != nil {
			return err
		}
		api := &serve.API{Registry: reg, WatchDir: f.publishDir, Logger: quiet}
		s, err := listen(wrapped(fs.wrap, layerServe, api.Handler()))
		if err != nil {
			return err
		}
		api.SetReady(true)
		f.regs = append(f.regs, reg)
		f.replicas = append(f.replicas, s)
		urls = append(urls, s.url)
	}

	// psdproxy's defaults: ring vnodes, retries and backoff, a 10s attempt
	// timeout, default breakers and probe timings.
	f.proxy = cluster.NewProxy(urls, cluster.DefaultVirtualNodes)
	f.proxy.Retries = cluster.DefaultRetries
	f.proxy.RetryBase = cluster.DefaultRetryBase
	f.proxy.AttemptTimeout = 10 * time.Second
	f.proxy.Logger = quiet
	health := &cluster.Health{Backends: f.proxy.BackendList(), Logger: quiet}
	ctx, cancel := context.WithCancel(context.Background())
	f.stopHealth, f.healthDone = cancel, make(chan struct{})
	go func() {
		defer close(f.healthDone)
		health.Run(ctx)
	}()
	if f.front, err = listen(wrapped(fs.wrap, layerProxy, f.proxy.Handler())); err != nil {
		return err
	}
	f.proxy.SetReady(true)
	return f.awaitReady()
}

func wrapped(wrap func(spanLayer, http.Handler) http.Handler, l spanLayer, h http.Handler) http.Handler {
	if wrap == nil {
		return h
	}
	return wrap(l, h)
}

// awaitReady polls the proxy's /readyz until it answers 200.
func (f *fleet) awaitReady() error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(f.front.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("fleet not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every server and the prober, unmaps the served releases and
// closes the ingester. It tolerates a partly started fleet.
func (f *fleet) close() error {
	if f.front != nil {
		f.front.close()
	}
	if f.stopHealth != nil {
		f.stopHealth()
		<-f.healthDone
	}
	for _, s := range f.replicas {
		s.close()
	}
	for _, reg := range f.regs {
		for _, rel := range reg.List() {
			_ = rel.Slab.Close() // unmapping a slab no request can reach any more cannot fail usefully
		}
	}
	if f.ingester != nil {
		return f.ingester.Close()
	}
	return nil
}
