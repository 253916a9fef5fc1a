// Command psdserve serves range-count queries over published PSD releases.
//
// A release is the ε-differentially private artifact a curator builds once
// (psd.Tree.WriteRelease for JSON, psd.Tree.WriteBinaryV3Release for the
// binary format v3); answering queries against it is free post-processing,
// so one server can handle unlimited traffic with no further privacy spend.
// psdserve loads one or more releases — any format, including the legacy
// binary v2, sniffed from the leading bytes — into a named registry of flat
// query slabs and answers single and batch queries over HTTP, caching
// repeated answers in a bounded sharded LRU. v3 artifacts are mapped
// zero-copy instead of decoded; prefer them where reload latency matters
// (see `psdtool convert`).
//
// Usage:
//
//	psdserve -addr :8080 -release roads=roads.bin -release salaries=sal.json
//	psdserve -addr :8080 -dir /var/releases   # serve every *.json/*.bin in dir
//
// Endpoints:
//
//	GET    /healthz                      liveness
//	GET    /readyz                       readiness (503 while loading/draining)
//	GET    /stats                        process-level fault/traffic counters
//	GET    /v1/releases                  list releases (+ quarantine)
//	POST   /v1/releases/{name}           register/replace a release (hot reload)
//	DELETE /v1/releases/{name}           unregister
//	GET    /v1/releases/{name}/count     ?rect=lox,loy,hix,hiy
//	POST   /v1/releases/{name}/batch     {"rects":[[lox,loy,hix,hiy],...]}
//	GET    /v1/releases/{name}/regions   effective leaf regions
//	GET    /v1/releases/{name}/stats     query counts, cache hit rate, latency
//	POST   /v1/reload                    rescan -dir (changed files only)
//
// SIGINT/SIGTERM drains gracefully (internal/daemon): /readyz goes 503,
// then after -drain-delay the listener closes and in-flight requests get
// -shutdown-timeout to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"psd/internal/daemon"
	"psd/internal/serve"
)

// nameEqPath accumulates repeated -release name=path flags.
type nameEqPath []struct{ name, path string }

func (v *nameEqPath) String() string { return fmt.Sprint(*v) }

func (v *nameEqPath) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*v = append(*v, struct{ name, path string }{name, path})
	return nil
}

func main() {
	logger := log.New(os.Stderr, "psdserve: ", log.LstdFlags)
	if err := run(os.Args[1:], logger); err != nil {
		logger.Fatal(err)
	}
}

// run is the whole server lifecycle, separated from main so startup
// failures are testable: any error — bad flags aside (the flag package
// exits itself) — comes back here and exits the process non-zero through
// one path, with nothing half-started left behind.
func run(args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("psdserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "", "watch directory: serve every *.json/*.bin in it, rescanned by POST /v1/reload")
	cacheSize := fs.Int("cache", 1<<16, "per-release answer cache capacity (0 disables)")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "max request body bytes")
	maxBatch := fs.Int("max-batch", serve.DefaultMaxBatch, "max rectangles per batch request")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently served /v1 requests before shedding with 503 (0 disables)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline; late traversals are abandoned and answered 503 (0 disables)")
	drainDelay := fs.Duration("drain-delay", 0, "pause between flipping /readyz to 503 and closing the listener, so load balancers stop routing first")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	var releases nameEqPath
	fs.Var(&releases, "release", "release to serve as name=path (repeatable)")
	fs.Parse(args)

	reg := serve.NewRegistry(*cacheSize)
	reg.SetLogger(logger)
	// An explicitly named release that does not load is a configuration
	// error: exit rather than silently serve less than asked.
	for _, r := range releases {
		rel, err := reg.LoadFile(r.name, r.path)
		if err != nil {
			return fmt.Errorf("loading %s: %w", r.path, err)
		}
		logger.Printf("serving %q: %s h=%d eps=%g, %d regions (%d bytes)",
			rel.Name, rel.Slab.Kind(), rel.Slab.Height(), rel.Slab.PrivacyCost(),
			rel.NumRegions, rel.Bytes)
	}
	if *dir != "" {
		// The directory itself must be readable (glob quietly matches
		// nothing on a missing path, so check explicitly) — but individual
		// bad artifacts inside it are quarantined, not fatal: a replica
		// must come up with whatever does load.
		info, err := os.Stat(*dir)
		if err != nil {
			return fmt.Errorf("watch directory: %w", err)
		}
		if !info.IsDir() {
			return fmt.Errorf("watch directory %s: not a directory", *dir)
		}
		loaded, _, err := reg.ScanDir(*dir)
		if err != nil {
			logger.Printf("scanning %s (bad artifacts quarantined, serving the rest): %v", *dir, err)
		}
		logger.Printf("loaded %d release(s) from %s: %v", len(loaded), *dir, loaded)
	}
	if reg.Len() == 0 && *dir == "" {
		return errors.New("nothing to serve: pass -release name=path or -dir (releases can also be POSTed at runtime)")
	}

	api := &serve.API{
		Registry:       reg,
		WatchDir:       *dir,
		MaxBodyBytes:   *maxBody,
		MaxBatch:       *maxBatch,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *requestTimeout,
		Logger:         logger,
	}
	return daemon.Run(context.Background(), daemon.Config{
		Addr:            *addr,
		Handler:         api.Handler(),
		SetReady:        api.SetReady,
		DrainDelay:      *drainDelay,
		ShutdownTimeout: *shutdownTimeout,
		Logger:          logger,
	})
}
