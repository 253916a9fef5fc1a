// Command psdingest is the crash-safe streaming ingest daemon: the write
// side of the publish-then-serve split. Points stream in over HTTP and are
// appended to a checksummed, fsync'd write-ahead log BEFORE they are
// acknowledged; on a count cadence, a time cadence, or an operator request
// the daemon rebuilds the decomposition over everything acknowledged so far
// and publishes it as an immutable versioned release ("name@vN.bin") into a
// psdserve watch directory. Every published version is charged to a
// persistent per-name privacy ledger before its artifact becomes visible,
// so the ε spend survives crashes and restarts; once the budget cannot fund
// another epoch the daemon keeps ingesting and the serving tier keeps
// answering from the last release, but publishing refuses.
//
// The headline guarantee: SIGKILL the process at ANY instant and restart
// it — no acknowledged point is lost, any half-finished publication is
// rolled forward to the byte-identical artifact the uncrashed run would
// have produced, and the ledger never under-counts. `psdingest verify`
// audits exactly that from the on-disk state.
//
// Usage:
//
//	psdingest -addr :9090 -name taxi -state /var/psd/ingest \
//	  -publish /var/psd/releases -domain 0,0,100,100 -kind quadtree \
//	  -height 6 -seed 42 -budget 10 -epoch-eps 1 \
//	  -rebuild-count 10000 -interval 30s -keep 4
//
//	psdingest verify -name taxi -state /var/psd/ingest \
//	  -publish /var/psd/releases -domain 0,0,100,100 -kind quadtree \
//	  -height 6 -seed 42 -budget 10 -epoch-eps 1
//
// Endpoints:
//
//	POST /ingest    {"points":[[x,y],...]} → appended + fsync'd before the
//	                200 acknowledges them
//	POST /publish   operator-triggered publish of the next version
//	GET  /stats     ingest counters, budget state, wedge status (JSON)
//	GET  /metrics   the same in Prometheus text format
//	GET  /healthz   liveness
//	GET  /readyz    readiness (503 while draining)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"psd"
	"psd/internal/daemon"
	"psd/internal/ingest"
	"psd/internal/promtext"
)

func main() {
	logger := log.New(os.Stderr, "psdingest: ", log.LstdFlags)
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "verify" {
		if err := runVerify(args[1:], logger, os.Stdout); err != nil {
			logger.Fatal(err)
		}
		return
	}
	if err := run(args, logger); err != nil {
		logger.Fatal(err)
	}
}

// buildFlags registers the flags shared by the daemon and the verify
// subcommand — everything needed to reproduce a build deterministically.
// Per-version seed and ε live in the journal; the decomposition shape and
// domain are configuration and must match what the daemon ran with.
type buildFlags struct {
	name, state, publish string
	domain               string
	kind                 string
	height               int
	seed                 int64
	budget, epochEps     float64
	keep                 int
}

func (b *buildFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&b.name, "name", "", "release name; versions publish as name@vN.bin")
	fs.StringVar(&b.state, "state", "", "state directory (WAL, privacy ledger, versions journal)")
	fs.StringVar(&b.publish, "publish", "", "publish directory (a psdserve watch dir)")
	fs.StringVar(&b.domain, "domain", "", "data domain as lox,loy,hix,hiy")
	fs.StringVar(&b.kind, "kind", "quadtree",
		"tree kind: quadtree, kd, kd-hybrid, hilbert-r, kd-cell, kd-noisymean, privtree")
	fs.IntVar(&b.height, "height", 6, "tree height")
	fs.Int64Var(&b.seed, "seed", 1, "base RNG seed; version v builds with seed+v")
	fs.Float64Var(&b.budget, "budget", 0, "total per-name ε budget the ledger enforces (0 = unlimited)")
	fs.Float64Var(&b.epochEps, "epoch-eps", 1, "ε charged per published version")
	fs.IntVar(&b.keep, "keep", 0, "published artifacts to retain, older ones pruned (0 keeps all)")
}

var kinds = map[string]psd.Kind{
	"quadtree": psd.QuadtreeKind, "kd": psd.KDTree, "kd-hybrid": psd.KDHybrid,
	"hilbert-r": psd.HilbertRTree, "kd-cell": psd.KDCellTree,
	"kd-noisymean": psd.KDNoisyMeanTree, "privtree": psd.PrivTreeKind,
}

// config assembles the ingest.Config, validating everything the flag
// package cannot.
func (b *buildFlags) config(logger *log.Logger) (ingest.Config, error) {
	var cfg ingest.Config
	kind, ok := kinds[b.kind]
	if !ok {
		return cfg, fmt.Errorf("unknown kind %q", b.kind)
	}
	dom, err := parseDomain(b.domain)
	if err != nil {
		return cfg, err
	}
	return ingest.Config{
		Name:         b.name,
		StateDir:     b.state,
		PublishDir:   b.publish,
		Domain:       dom,
		Build:        psd.Options{Kind: kind, Height: b.height, Seed: b.seed},
		Budget:       b.budget,
		EpochEpsilon: b.epochEps,
		Keep:         b.keep,
		Logger:       logger,
	}, nil
}

func parseDomain(s string) (psd.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return psd.Rect{}, fmt.Errorf("-domain wants lox,loy,hix,hiy, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return psd.Rect{}, fmt.Errorf("-domain coordinate %q: %v", p, err)
		}
		v[i] = f
	}
	return psd.NewRect(v[0], v[1], v[2], v[3]), nil
}

func run(args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("psdingest", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address")
	interval := fs.Duration("interval", 0, "publish cadence: rebuild when any new points arrived (0 disables)")
	rebuildCount := fs.Int("rebuild-count", 0, "publish after this many new points (0 disables)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	var bf buildFlags
	bf.register(fs)
	fs.Parse(args)

	cfg, err := bf.config(logger)
	if err != nil {
		return err
	}
	cfg.RebuildCount = *rebuildCount
	in, err := ingest.Open(cfg)
	if err != nil {
		return err
	}
	defer func() {
		// Close aggregates WAL/ledger/journal close errors; at shutdown
		// they are worth a log line even though the data is already synced.
		if cerr := in.Close(); cerr != nil {
			logger.Printf("close: %v", cerr)
		}
	}()
	st := in.Stats()
	logger.Printf("opened %q: %d points replayed, latest v%d, ε %g/%g spent",
		st.Name, st.Points, st.LatestVersion, st.Spent, st.Budget)

	srv := newServer(in, logger)
	// The publisher is a daemon worker: Run joins it before returning, so
	// the deferred Close never races a cadence publish.
	return daemon.Run(context.Background(), daemon.Config{
		Addr:            *addr,
		Handler:         srv.handler(),
		SetReady:        srv.ready.Store,
		ShutdownTimeout: *shutdownTimeout,
		Workers: []func(context.Context){
			func(ctx context.Context) { srv.publishLoop(ctx, *interval) },
		},
		Logger: logger,
	})
}

// runVerify is the audit subcommand: replay the on-disk state (completing
// any interrupted publication exactly as a daemon restart would), rebuild
// every published version from the WAL, and bit-compare against the
// journal's checksums and the artifacts in the publish directory. Exit
// status is the verdict, so scripts can gate on it.
func runVerify(args []string, logger *log.Logger, out io.Writer) error {
	fs := flag.NewFlagSet("psdingest verify", flag.ExitOnError)
	var bf buildFlags
	bf.register(fs)
	fs.Parse(args)

	cfg, err := bf.config(logger)
	if err != nil {
		return err
	}
	in, err := ingest.Open(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := in.Close(); cerr != nil {
			logger.Printf("close: %v", cerr)
		}
	}()
	checks, err := in.Verify()
	if err != nil {
		return err
	}
	bad := 0
	for _, c := range checks {
		status := "ok"
		if !c.OK {
			status = "MISMATCH"
			bad++
		}
		artifact := c.ArtifactCRC
		if c.Pruned {
			artifact = "(pruned)"
		}
		fmt.Fprintf(out, "v%d\t%d points\tjournal=%s rebuilt=%s artifact=%s\t%s\n",
			c.Version, c.Points, c.JournalCRC, c.RebuiltCRC, artifact, status)
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d of %d versions failed the bit-compare", bad, len(checks))
	}
	fmt.Fprintf(out, "verify: %d versions, all byte-identical\n", len(checks))
	return nil
}

// server is the daemon's HTTP surface over one Ingester.
type server struct {
	in     *ingest.Ingester
	logger *log.Logger
	ready  atomic.Bool
	// publishCh nudges the publisher goroutine (capacity 1: publishing
	// covers every acknowledged point, so coalescing nudges is correct).
	publishCh chan ingest.Trigger
}

func newServer(in *ingest.Ingester, logger *log.Logger) *server {
	return &server{in: in, logger: logger, publishCh: make(chan ingest.Trigger, 1)}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /publish", s.handlePublish)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// publishLoop serializes every non-manual publish until ctx ends: the
// ingest handler nudges it on the count cadence, the ticker drives the
// time cadence. Refusals (no trigger yet, nothing new) are the steady
// state and stay quiet; real failures wedge the pipeline and are loud.
func (s *server) publishLoop(ctx context.Context, interval time.Duration) {
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		var trig ingest.Trigger
		select {
		case <-ctx.Done():
			return
		case trig = <-s.publishCh:
		case <-tick:
			trig = ingest.TriggerInterval
		}
		// select picks among ready cases at random: a nudge queued before
		// shutdown must not start a build after it.
		if ctx.Err() != nil {
			return
		}
		if _, err := s.in.Publish(trig); err != nil &&
			!errors.Is(err, ingest.ErrNoTrigger) && !errors.Is(err, ingest.ErrNoNewPoints) {
			s.logger.Printf("publish: %v", err)
		}
	}
}

// maxIngestBody bounds one ingest request (~2M points as JSON).
const maxIngestBody = 64 << 20

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Points [][2]float64 `json:"points"`
	}
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			daemon.WriteError(w, http.StatusRequestEntityTooLarge,
				"ingest body exceeds the %d-byte limit", int64(maxIngestBody))
			return
		}
		daemon.WriteError(w, http.StatusBadRequest, "bad ingest body: %v", err)
		return
	}
	if len(req.Points) == 0 {
		daemon.WriteError(w, http.StatusBadRequest, "no points")
		return
	}
	pts := make([]psd.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = psd.Point{X: p[0], Y: p[1]}
	}
	total, err := s.in.Ingest(pts)
	if err != nil {
		// A rejected batch is the client's fault (400); a failed append is
		// the WAL's (500) — and the client must NOT treat it as accepted.
		status := http.StatusInternalServerError
		if errors.Is(err, ingest.ErrBadPoint) {
			status = http.StatusBadRequest
		}
		daemon.WriteError(w, status, "%v", err)
		return
	}
	// The 200 IS the durability acknowledgment: the points are fsync'd.
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"added": len(pts), "total": total})
	// Nudge the count cadence; a full channel means a publish check is
	// already queued, which covers this batch too.
	select {
	case s.publishCh <- ingest.TriggerCount:
	default:
	}
}

func (s *server) handlePublish(w http.ResponseWriter, r *http.Request) {
	res, err := s.in.Publish(ingest.TriggerManual)
	switch {
	case err == nil:
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"version": res.Version, "points": res.Points, "bytes": res.Bytes,
			"crc64": res.CRC64, "path": res.Path, "eps": res.Eps,
		})
	case errors.Is(err, ingest.ErrNoNewPoints) || errors.Is(err, ingest.ErrNoTrigger):
		daemon.WriteError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ingest.ErrBudgetExhausted):
		daemon.WriteError(w, http.StatusForbidden, "%v", err)
	default:
		daemon.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, s.in.Stats())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	daemon.WriteMetrics(w, func(pw *promtext.Writer) { renderMetrics(pw, s.in.Stats()) })
}

func renderMetrics(pw *promtext.Writer, st ingest.Stats) {
	for _, m := range []struct {
		name, typ, help string
		v               float64
	}{
		{"psdingest_points_total", "counter", "Acknowledged (fsync'd) points in the WAL.", float64(st.Points)},
		{"psdingest_pending_points", "gauge", "Points not yet covered by a published version.", float64(st.PendingPoints)},
		{"psdingest_wal_segments", "gauge", "WAL segment files.", float64(st.WALSegments)},
		{"psdingest_wal_bytes", "gauge", "WAL bytes on disk.", float64(st.WALBytes)},
		{"psdingest_wal_broken", "gauge", "1 when the WAL is in the sticky broken state (restart to recover).", promtext.Bool(st.WALBroken)},
		{"psdingest_budget_epsilon", "gauge", "Total per-name privacy budget (0 = unlimited).", st.Budget},
		{"psdingest_budget_spent_epsilon", "gauge", "Privacy budget charged so far.", st.Spent},
		{"psdingest_budget_exhausted", "gauge", "1 when the next epoch cannot be funded: publishing refuses, ingest and serving continue.", promtext.Bool(st.BudgetExhausted)},
		{"psdingest_latest_version", "gauge", "Latest published version number.", float64(st.LatestVersion)},
		{"psdingest_published_total", "counter", "Versions published (including recovered ones).", float64(st.Published)},
		{"psdingest_recovered_total", "counter", "Publications rolled forward by crash recovery.", float64(st.Recovered)},
		{"psdingest_refused_total", "counter", "Publishes refused for budget exhaustion.", float64(st.Refused)},
		{"psdingest_ingest_errors_total", "counter", "Failed (unacknowledged) ingest appends.", float64(st.IngestErrors)},
		{"psdingest_wedged", "gauge", "1 when the publish pipeline is wedged by a mid-cycle failure (restart to recover).", promtext.Bool(st.Wedged != "")},
	} {
		pw.Family(m.name, m.typ, m.help)
		pw.Sample(m.name, nil, m.v)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		daemon.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready"})
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
