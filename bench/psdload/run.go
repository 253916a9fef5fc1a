package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psd"
	"psd/internal/ingest"
	"psd/internal/serve"
)

// config is one run of one workload.
type config struct {
	spec    *workloadSpec
	seed    int64
	seconds float64 // measured seconds; warm-up and set-up come on top
	points  int     // dataset size
	setups  int     // set-ups timed; setup_s is their median
	trace   bool
	dir     string // scratch directory, removed when the run ends
	spans   string // span file of a traced run
	// corruptReference perturbs the oracle's reference answers, so a test
	// can show that a wrong answer fails the run.
	corruptReference bool
}

// Closed-loop phases do a fixed amount of work: as many operations as the
// fleet completes in the phase's time share at these rates, its capacity
// on the 2-vCPU machine the benchmark was sized on. A faster or slower
// machine takes less or more time for the same work, so what a run holds
// in memory (the ingester keeps every acknowledged point) does not depend
// on the machine's speed. A phase still stops at closedTimeLimit times its
// share.
var closedRate = map[opKind]float64{opHot: 16000, opLive: 16000, opBatch: 190, opIngest: 9000}

const closedTimeLimit = 4

// opRecord is one generator operation and what came back.
type opRecord struct {
	kind    opKind
	ok      bool  // HTTP 200 / ingest acknowledged
	traced  bool  // carries a request id, so the fleet records its spans
	arg     int32 // pool index of a count read
	version int32 // the live@vN that answered a read of "live"
	hits    uint8 // rectangles the replica answered from its cache
	val     float64
	// replayStart and replayNs time the oracle's reference traversal of a
	// read, the core layer's share of it.
	replayStart, replayNs int64
}

// phaseRun is one phase of a run with its records.
type phaseRun struct {
	phase
	idx        int
	dur        time.Duration
	due        []int64 // open loop: the schedule, ns from the phase origin
	recs       []opRecord
	ts         []timing
	vals       []float64 // batch answers, batchRects per operation
	n          int       // operations issued
	start, end int64
	backlog    int
}

// rid is the request id of operation i; ids are unique within a run.
func (ph *phaseRun) rid(i int) uint64 { return uint64(ph.idx+1)<<32 | uint64(i) }

// pubEvent is one publish cycle as the publisher saw it.
type pubEvent struct {
	version      int
	points       uint64
	start        int64 // Publish called
	published    int64 // Publish returned
	scans        []interval
	visible      int64 // the publisher's probe read answered by this version
	probeVal     float64
	probeVersion int
	err          error
}

// refSlab is the oracle's own copy of a published release.
type refSlab struct {
	slab             *psd.Slab
	openNs, verifyNs int64
}

// worker is one generator connection and its reusable buffers.
type worker struct {
	client *http.Client
	resp   bytes.Buffer
	body   []byte
	rects  []psd.Rect
	pts    []psd.Point
	counts []float64
}

func newWorker() *worker {
	return &worker{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		rects:  make([]psd.Rect, batchRects),
		pts:    make([]psd.Point, ingestBatch),
		counts: make([]float64, 0, batchRects),
	}
}

// exchange sends req and reads the whole answer, reporting a 200.
func (wk *worker) exchange(req *http.Request) bool {
	resp, err := wk.client.Do(req)
	if err != nil {
		return false
	}
	wk.resp.Reset()
	_, err = wk.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

type runner struct {
	cfg   config
	in    *inputs
	clk   realClock
	fleet *fleet
	tr    *tracer

	setupS   []float64
	hotURL   []string
	liveURL  []string
	batchURL string
	probeURL string
	workers  []*worker
	probe    *worker

	phases []*phaseRun
	// walPoints mirrors the WAL's points in order, rebuilt from each
	// acknowledged total, so a traced run can replay the builds exactly.
	walPoints []psd.Point

	publishing atomic.Bool
	covered    atomic.Uint64 // points the latest version covers
	nudge      chan struct{}
	pubStop    chan struct{}
	pubDone    chan struct{}
	events     []pubEvent // written by the publisher, read once it stopped

	// refDir holds a hard link to every published version of live, made
	// before retention prunes it; the oracle opens its reference copies
	// from there once the timed phases are over, so they cost the fleet
	// no memory while it runs.
	refDir   string
	roadsRef *refSlab
	liveRefs map[int]*refSlab

	before, after procSnapshot
	ingestWritten int64     // storage bytes written during the ingest-latency phases
	retainedKiB   int64     // anonymous resident set after the timed phases and a full GC
	evictions     uint64    // answer-cache evictions during the query-latency phases
	proxyBefore   [2]uint64 // retries, failovers

	oracle            oracleTally
	ingestStats       ingest.Stats
	proxyAfter        [2]uint64
	attempted, failed int
	problems          []string
}

// runWorkload runs one workload start to finish: set-up, the timed
// phases, the correctness checks and, when traced, the replays behind the
// per-layer metrics.
func runWorkload(cfg config) (*runResult, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	r := &runner{
		cfg:      cfg,
		in:       makeInputs(cfg.seed, cfg.points),
		clk:      realClock{origin: time.Now()},
		nudge:    make(chan struct{}, 1),
		refDir:   filepath.Join(cfg.dir, "refs"),
		liveRefs: map[int]*refSlab{},
	}
	r.prepare()
	if err := r.setUp(); err != nil {
		if r.fleet != nil {
			_ = r.fleet.close() // the set-up error is the one to report
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.runPhases()
	r.checkIngest()
	r.verifyAnswers()
	var replays []buildReplay
	if cfg.trace {
		var err error
		if replays, err = r.replayBuilds(); err != nil {
			r.problem("build replay: %v", err)
		}
	}
	if err := r.fleet.close(); err != nil {
		r.problem("closing the fleet: %v", err)
	}
	for _, wk := range append(r.workers, r.probe) {
		wk.client.CloseIdleConnections()
	}
	res := r.result(replays)
	if cfg.trace {
		if err := writeSpans(cfg.spans, r.allSpans(replays)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// prepare draws every phase's schedule and preallocates its records, so
// the timed phases allocate nothing per operation on the generator side.
func (r *runner) prepare() {
	walCap := r.in.cadence()
	traced := 0
	for i, p := range r.cfg.spec.phases(r.cfg.trace) {
		ph := &phaseRun{phase: p, idx: i, dur: p.duration(r.cfg.seconds)}
		var kinds []opKind
		if p.closed {
			k := r.cfg.spec.read
			if p.writes > 0 {
				k = opIngest
			}
			kinds = slices.Repeat([]opKind{k}, int(math.Ceil(closedRate[k]*ph.dur.Seconds())))
		} else {
			var streams []uint8
			ph.due, streams = poissonSchedule(r.in.rng(uint64(i)+1, 0), []float64{p.reads, p.writes}, ph.dur)
			kinds = make([]opKind, len(streams))
			for j, stream := range streams { // stream 0 reads, stream 1 ingests
				kinds[j] = r.cfg.spec.read
				if stream == 1 {
					kinds[j] = opIngest
				}
			}
		}
		args := r.in.zipfArgs(i, len(kinds))
		ph.recs, ph.ts = make([]opRecord, len(kinds)), make([]timing, len(kinds))
		batches := false
		for j := range ph.recs {
			rec := &ph.recs[j]
			rec.kind, rec.arg = kinds[j], args[j]
			rec.traced = r.cfg.trace && p.measured() && !p.closed && j%2 == 0
			if rec.traced {
				traced++
			}
			batches = batches || rec.kind == opBatch
			if rec.kind == opIngest && !p.closed {
				walCap += ingestBatch
			}
		}
		if batches {
			ph.vals = make([]float64, len(ph.recs)*batchRects)
		}
		r.phases = append(r.phases, ph)
	}
	r.walPoints = make([]psd.Point, walCap)
	if r.cfg.trace {
		// Two handler spans (proxy, replica) per traced request, plus
		// room for retries.
		r.tr = newTracer(r.clk, 2*traced+1024)
	}
	r.workers = []*worker{newWorker(), newWorker()}
	r.probe = newWorker()
}

// setUp builds the fleet cfg.setups times, timing each from the first
// build to the proxy answering ready, and keeps the last one.
func (r *runner) setUp() error {
	initial := r.in.points[:r.in.cadence()]
	copy(r.walPoints, initial)
	var roads []psd.Point
	if r.cfg.spec.static {
		roads = r.in.points
	}
	var wrap func(spanLayer, http.Handler) http.Handler
	if r.tr != nil {
		wrap = r.tr.wrap
	}
	for k := range r.cfg.setups {
		dir := filepath.Join(r.cfg.dir, fmt.Sprintf("setup-%d", k))
		start := time.Now()
		f, err := startFleet(fleetSpec{dir: dir, seed: r.cfg.seed, domain: r.in.domain,
			roads: roads, initial: initial, cadence: r.in.cadence(), wrap: wrap})
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if k == r.cfg.setups-1 {
			r.fleet = f
			break
		}
		if err := f.close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		runtime.GC() // the next set-up starts from the same heap as the first
	}

	front := r.fleet.front.url
	r.hotURL = countURLs(front, "roads", r.in.hot)
	r.liveURL = countURLs(front, liveName, r.in.live)
	r.batchURL = front + "/v1/releases/roads/batch"
	r.probeURL = countURLs(front, liveName, []psd.Rect{r.in.domain})[0]
	r.covered.Store(uint64(len(initial)))
	if err := os.MkdirAll(r.refDir, 0o755); err != nil {
		return err
	}
	return r.keepVersion(filepath.Join(r.fleet.publishDir, liveName+"@v1.bin"))
}

// keepVersion hard-links a published artifact into refDir.
func (r *runner) keepVersion(path string) error {
	return os.Link(path, filepath.Join(r.refDir, filepath.Base(path)))
}

// openRefs opens the oracle's copies of every release the run served.
func (r *runner) openRefs() error {
	if r.cfg.spec.static {
		ref, err := openRef(filepath.Join(r.fleet.publishDir, "roads.bin"))
		if err != nil {
			return err
		}
		r.roadsRef = ref
	}
	links, err := filepath.Glob(filepath.Join(r.refDir, liveName+"@v*.bin"))
	if err != nil {
		return err
	}
	for _, path := range links {
		ref, err := openRef(path)
		if err != nil {
			return err
		}
		r.liveRefs[versionOf(strings.TrimSuffix(filepath.Base(path), ".bin"))] = ref
	}
	return nil
}

// closeRefs unmaps the oracle's reference copies.
func (r *runner) closeRefs() {
	for _, ref := range r.liveRefs {
		_ = ref.slab.Close() // unmapping a slab nothing uses any more cannot fail usefully
	}
	if r.roadsRef != nil {
		_ = r.roadsRef.slab.Close()
	}
}

func countURLs(front, name string, rects []psd.Rect) []string {
	out := make([]string, len(rects))
	for i, q := range rects {
		out[i] = front + "/v1/releases/" + name + "/count?rect=" + formatRect(q)
	}
	return out
}

// formatRect prints a rectangle so that it parses back bit-identically.
func formatRect(q psd.Rect) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return f(q.Lo.X) + "," + f(q.Lo.Y) + "," + f(q.Hi.X) + "," + f(q.Hi.Y)
}

func openRef(path string) (*refSlab, error) {
	start := time.Now()
	s, err := psd.OpenSlabFile(path)
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	if err := s.Verify(); err != nil {
		return nil, err
	}
	return &refSlab{slab: s, openNs: int64(opened.Sub(start)), verifyNs: int64(time.Since(opened))}, nil
}

// runPhases runs the phases in order, starting and stopping the publisher
// at phase boundaries and snapshotting the process's resource use around
// the measured ones.
func (r *runner) runPhases() {
	measuring := false
	var cacheStart map[*serve.Release]serve.StatsSnapshot
	for _, ph := range r.phases {
		if ph.publish != r.publishing.Load() {
			if ph.publish {
				r.startPublisher()
			} else {
				r.stopPublisher()
			}
		}
		if ph.measured() && !measuring {
			measuring = true
			// Set-up's garbage is collected now, not during the first round.
			debug.FreeOSMemory()
			r.before = snapshotProc()
			st := r.fleet.proxy.Stats()
			r.proxyBefore = [2]uint64{st.Retries, st.Failovers}
		}
		if ph.queryLatency {
			cacheStart = r.cacheStats()
		}
		written := procField("/proc/self/io", "write_bytes:")
		do := func(w, i int) { r.do(ph, w, i) }
		ph.start = r.clk.now()
		if ph.closed {
			ph.n = closedLoop(r.clk, conns, ph.start+closedTimeLimit*int64(ph.dur), do, ph.ts)
		} else {
			ph.backlog = openLoop(r.clk, ph.start, ph.due, conns, do, ph.ts)
			ph.n = len(ph.due)
		}
		ph.end = r.clk.now()
		if ph.queryLatency {
			r.evictions += cacheEvictions(cacheStart, r.cacheStats())
			cacheStart = nil
		}
		if ph.ingestLatency {
			r.ingestWritten += procField("/proc/self/io", "write_bytes:") - written
		}
		for _, rec := range ph.recs[:ph.n] {
			r.attempted++
			if !rec.ok {
				r.failed++
			}
		}
	}
	r.stopPublisher()
	r.after = snapshotProc()
	// What the fleet holds once the load is over: the ingester's points,
	// the caches, the replicas' indexes. A full collection first takes the
	// garbage out, whose amount depends on when the collector last ran.
	// File-backed pages are left out: the mmapped releases are page cache,
	// which the kernel drops and faults back in as the machine's memory
	// pressure comes and goes.
	debug.FreeOSMemory()
	r.retainedKiB = procField("/proc/self/status", "RssAnon:")
	st := r.fleet.proxy.Stats()
	r.proxyAfter = [2]uint64{st.Retries, st.Failovers}
}

// cacheStats snapshots every release the replicas serve.
func (r *runner) cacheStats() map[*serve.Release]serve.StatsSnapshot {
	out := map[*serve.Release]serve.StatsSnapshot{}
	for _, reg := range r.fleet.regs {
		for _, rel := range reg.List() {
			out[rel] = rel.Stats()
		}
	}
	return out
}

// cacheEvictions sums the eviction counters' growth; a release missing
// from before was loaded in between and counts from zero. A release both
// loaded and dropped in between is missed; only "live" versions, which
// start with an empty cache, can be.
func cacheEvictions(before, after map[*serve.Release]serve.StatsSnapshot) uint64 {
	var n uint64
	for rel, a := range after {
		n += a.CacheEvictions - before[rel].CacheEvictions
	}
	return n
}

// do performs operation i of ph on worker w's connection.
func (r *runner) do(ph *phaseRun, w, i int) {
	wk, rec := r.workers[w], &ph.recs[i]
	switch rec.kind {
	case opHot:
		r.count(wk, rec, r.hotURL[rec.arg], ph.rid(i))
	case opLive:
		r.count(wk, rec, r.liveURL[rec.arg], ph.rid(i))
	case opBatch:
		r.batch(wk, ph, i)
	case opIngest:
		r.ingest(wk, ph, i)
	}
}

func withRID(url string, rec *opRecord, rid uint64, sep string) string {
	if !rec.traced {
		return url
	}
	return url + sep + ridParam + "=" + strconv.FormatUint(rid, 10)
}

func (r *runner) count(wk *worker, rec *opRecord, url string, rid uint64) {
	req, err := http.NewRequest(http.MethodGet, withRID(url, rec, rid, "&"), nil)
	if err != nil || !wk.exchange(req) {
		return
	}
	var resp struct {
		Release string  `json:"release"`
		Count   float64 `json:"count"`
		Cached  bool    `json:"cached"`
	}
	if json.Unmarshal(wk.resp.Bytes(), &resp) != nil {
		return
	}
	rec.val, rec.version, rec.ok = resp.Count, int32(versionOf(resp.Release)), true
	if resp.Cached {
		rec.hits = 1
	}
}

// versionOf parses the N of a "name@vN" release key; 0 for a bare name.
func versionOf(key string) int {
	_, v, ok := strings.Cut(key, "@v")
	if !ok {
		return 0
	}
	n, _ := strconv.Atoi(v) // a malformed key reads as version 0, which the oracle rejects
	return n
}

func (r *runner) batch(wk *worker, ph *phaseRun, i int) {
	rec := &ph.recs[i]
	r.in.batchRects(ph.idx, i, wk.rects)
	wk.body = appendBatchBody(wk.body[:0], wk.rects)
	req, err := http.NewRequest(http.MethodPost, withRID(r.batchURL, rec, ph.rid(i), "?"), bytes.NewReader(wk.body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if !wk.exchange(req) {
		return
	}
	resp := struct {
		Counts    []float64 `json:"counts"`
		CacheHits uint8     `json:"cache_hits"`
	}{Counts: wk.counts[:0]}
	if json.Unmarshal(wk.resp.Bytes(), &resp) != nil || len(resp.Counts) != batchRects {
		return
	}
	wk.counts = resp.Counts
	copy(ph.vals[i*batchRects:(i+1)*batchRects], resp.Counts)
	rec.ok, rec.hits = true, resp.CacheHits
}

// appendBatchBody appends the /batch request body for rects.
func appendBatchBody(b []byte, rects []psd.Rect) []byte {
	b = append(b, `{"rects":[`...)
	for j, q := range rects {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k, v := range [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y} {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func (r *runner) ingest(wk *worker, ph *phaseRun, i int) {
	rec := &ph.recs[i]
	r.in.ingestPoints(ph.idx, i, wk.pts)
	total, err := r.fleet.ingester.Ingest(wk.pts)
	if err != nil {
		return
	}
	rec.ok = true
	if !ph.closed && total <= uint64(len(r.walPoints)) {
		copy(r.walPoints[total-uint64(len(wk.pts)):], wk.pts)
	}
	if r.publishing.Load() && total >= r.covered.Load()+uint64(r.in.cadence()) {
		select {
		case r.nudge <- struct{}{}:
		default: // a publish is already pending; it will cover these points
		}
	}
}

// startPublisher runs the stand-in for psdingest's publish loop and
// psdserve's /v1/reload: on each count-cadence nudge it publishes the next
// version, rescans both replicas' watch directory, and reads "live"
// through the proxy until the new version answers.
func (r *runner) startPublisher() {
	r.pubStop, r.pubDone = make(chan struct{}), make(chan struct{})
	r.publishing.Store(true)
	go func(stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-r.nudge:
			}
			select {
			case <-stop:
				return
			default:
			}
			r.publishOnce()
		}
	}(r.pubStop, r.pubDone)
}

// stopPublisher stops the publisher after any cycle in progress.
func (r *runner) stopPublisher() {
	if !r.publishing.Load() {
		return
	}
	r.publishing.Store(false)
	close(r.pubStop)
	<-r.pubDone
}

func (r *runner) publishOnce() {
	start := r.clk.now()
	res, err := r.fleet.ingester.Publish(ingest.TriggerCount)
	if errors.Is(err, ingest.ErrNoTrigger) {
		return
	}
	ev := pubEvent{start: start, published: r.clk.now(), err: err}
	defer func() { r.events = append(r.events, ev) }()
	if err != nil {
		return
	}
	ev.version, ev.points = res.Version, res.Points
	r.covered.Store(res.Points)
	for _, reg := range r.fleet.regs {
		s := r.clk.now()
		if _, _, err := reg.ScanDir(r.fleet.publishDir); err != nil {
			ev.err = err
			return
		}
		ev.scans = append(ev.scans, interval{s, r.clk.now()})
	}
	for try := 0; ; try++ {
		req, err := http.NewRequest(http.MethodGet, r.probeURL, nil)
		if err != nil {
			ev.err = err
			return
		}
		if r.probe.exchange(req) {
			var resp struct {
				Release string  `json:"release"`
				Count   float64 `json:"count"`
			}
			if err := json.Unmarshal(r.probe.resp.Bytes(), &resp); err == nil && versionOf(resp.Release) >= res.Version {
				ev.visible, ev.probeVal, ev.probeVersion = r.clk.now(), resp.Count, versionOf(resp.Release)
				break
			}
		}
		if try == 1000 {
			ev.err = fmt.Errorf("live@v%d never answered a read", res.Version)
			return
		}
		time.Sleep(time.Millisecond)
	}
	ev.err = r.keepVersion(res.Path)
}

// checkIngest holds the ingester to its contract: every acknowledged point
// is counted, and every published version rebuilds byte-identically from
// the WAL and matches its artifact.
func (r *runner) checkIngest() {
	want := uint64(r.in.cadence())
	for _, ph := range r.phases {
		for _, rec := range ph.recs[:ph.n] {
			if rec.kind == opIngest && rec.ok {
				want += ingestBatch
			}
		}
	}
	r.ingestStats = r.fleet.ingester.Stats()
	if got := r.ingestStats.Points; got != want {
		r.problem("ingester holds %d points, %d were acknowledged", got, want)
	}
	checks, err := r.fleet.ingester.Verify()
	if err != nil {
		r.problem("ingester verify: %v", err)
	}
	for _, c := range checks {
		if !c.OK {
			r.problem("live@v%d does not verify: journal %s, rebuilt %s, artifact %s",
				c.Version, c.JournalCRC, c.RebuiltCRC, c.ArtifactCRC)
		}
	}
	for _, ev := range r.events {
		if ev.err != nil {
			r.problem("publish cycle: %v", ev.err)
		}
	}
}

// verifyAnswers replays every answered read against the oracle's own copy
// of the release that answered it and requires bit-identical results. The
// replay also times each traversal and counts the nodes it visited.
func (r *runner) verifyAnswers() {
	defer r.closeRefs()
	if err := r.openRefs(); err != nil {
		r.problem("opening reference releases: %v", err)
		return
	}
	var wg sync.WaitGroup
	parts := make([]oracleTally, conns)
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = r.replayReads(w, len(parts))
		}()
	}
	wg.Wait()
	var total oracleTally
	for _, p := range parts {
		total.add(p)
	}
	for _, ev := range r.events {
		if ev.err == nil && !r.matches(ev.probeVersion, r.in.domain, ev.probeVal) {
			total.mismatch(fmt.Sprintf("probe of live@v%d", ev.probeVersion))
		}
	}
	if total.mismatches > 0 {
		r.problem("%d answers differ from the reference, e.g. %s", total.mismatches, strings.Join(total.examples, "; "))
	}
	r.oracle = total
}

// oracleTally is one replay goroutine's findings.
type oracleTally struct {
	mismatches int
	examples   []string
	stats      psd.QueryStats // over the query-latency phase
	rects      int
}

func (t *oracleTally) mismatch(what string) {
	t.mismatches++
	if len(t.examples) < 3 {
		t.examples = append(t.examples, what)
	}
}

func (t *oracleTally) add(o oracleTally) {
	t.mismatches += o.mismatches
	for _, e := range o.examples {
		if len(t.examples) < 3 {
			t.examples = append(t.examples, e)
		}
	}
	t.tallyStats(o.stats, o.rects)
}

// reference returns the oracle's copy of the release a read was answered by.
func (r *runner) reference(rec *opRecord) *refSlab {
	if rec.kind == opLive {
		return r.liveRefs[int(rec.version)]
	}
	return r.roadsRef
}

// matches reports whether got is the reference answer for q on live@vN.
func (r *runner) matches(v int, q psd.Rect, got float64) bool {
	ref := r.liveRefs[v]
	return ref != nil && sameAnswer(got, ref.slab.Count(q), r.cfg.corruptReference)
}

func sameAnswer(got, want float64, corrupt bool) bool {
	if corrupt {
		want++
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// replayReads checks the reads of every phase whose index is w modulo of.
func (r *runner) replayReads(w, of int) oracleTally {
	var t oracleTally
	dst, one := make([]float64, batchRects), make([]psd.Rect, 1)
	rects := make([]psd.Rect, batchRects)
	for _, ph := range r.phases {
		for i := w; i < ph.n; i += of {
			rec := &ph.recs[i]
			if !rec.ok || rec.kind == opIngest {
				continue
			}
			ref := r.reference(rec)
			if ref == nil {
				t.mismatch(fmt.Sprintf("phase %s op %d: no reference for live@v%d", ph.name, i, rec.version))
				continue
			}
			start := r.clk.now()
			if rec.kind == opBatch {
				r.in.batchRects(ph.idx, i, rects)
				st := ref.slab.CountBatchIntoWorkers(dst, rects, 1)
				rec.replayStart, rec.replayNs = start, r.clk.now()-start
				for j, want := range dst {
					if !sameAnswer(ph.vals[i*batchRects+j], want, r.cfg.corruptReference) {
						t.mismatch(fmt.Sprintf("phase %s batch %d rect %d", ph.name, i, j))
						break
					}
				}
				if ph.queryLatency {
					t.tallyStats(st, batchRects)
				}
				continue
			}
			one[0] = r.in.hot[rec.arg]
			if rec.kind == opLive {
				one[0] = r.in.live[rec.arg]
			}
			want := ref.slab.Count(one[0])
			rec.replayStart, rec.replayNs = start, r.clk.now()-start
			if !sameAnswer(rec.val, want, r.cfg.corruptReference) {
				t.mismatch(fmt.Sprintf("phase %s op %d: got %v, reference %v", ph.name, i, rec.val, want))
			}
			if ph.queryLatency && r.cfg.trace {
				t.tallyStats(ref.slab.CountBatchIntoWorkers(dst[:1], one, 1), 1)
			}
		}
	}
	return t
}

func (t *oracleTally) tallyStats(st psd.QueryStats, rects int) {
	t.stats.NodesAdded += st.NodesAdded
	t.stats.NodesVisited += st.NodesVisited
	t.rects += rects
}
