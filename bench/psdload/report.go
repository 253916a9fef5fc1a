package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"psd"
)

// metricValue is one reported metric. N and Beyond accompany percentiles:
// the sample count and the samples above the reported value.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

// runResult is one workload run as psdload reports it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64) {
	def, _ := findMetric(name)
	m[name] = metricValue{Value: v, Unit: def.Unit}
}

func (m metricSet) setPct(name string, p pct) {
	def, _ := findMetric(name)
	m[name] = metricValue{Value: p.Value, Unit: def.Unit, N: p.N, Beyond: p.Beyond}
}

// result assembles the run's metrics. A metric the run could not measure is
// a problem, and a run with any problem is not correct.
func (r *runner) result(replays []buildReplay) *runResult {
	m := metricSet{}
	if r.cfg.trace {
		r.perLayerMetrics(m, replays)
	} else {
		r.endToEndMetrics(m)
	}
	for _, def := range metricsFor(r.cfg.trace) {
		if v, ok := m[def.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.problem("metric %s has no finite value", def.Name)
			m[def.Name] = metricValue{Unit: def.Unit}
		}
	}
	return &runResult{
		Workload: r.cfg.spec.name, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: m, Problems: r.problems,
	}
}

func isRead(k opKind) bool   { return k != opIngest }
func isIngest(k opKind) bool { return k == opIngest }

// phasesWhere returns the phases pick selects, in run order: one per round
// for the repeated phases.
func (r *runner) phasesWhere(pick func(*phaseRun) bool) []*phaseRun {
	var out []*phaseRun
	for _, ph := range r.phases {
		if pick(ph) {
			out = append(out, ph)
		}
	}
	return out
}

func (r *runner) queryPhases() []*phaseRun {
	return r.phasesWhere(func(ph *phaseRun) bool { return ph.queryLatency })
}

func (r *runner) ingestPhases() []*phaseRun {
	return r.phasesWhere(func(ph *phaseRun) bool { return ph.ingestLatency })
}

func (r *runner) phasesNamed(name string) []*phaseRun {
	return r.phasesWhere(func(ph *phaseRun) bool { return ph.name == name })
}

// perPhase applies f to each phase.
func perPhase(phs []*phaseRun, f func(*phaseRun) []float64) [][]float64 {
	out := make([][]float64, len(phs))
	for i, ph := range phs {
		out[i] = f(ph)
	}
	return out
}

// roundPct is the q-quantile of a sample taken over several rounds (each
// ascending): the median of the rounds' own quantiles when every round has
// at least ten samples beyond its quantile, else the quantile of all rounds
// pooled. N and Beyond describe the pool either way.
func roundPct(perRound [][]float64, q float64) pct {
	var pooled, vals []float64
	each := len(perRound) > 0
	for _, s := range perRound {
		p := percentile(s, q)
		each = each && p.Beyond >= 10
		vals = append(vals, p.Value)
		pooled = append(pooled, s...)
	}
	slices.Sort(pooled)
	p := percentile(pooled, q)
	if each {
		p.Value = median(vals)
	}
	return p
}

// latencies returns, ascending and in µs, the ideal-timer latencies of the
// successful operations of ph that want selects.
func latencies(ph *phaseRun, want func(*opRecord) bool) []float64 {
	lat := idealLatency(ph.ts[:ph.n], conns)
	var out []float64
	for i := range ph.recs[:ph.n] {
		if rec := &ph.recs[i]; rec.ok && want(rec) {
			out = append(out, lat[i]/1e3)
		}
	}
	slices.Sort(out)
	return out
}

func ofKind(kind func(opKind) bool) func(*opRecord) bool {
	return func(rec *opRecord) bool { return kind(rec.kind) }
}

// work is what a successful operation accomplished: rectangles answered,
// or points acknowledged.
func work(rec *opRecord) int {
	switch {
	case !rec.ok:
		return 0
	case rec.kind == opIngest:
		return ingestBatch
	default:
		return rec.kind.rects()
	}
}

// rate is the work a closed-loop phase completed per second.
func rate(ph *phaseRun) float64 {
	done := 0
	for i := range ph.recs[:ph.n] {
		done += work(&ph.recs[i])
	}
	return float64(done) / (float64(ph.end-ph.start) / 1e9)
}

// windowRates splits a closed-loop phase into k equal windows and returns
// the work per second completed in each, by completion time.
func windowRates(ph *phaseRun, k int) []float64 {
	span := float64(ph.end - ph.start)
	done := make([]float64, k)
	for i := range ph.recs[:ph.n] {
		w := min(int(float64(ph.ts[i].end-ph.start)/span*float64(k)), k-1)
		done[w] += float64(work(&ph.recs[i]))
	}
	for w := range done {
		done[w] /= span / float64(k) / 1e9
	}
	return done
}

// eventsIn returns the successful publish cycles that started during ph.
func (r *runner) eventsIn(ph *phaseRun) []pubEvent {
	var out []pubEvent
	for _, ev := range r.events {
		if ev.err == nil && ev.start >= ph.start && ev.start <= ph.end {
			out = append(out, ev)
		}
	}
	return out
}

// measuredEvents returns the successful publish cycles of measured phases.
func (r *runner) measuredEvents() []pubEvent {
	var out []pubEvent
	for _, ph := range r.phases {
		if ph.measured() {
			out = append(out, r.eventsIn(ph)...)
		}
	}
	return out
}

// visibleMs is, per publish cycle of ph, the time from the Publish call to
// the first read answered by the new version: the publisher's probe, or an
// earlier read of the generator's own.
func (r *runner) visibleMs(ph *phaseRun) []float64 {
	var out []float64
	for _, ev := range r.eventsIn(ph) {
		first := ev.visible
		for i, rec := range ph.recs[:ph.n] {
			if end := ph.ts[i].end; rec.ok && rec.kind == opLive && int(rec.version) >= ev.version &&
				end >= ev.start && end < first {
				first = end
			}
		}
		out = append(out, float64(first-ev.start)/1e6)
	}
	return out
}

// queryLatencies and ackLatencies are the read and ingest latencies of each
// round.
func (r *runner) queryLatencies() [][]float64 {
	return perPhase(r.queryPhases(), func(ph *phaseRun) []float64 { return latencies(ph, ofKind(isRead)) })
}

func (r *runner) ackLatencies() [][]float64 {
	return perPhase(r.ingestPhases(), func(ph *phaseRun) []float64 { return latencies(ph, ofKind(isIngest)) })
}

// endToEndMetrics reports each metric as its median over the rounds, so
// a slowdown of the machine during part of a run moves one round only.
func (r *runner) endToEndMetrics(m metricSet) {
	m.set("setup_s", median(r.setupS))
	m.set("retained_mb", float64(r.retainedKiB)/1024)
	m.setPct("query_p50_us", roundPct(r.queryLatencies(), 0.50))
	var capacity []float64
	for _, ph := range r.phasesNamed("read-capacity") {
		capacity = append(capacity, rate(ph))
	}
	m.set("query_capacity_qps", median(capacity))
}

func (r *runner) perLayerMetrics(m metricSet, replays []buildReplay) {
	var lates []float64
	sent, backlog, ops := 0, 0, 0
	for _, ph := range r.phases {
		if !ph.measured() {
			continue
		}
		ops += ph.n
		if ph.closed {
			continue
		}
		sent += ph.n
		backlog = max(backlog, ph.backlog)
		for _, t := range ph.ts[:ph.n] {
			lates = append(lates, float64(t.late)/1e3)
		}
	}
	slices.Sort(lates)
	m.setPct("gen.late_p99_us", percentile(lates, 0.99))
	m.set("gen.backlog_max", float64(backlog))
	m.set("gen.sent", float64(sent))
	m.setPct("gen.query_p99_us", roundPct(r.queryLatencies(), 0.99))
	m.setPct("gen.ingest_ack_p50_us", roundPct(r.ackLatencies(), 0.50))
	m.setPct("gen.ingest_ack_p99_us", roundPct(r.ackLatencies(), 0.99))
	m.set("gen.ingest_capacity_pts", median(windowRates(r.phasesNamed("ingest-capacity")[0], rounds)))
	var visible []float64
	for _, ph := range r.ingestPhases() {
		visible = append(visible, r.visibleMs(ph)...)
	}
	m.setPct("gen.publish_visible_p50_ms", percentile(sortedCopy(visible), 0.50))

	r.requestLayerMetrics(m)

	m.set("cluster.retries", float64(r.proxyAfter[0]-r.proxyBefore[0]))
	m.set("cluster.failovers", float64(r.proxyAfter[1]-r.proxyBefore[1]))
	m.set("serve.cache_evictions", float64(r.evictions))
	var scans, publishMs []float64
	for _, ev := range r.measuredEvents() {
		for _, s := range ev.scans {
			scans = append(scans, float64(s.end-s.start)/1e6)
		}
		publishMs = append(publishMs, float64(ev.published-ev.start)/1e6)
	}
	m.setPct("serve.scan_ms_p50", percentile(sortedCopy(scans), 0.50))

	var traverse, tracedLat, untracedLat []float64
	hits, answered := 0, 0
	for _, qp := range r.queryPhases() {
		for _, rec := range qp.recs[:qp.n] {
			if rec.ok && isRead(rec.kind) {
				traverse = append(traverse, float64(rec.replayNs)/1e3)
				hits, answered = hits+int(rec.hits), answered+rec.kind.rects()
			}
		}
		tracedLat = append(tracedLat, latencies(qp, func(rec *opRecord) bool { return isRead(rec.kind) && rec.traced })...)
		untracedLat = append(untracedLat, latencies(qp, func(rec *opRecord) bool { return isRead(rec.kind) && !rec.traced })...)
	}
	m.set("serve.cache_hit_rate", float64(hits)/float64(max(answered, 1)))
	m.setPct("core.traverse_p50_us", percentile(sortedCopy(traverse), 0.50))
	rects := float64(max(r.oracle.rects, 1))
	m.set("core.nodes_visited_per_query", float64(r.oracle.stats.NodesVisited)/rects)
	m.set("core.nodes_added_per_query", float64(r.oracle.stats.NodesAdded)/rects)
	refs := []*refSlab{r.roadsRef}
	if !r.cfg.spec.static {
		refs = refs[:0]
		for _, ref := range r.liveRefs {
			refs = append(refs, ref)
		}
	}
	var opens, verifies []float64
	for _, ref := range refs {
		if ref == nil {
			continue // the oracle could not open it, already a problem
		}
		opens = append(opens, float64(ref.openNs)/1e6)
		verifies = append(verifies, float64(ref.verifyNs)/1e6)
	}
	m.set("core.open_ms", median(opens))
	m.set("core.verify_ms", median(verifies))

	var builds, encodes, others []float64
	var built uint64
	var buildNs int64
	for _, b := range replays {
		builds = append(builds, float64(b.buildNs)/1e6)
		encodes = append(encodes, float64(b.encodeNs)/1e6)
		others = append(others, b.publishMs-float64(b.buildNs+b.encodeNs)/1e6)
		built += b.points
		buildNs += b.buildNs
	}
	m.setPct("build.ms_p50", percentile(sortedCopy(builds), 0.50))
	m.set("build.points_per_s", float64(built)/(float64(buildNs)/1e9))
	m.setPct("build.encode_ms_p50", percentile(sortedCopy(encodes), 0.50))

	var appends []float64
	acked := 0
	for _, ip := range r.ingestPhases() {
		for i, rec := range ip.recs[:ip.n] {
			if rec.ok && rec.kind == opIngest {
				appends = append(appends, float64(ip.ts[i].end-ip.ts[i].send)/1e3)
				acked += ingestBatch
			}
		}
	}
	slices.Sort(appends)
	m.setPct("ingest.append_p50_us", percentile(appends, 0.50))
	m.setPct("ingest.append_p99_us", percentile(appends, 0.99))
	m.setPct("ingest.publish_ms_p50", percentile(sortedCopy(publishMs), 0.50))
	m.setPct("ingest.publish_other_ms_p50", percentile(sortedCopy(others), 0.50))
	m.set("ingest.wal_bytes_per_point", float64(r.ingestStats.WALBytes)/float64(r.ingestStats.Points))
	m.set("ingest.disk_write_bytes_per_point", float64(r.ingestWritten)/float64(acked))

	ops = max(ops, 1)
	m.set("proc.cpu_us_per_op", float64(r.after.cpuNs-r.before.cpuNs)/1e3/float64(ops))
	m.set("proc.alloc_bytes_per_op", float64(r.after.allocBytes-r.before.allocBytes)/float64(ops))
	m.set("proc.gc_cpu_frac", (r.after.gcCPU-r.before.gcCPU)/(r.after.totalCPU-r.before.totalCPU))

	t50, u50 := median(tracedLat), median(untracedLat)
	m.set("trace.overhead_pct", 100*(t50-u50)/u50)
}

// requestLayerMetrics splits the traced reads of the query phases into their
// layers: the client's hop to the proxy, the proxy's own time, the replica
// handler and, from the oracle's replay, the traversal inside it.
func (r *runner) requestLayerMetrics(m metricSet) {
	type handlers struct {
		proxy  []interval
		serves []interval
	}
	spans, dropped := r.tr.recorded()
	if dropped > 0 {
		r.problem("%d spans dropped: the span buffer is too small", dropped)
	}
	byRID := map[uint64]*handlers{}
	for _, s := range spans {
		h := byRID[s.RID]
		if h == nil {
			h = &handlers{}
			byRID[s.RID] = h
		}
		iv := interval{s.Start, s.End}
		switch spanLayer(s.ID >> 4 & 0xf) {
		case layerProxy:
			h.proxy = append(h.proxy, iv)
		case layerServe:
			h.serves = append(h.serves, iv)
		}
	}
	var hop, proxySelf, handler, serveSelf []float64
	for _, ph := range r.queryPhases() {
		for i, rec := range ph.recs[:ph.n] {
			h := byRID[ph.rid(i)]
			if !rec.traced || !rec.ok || !isRead(rec.kind) || h == nil || len(h.proxy) != 1 || len(h.serves) == 0 {
				continue
			}
			last := h.serves[len(h.serves)-1]
			hop = append(hop, float64(selfTime(interval{ph.ts[i].send, ph.ts[i].end}, h.proxy))/1e3)
			proxySelf = append(proxySelf, float64(selfTime(h.proxy[0], h.serves))/1e3)
			handler = append(handler, float64(last.end-last.start)/1e3)
			// The replica traversed only the rects its cache did not
			// answer; the replay traversed them all.
			rects := int64(rec.kind.rects())
			traversed := rec.replayNs * (rects - int64(rec.hits)) / rects
			serveSelf = append(serveSelf, float64(last.end-last.start-traversed)/1e3)
		}
	}
	slices.Sort(proxySelf)
	slices.Sort(handler)
	m.setPct("net.client_hop_p50_us", percentile(sortedCopy(hop), 0.50))
	m.setPct("cluster.self_p50_us", percentile(proxySelf, 0.50))
	m.setPct("cluster.self_p99_us", percentile(proxySelf, 0.99))
	m.setPct("serve.handler_p50_us", percentile(handler, 0.50))
	m.setPct("serve.handler_p99_us", percentile(handler, 0.99))
	m.setPct("serve.self_p50_us", percentile(sortedCopy(serveSelf), 0.50))
}

// buildReplay is one published version's build and encode, replayed after
// the run from the same points, seed and ε, timed in isolation.
type buildReplay struct {
	version           int
	points            uint64
	start             int64
	buildNs, encodeNs int64
	publishMs         float64 // the Publish call it stands in for
}

func (r *runner) replayBuilds() ([]buildReplay, error) {
	var out []buildReplay
	for _, ev := range r.measuredEvents() {
		if ev.points > uint64(len(r.walPoints)) {
			return nil, fmt.Errorf("live@v%d covers %d points, only %d were recorded", ev.version, ev.points, len(r.walPoints))
		}
		opts := liveOptions
		opts.Seed, opts.Epsilon = r.cfg.seed+int64(ev.version), liveEpochEps
		b := buildReplay{version: ev.version, points: ev.points, start: r.clk.now(),
			publishMs: float64(ev.published-ev.start) / 1e6}
		tree, err := psd.Build(r.walPoints[:ev.points], r.in.domain, opts)
		if err != nil {
			return nil, err
		}
		built := r.clk.now()
		if err := tree.WriteBinaryV3Release(io.Discard); err != nil {
			return nil, err
		}
		b.buildNs, b.encodeNs = built-b.start, r.clk.now()-built
		out = append(out, b)
	}
	return out, nil
}

// eventRID is the request id of the publish cycle of live@vN.
func eventRID(v int) uint64 { return 1<<48 | uint64(v) }

// allSpans returns every span of the run: those the fleet's handlers
// recorded, and those derived from the generator's and the publisher's own
// timings and from the replays.
func (r *runner) allSpans(replays []buildReplay) []span {
	recorded, _ := r.tr.recorded()
	out := slices.Clone(recorded)
	for _, ph := range r.phases {
		for i, rec := range ph.recs[:ph.n] {
			if !rec.traced {
				continue
			}
			rid, t := ph.rid(i), ph.ts[i]
			if rec.kind == opIngest {
				out = append(out, newSpan(rid, layerAppend, 0, 0, t.send, t.end))
				continue
			}
			out = append(out, newSpan(rid, layerClient, 0, 0, t.send, t.end))
			if rec.ok {
				out = append(out, newSpan(rid, layerCore, 0, layerServe, rec.replayStart, rec.replayStart+rec.replayNs))
			}
		}
	}
	for _, ev := range r.events {
		if ev.err != nil {
			continue
		}
		rid := eventRID(ev.version)
		out = append(out, newSpan(rid, layerCycle, 0, 0, ev.start, ev.visible),
			newSpan(rid, layerPublish, 0, layerCycle, ev.start, ev.published))
		for k, s := range ev.scans {
			out = append(out, newSpan(rid, layerScan, k, layerCycle, s.start, s.end))
		}
	}
	for _, b := range replays {
		rid := eventRID(b.version)
		out = append(out, newSpan(rid, layerBuild, 0, layerPublish, b.start, b.start+b.buildNs),
			newSpan(rid, layerEncode, 0, layerPublish, b.start+b.buildNs, b.start+b.buildNs+b.encodeNs))
	}
	return out
}
