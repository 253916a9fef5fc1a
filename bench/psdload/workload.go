package main

import (
	"math/rand/v2"
	"time"

	"psd"
	"psd/internal/workload"
)

// Sizes shared by every workload.
const (
	// datasetPoints is the RoadNetwork size: a tenth of the paper's TIGER
	// cardinality, the scale the repository's quick experiments use.
	datasetPoints = 163_000
	// conns is the number of generator connections (and worker goroutines):
	// one per core of the 2-vCPU machine the benchmark was sized on.
	conns = 2
	// replicas is the number of serve.API replicas behind the proxy.
	replicas = 2
	// poolSize is the number of distinct rectangles a Zipf read stream draws
	// from; it fits psdserve's default cache, so a hot stream mostly hits.
	poolSize = 8192
	// zipfS is the Zipf exponent of the read streams.
	zipfS = 1.1
	// batchRects is the size of one batch-cold request; smaller batches
	// than 256 give the open-loop phase more samples within the run length.
	batchRects = 128
	// ingestBatch is the points per ingest call; ingestRate the open-loop
	// ingest calls per second.
	ingestBatch = 100
	ingestRate  = 200
	// cacheEntries is psdserve's default -cache.
	cacheEntries = 1 << 16
	// rounds is how many times a run repeats its timed phases. Metrics are
	// medians over rounds, so a slowdown of the machine that lasts part of
	// a run moves one round, not the result.
	rounds = 5
)

// opKind is what one generator operation does.
type opKind uint8

const (
	opHot    opKind = iota // GET /count on "roads", Zipf over the hot pool
	opBatch                // POST /batch of never-repeating rects on "roads"
	opLive                 // GET /count on "live", Zipf over the live pool
	opIngest               // Ingester.Ingest of one batch of points
)

// rects is the number of rectangles one read of this kind answers.
func (k opKind) rects() int {
	if k == opBatch {
		return batchRects
	}
	return 1
}

// workloadSpec is one traffic mix. BENCHMARK.json and bench/README.md say
// why each exists; in short, point-hot is cache hits behind the proxy,
// batch-cold is traversal with the cache bypassed, and ingest-live is
// publishing and reading at once.
type workloadSpec struct {
	name string
	// static serves the h=10 quadtree "roads" release the reads query.
	static   bool
	read     opKind
	readRate float64 // open-loop reads per second
	// mixed runs the ingest stream alongside the reads in one schedule;
	// otherwise only a traced run ingests, in a phase after the reads.
	mixed bool
}

var workloads = []workloadSpec{
	{name: "point-hot", static: true, read: opHot, readRate: 3000},
	// batch-cold's rate keeps the two connections about a third busy, so
	// its latency is mostly service time, not queueing, which would amplify
	// every change of the host's speed.
	{name: "batch-cold", static: true, read: opBatch, readRate: 40},
	{name: "ingest-live", read: opLive, readRate: 1000, mixed: true},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// phase is one stretch of a run. Open-loop phases follow a Poisson schedule
// of reads and ingests; closed-loop phases keep both connections busy with
// one kind of operation to find its capacity.
type phase struct {
	name string
	// share is the phase's part of the measured seconds; the warm-up has
	// none and is not measured.
	share  float64
	closed bool
	// Open loop: operations per second of each stream. Closed loop: the
	// workers ingest when writes > 0 and read otherwise.
	reads, writes float64
	// publish runs the publisher on the count cadence during the phase.
	publish bool
	// queryLatency and ingestLatency mark the phases whose samples give the
	// read and the ingest / publish latencies.
	queryLatency, ingestLatency bool
}

func (p phase) measured() bool { return p.share > 0 }

// phases lists a run: a warm-up, then `rounds` repetitions of an open-loop
// phase and a closed-loop read phase, which give the end-to-end metrics.
//
// A traced run reports every per-layer metric, the write path's included,
// so it then adds an open-loop ingest phase on the static workloads (with
// no reads running, so their read phases stay free of builds) and a
// closed-loop ingest phase on every workload. The last one is not repeated
// because it acknowledges far more points than the open loop; publishing
// them would change every later build.
func (w *workloadSpec) phases(trace bool) []phase {
	open := phase{name: "reads", reads: w.readRate}
	if w.mixed {
		open = phase{name: "mixed", reads: w.readRate, writes: ingestRate, publish: true}
	}
	warmup := open
	warmup.name = "warmup"
	out := []phase{warmup}
	for range rounds {
		timed := open
		timed.share, timed.queryLatency, timed.ingestLatency = 0.85/rounds, true, w.mixed
		out = append(out, timed, phase{name: "read-capacity", share: 0.15 / rounds, closed: true})
	}
	if !trace {
		return out
	}
	if !w.mixed {
		out = append(out, phase{name: "ingest", share: 0.15, writes: ingestRate, publish: true, ingestLatency: true})
	}
	return append(out, phase{name: "ingest-capacity", share: 0.10, closed: true, writes: 1})
}

// duration is how long the phase runs when a run measures `seconds`.
func (p phase) duration(seconds float64) time.Duration {
	s := p.share * seconds
	if !p.measured() {
		s = min(max(seconds/8, 0.25), 5) // warm-up
	}
	return time.Duration(s * float64(time.Second))
}

// The paper's query shapes in degrees of the TIGER domain (§8): small
// squares, large squares and long thin strips.
var (
	shapeSmall  = workload.QueryShape{W: 1, H: 1}
	shapeLarge  = workload.QueryShape{W: 10, H: 10}
	shapeStrip  = workload.QueryShape{W: 15, H: 0.2}
	paperShapes = []workload.QueryShape{shapeSmall, shapeLarge, shapeStrip}
)

// inputs are everything a run sends, derived from the seed alone.
type inputs struct {
	seed   int64
	domain psd.Rect
	// points is the RoadNetwork dataset: the "roads" release is built over
	// it and the ingest stream cycles through it.
	points []psd.Point
	hot    []psd.Rect // opHot pool: small squares
	live   []psd.Rect // opLive pool: small and large squares, alternating
}

func makeInputs(seed int64, n int) *inputs {
	ds := workload.RoadNetwork(workload.RoadNetworkConfig{N: n, Seed: seed})
	in := &inputs{seed: seed, domain: ds.Domain, points: ds.Points,
		hot: make([]psd.Rect, poolSize), live: make([]psd.Rect, poolSize)}
	rng := in.rng(0, 0)
	for i := range in.hot {
		in.hot[i] = randomRect(rng, in.domain, shapeSmall)
	}
	for i := range in.live {
		in.live[i] = randomRect(rng, in.domain, paperShapes[i%2])
	}
	return in
}

// rng is the deterministic stream for one use of the seed: stream 0 makes
// the pools, the others are keyed by phase and purpose.
func (in *inputs) rng(phase, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(in.seed), phase<<32|purpose))
}

func randomRect(rng *rand.Rand, dom psd.Rect, s workload.QueryShape) psd.Rect {
	x := dom.Lo.X + rng.Float64()*(dom.Width()-s.W)
	y := dom.Lo.Y + rng.Float64()*(dom.Height()-s.H)
	return psd.Rect{Lo: psd.Point{X: x, Y: y}, Hi: psd.Point{X: x + s.W, Y: y + s.H}}
}

// cadence is the ingest stream's count cadence: a version is published
// each time an eighth of the dataset's size has arrived since the latest
// one (20,375 points at full size). The first eighth is ingested and
// published as live@v1 during set-up, so readers of "live" have a release
// from the start.
func (in *inputs) cadence() int { return len(in.points) / 8 }

// zipfArgs draws n pool indexes, Zipf-distributed, for phase p.
func (in *inputs) zipfArgs(p, n int) []int32 {
	z := rand.NewZipf(in.rng(uint64(p)+1, 1), zipfS, 1, poolSize-1)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// batchRects fills dst with the rectangles of batch i of phase p: a third
// of each paper shape, new for every batch, so the cache never hits.
func (in *inputs) batchRects(p, i int, dst []psd.Rect) {
	rng := in.rng(uint64(p)+1, uint64(i)+2)
	for j := range dst {
		dst[j] = randomRect(rng, in.domain, paperShapes[j%len(paperShapes)])
	}
}

// ingestPoints fills dst with the points of ingest i of phase p, a window
// of the dataset.
func (in *inputs) ingestPoints(p, i int, dst []psd.Point) {
	off := (p*7919 + i*len(dst)) % len(in.points)
	for j := range dst {
		dst[j] = in.points[(off+j)%len(in.points)]
	}
}
