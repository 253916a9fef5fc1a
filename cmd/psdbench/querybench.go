package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/eval"
	"psd/internal/serve"
	"psd/internal/workload"
)

// queryReport is the machine-readable query-side performance snapshot
// `psdbench query-bench` writes (BENCH_query.json by default): the serving
// hot paths of the slab query engine — single query, the node-major batch
// engine, artifact open, and the in-process serve.Release count paths —
// pinned as committed numbers.
type queryReport struct {
	Schema    int        `json:"schema"`
	GoVersion string     `json:"go_version"`
	CPUs      int        `json:"cpus"`
	Scale     string     `json:"scale"`
	Points    int        `json:"points"`
	UnixTime  int64      `json:"unix_time"`
	Rows      []queryRow `json:"rows"`
}

// queryRow is one measured configuration.
type queryRow struct {
	// Name is "<op>/<case>/<engine>[/par=<n>]".
	Name string `json:"name"`
	// Op is "query", "batch", "open", "verify", "encode", "servecount" or
	// "servebatch".
	Op string `json:"op"`
	// Engine is "slab" (query and servecount rows), "perquery" or
	// "nodemajor" (batch rows), "json", "binary" or "mmap" (how open and
	// verify rows read the artifact), or "v3" (the format encode rows
	// write).
	Engine string `json:"engine"`
	// Parallelism is the worker bound (batch rows; 0 = one per core).
	Parallelism int `json:"parallelism,omitempty"`
	// NsPerOp is wall time per operation (one query, one batch, one open).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from the Go benchmark framework. The
	// acceptance bar for single-query rows is 0 allocs/op.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// QueriesPerSec is batch throughput (batch and servebatch rows).
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	// ArtifactBytes is the serialized size (open, verify and encode rows).
	ArtifactBytes int `json:"artifact_bytes,omitempty"`
	// SpeedupVsJSON is json-ns / this-ns (binary open rows).
	SpeedupVsJSON float64 `json:"speedup_vs_json,omitempty"`
	// SpeedupVsPerQuery is perquery-ns / this-ns on the matching
	// per-query slab row (nodemajor batch rows): the node-major batch
	// engine's acceptance ratio, >= 2x required at batch >= 1k.
	SpeedupVsPerQuery float64 `json:"speedup_vs_perquery,omitempty"`
	// HeapDeltaBytes and RSSDeltaBytes are the steady-state memory grown by
	// holding the opened slab and serving a query sweep from it (large open
	// rows): Go heap in use, and the process's resident set (Linux; 0 where
	// /proc is unavailable). The mmap rows count only the pages the sweep
	// faulted in — and those are page-cache pages shared across replicas —
	// where the decode rows pay the full private copy.
	HeapDeltaBytes int64 `json:"heap_delta_bytes,omitempty"`
	RSSDeltaBytes  int64 `json:"rss_delta_bytes,omitempty"`
}

// benchNs runs fn under testing.Benchmark and returns the per-op numbers.
func benchNs(fn func(b *testing.B)) (ns float64, allocs, bytes int64) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return float64(res.NsPerOp()), res.AllocsPerOp(), res.AllocedBytesPerOp()
}

// runQueryBench measures the query/serving hot paths and writes the report.
// The open rows use the committed golden quadtree fixture (testdataDir), so
// the measured artifact is the exact one CI serves end-to-end.
func runQueryBench(env *eval.Env, scale eval.Scale, testdataDir, outPath string) error {
	report := queryReport{
		Schema:    1,
		GoVersion: runtime.Version(),
		CPUs:      runtime.GOMAXPROCS(0),
		Scale:     scale.Name,
		Points:    len(env.Data.Points),
		UnixTime:  time.Now().Unix(),
	}

	// The acceptance configuration: the kd h=8 build of BuildBenchConfigs,
	// queried with the paper's 10%×10% workload.
	tree, err := psd.Build(env.Data.Points, env.Data.Domain, psd.Options{
		Kind: psd.KDTree, Height: 8, Epsilon: 0.5, Seed: 1,
	})
	if err != nil {
		return err
	}
	slab := tree.Seal()
	qs, err := env.Queries(workload.QueryShape{W: 10, H: 10})
	if err != nil {
		return err
	}
	small, err := env.Queries(workload.QueryShape{W: 1, H: 1})
	if err != nil {
		return err
	}
	d := env.Data.Domain
	large := psd.NewRect(
		d.Lo.X+0.05*d.Width(), d.Lo.Y+0.05*d.Height(),
		d.Lo.X+0.95*d.Width(), d.Lo.Y+0.95*d.Height(),
	)

	emit := func(row queryRow) {
		report.Rows = append(report.Rows, row)
		extra := ""
		if row.SpeedupVsJSON > 0 {
			extra = fmt.Sprintf("  %.2fx vs json", row.SpeedupVsJSON)
		}
		if row.SpeedupVsPerQuery > 0 {
			extra = fmt.Sprintf("  %.2fx vs perquery", row.SpeedupVsPerQuery)
		}
		fmt.Printf("%-36s %12.0f ns/op %6d allocs/op%s\n", row.Name, row.NsPerOp, row.AllocsPerOp, extra)
	}

	// Single-query latency, small and large rects. Allocs must be 0: the DFS
	// stacks are pooled.
	queryCases := []struct {
		name  string
		rects []psd.Rect
	}{
		{"small", small.Rects},
		{"large", []psd.Rect{large}},
	}
	for _, qc := range queryCases {
		rects := qc.rects
		slabNs, slabAllocs, slabBytes := benchNs(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = slab.Count(rects[i%len(rects)])
			}
		})
		emit(queryRow{
			Name: "query/" + qc.name + "/slab", Op: "query", Engine: "slab",
			NsPerOp: slabNs, AllocsPerOp: slabAllocs, BytesPerOp: slabBytes,
		})
	}

	// Node-major batch engine vs the per-query slab loop — the tentpole
	// comparison of the batch-engine PR. The batches are unique 10%×10%
	// queries (no repeats: repeats overstate locality), answered on the
	// same kd h=8 slab two ways: one DFS per query (the PR 3 serving
	// path, the committed per-query slab baseline) and one node-major
	// pass. par=1 isolates the engines on a single core; par=0 lets the
	// batch engine shard across the machine. The acceptance bar is >= 2x
	// at batch >= 1k.
	uniq, err := workload.GenQueries(env.Index, workload.QueryShape{W: 10, H: 10},
		4096, scale.Seed^0xba7c4)
	if err != nil {
		return err
	}
	// Alongside the acceptance kd slab, the adaptive privtree h=8 slab —
	// mostly unpublished interior behind pruned adaptive leaves — tracks the
	// batch engine's bitset-heavy path, which fixed-height trees never
	// exercise at depth. One size and par=1 keep its runtime negligible.
	ptree, err := psd.Build(env.Data.Points, env.Data.Domain, psd.Options{
		Kind: psd.PrivTreeKind, Height: 8, Epsilon: 0.5, Seed: 1,
	})
	if err != nil {
		return err
	}
	batchAxes := []struct {
		label string
		slab  *psd.Slab
		sizes []int
		pars  []int
	}{
		{"kd-h8", slab, []int{256, 1024, 4096}, []int{1, 0}},
		{"privtree-h8", ptree.Seal(), []int{1024}, []int{1}},
	}
	for _, ax := range batchAxes {
		for _, size := range ax.sizes {
			bqs := uniq.Rects[:size]
			out := make([]float64, size)
			perNs, perAllocs, perBytes := benchNs(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, q := range bqs {
						out[j] = ax.slab.Count(q)
					}
				}
			})
			emit(queryRow{
				Name: fmt.Sprintf("batch/%s-n%d/perquery", ax.label, size),
				Op:   "batch", Engine: "perquery", Parallelism: 1,
				NsPerOp: perNs, AllocsPerOp: perAllocs, BytesPerOp: perBytes,
				QueriesPerSec: float64(size) * 1e9 / perNs,
			})
			for _, par := range ax.pars {
				par := par
				ax.slab.CountBatchIntoWorkers(out, bqs, par) // warm the pools
				nmNs, nmAllocs, nmBytes := benchNs(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ax.slab.CountBatchIntoWorkers(out, bqs, par)
					}
				})
				emit(queryRow{
					Name: fmt.Sprintf("batch/%s-n%d/nodemajor/par=%d", ax.label, size, par),
					Op:   "batch", Engine: "nodemajor", Parallelism: par,
					NsPerOp: nmNs, AllocsPerOp: nmAllocs, BytesPerOp: nmBytes,
					QueriesPerSec:     float64(size) * 1e9 / nmNs,
					SpeedupVsPerQuery: perNs / nmNs,
				})
			}
		}
	}

	// Artifact open into the serving form: the committed golden quadtree
	// release as JSON and as binary v2, the columnar encoding OpenSlab
	// decodes (the v3 row follows on a large artifact, where mmap matters).
	jsonBytes, err := os.ReadFile(filepath.Join(testdataDir, "release_quadtree.json"))
	if err != nil {
		return fmt.Errorf("query-bench needs the golden fixtures (run from the repo root, or pass -testdata): %w", err)
	}
	binBytes, err := os.ReadFile(filepath.Join(testdataDir, "release_quadtree.bin"))
	if err != nil {
		return err
	}
	jsonNs, jsonAllocs, jsonAlloced := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := psd.OpenSlab(bytes.NewReader(jsonBytes)); err != nil {
				b.Fatal(err)
			}
		}
	})
	emit(queryRow{
		Name: "open/golden-quadtree/json", Op: "open", Engine: "json",
		NsPerOp: jsonNs, AllocsPerOp: jsonAllocs, BytesPerOp: jsonAlloced,
		ArtifactBytes: len(jsonBytes),
	})
	binNs, binAllocs, binAlloced := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := psd.OpenSlab(bytes.NewReader(binBytes)); err != nil {
				b.Fatal(err)
			}
		}
	})
	emit(queryRow{
		Name: "open/golden-quadtree/binary", Op: "open", Engine: "binary",
		NsPerOp: binNs, AllocsPerOp: binAllocs, BytesPerOp: binAlloced,
		ArtifactBytes: len(binBytes),
		SpeedupVsJSON: jsonNs / binNs,
	})

	// Large-artifact open: an h=10 quadtree (1.4M nodes, ~56MB as v3) of
	// the same data, written to a real file and opened the way a serving
	// replica would: OpenSlabFile's zero-copy path — mmap plus header/bitset
	// validation, node pages left on disk — so its latency is independent of
	// artifact size.
	big, err := psd.Build(env.Data.Points, env.Data.Domain, psd.Options{
		Kind: psd.QuadtreeKind, Height: 10, Epsilon: 0.5, Seed: 1,
	})
	if err != nil {
		return err
	}
	bigDir, err := os.MkdirTemp("", "psdbench-open")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bigDir)
	v3Path := filepath.Join(bigDir, "big_v3.bin")
	if err := writeToFile(v3Path, big.WriteBinaryV3Release); err != nil {
		return err
	}
	// The residency sweep is the 1%x1% workload: a serving replica's hot
	// set touches a sliver of a deep tree, which is exactly the case the
	// on-demand page faulting exists for — residency is proportional to the
	// pages the workload actually visits.
	v3Heap, v3RSS, err := measureResident(func() (*psd.Slab, error) { return psd.OpenSlabFile(v3Path) }, small.Rects)
	if err != nil {
		return err
	}
	v3Ns, v3OpenAllocs, v3OpenBytes := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := psd.OpenSlabFile(v3Path)
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
	emit(queryRow{
		Name: "open/quadtree-h10/mmap-v3", Op: "open", Engine: "mmap",
		NsPerOp: v3Ns, AllocsPerOp: v3OpenAllocs, BytesPerOp: v3OpenBytes,
		ArtifactBytes:  int(fileSize(v3Path)),
		HeapDeltaBytes: v3Heap, RSSDeltaBytes: v3RSS,
	})

	// The two full-body passes a published release costs before it serves:
	// the writer streaming the h=10 artifact (records encoded and
	// checksummed, to io.Discard so no disk time is counted) and a
	// replica's Slab.Verify of its mapping (checksum plus per-node checks).
	encNs, encAllocs, encBytes := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := big.WriteBinaryV3Release(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	emit(queryRow{
		Name: "encode/quadtree-h10/v3", Op: "encode", Engine: "v3",
		NsPerOp: encNs, AllocsPerOp: encAllocs, BytesPerOp: encBytes,
		ArtifactBytes: int(fileSize(v3Path)),
	})
	mapped, err := psd.OpenSlabFile(v3Path)
	if err != nil {
		return err
	}
	verNs, verAllocs, verBytes := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := mapped.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	mapped.Close()
	emit(queryRow{
		Name: "verify/quadtree-h10/mmap-v3", Op: "verify", Engine: "mmap",
		NsPerOp: verNs, AllocsPerOp: verAllocs, BytesPerOp: verBytes,
		ArtifactBytes: int(fileSize(v3Path)),
	})

	// The batch-cold load on the deep tree: 128-rect batches of the paper's
	// three shapes (1°×1°, 10°×10°, 15°×0.2°, a third each) over the same
	// h=10 quadtree, whose 56MB of records exceed the private caches. The
	// iterations rotate through 64 distinct batches, so none is answered
	// warm. Lists thin out below the top levels, so this row is dominated
	// by the per-query walk; par=2 is the sharding /batch gets on an
	// otherwise idle 2-core replica.
	if err := deepBatchRows(env, big.Seal(), scale.Seed, emit); err != nil {
		return err
	}

	// serve.Release.CountCtx with the cache off: the handler-level hot path
	// must not allocate either.
	reg := serve.NewRegistry(0)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		return err
	}
	rel, err := reg.Register("bench", "bench", bytes.NewReader(artifact.Bytes()))
	if err != nil {
		return err
	}
	ctx := context.Background()
	q := qs.Rects[0]
	rel.CountCtx(ctx, q)
	srvNs, srvAllocs, srvBytes := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel.CountCtx(ctx, q)
		}
	})
	emit(queryRow{
		Name: "servecount/nocache/slab", Op: "servecount", Engine: "slab",
		NsPerOp: srvNs, AllocsPerOp: srvAllocs, BytesPerOp: srvBytes,
	})

	// serve.Release.CountBatchIntoCtx with the cache off: the /batch handler's
	// engine call on a saturated replica, where it runs one worker. Every
	// rectangle is a miss, so the whole batch runs through one single-worker
	// node-major call per request; the acceptance bar is 0 allocs/op
	// steady-state (cache-miss insertions excluded — caching is off, so
	// none happen).
	srvBatch := uniq.Rects[:256]
	srvVals := make([]float64, len(srvBatch))
	rel.CountBatchIntoCtx(ctx, srvVals, srvBatch, 1) // warm the pools
	sbNs, sbAllocs, sbBytes := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel.CountBatchIntoCtx(ctx, srvVals, srvBatch, 1)
		}
	})
	emit(queryRow{
		Name: "servebatch/nocache-n256/nodemajor", Op: "servebatch", Engine: "nodemajor",
		NsPerOp: sbNs, AllocsPerOp: sbAllocs, BytesPerOp: sbBytes,
		QueriesPerSec: float64(len(srvBatch)) * 1e9 / sbNs,
	})

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := atomicfile.Write(outPath, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return err
	}
	fmt.Printf("# wrote %s (%d rows)\n", outPath, len(report.Rows))
	return nil
}

// deepBatchRows emits the batch/quadtree-h10-paper-n128 rows: per-query
// walks, then the node-major engine at one and two workers, over 64
// rotating batches of 128 paper-shape rects.
func deepBatchRows(env *eval.Env, slab *psd.Slab, seed int64, emit func(queryRow)) error {
	const size, pool = 128, 64
	shapes := []workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}, {W: 15, H: 0.2}}
	perShape := make([][]psd.Rect, len(shapes))
	for i, shape := range shapes {
		qs, err := workload.GenQueries(env.Index, shape, size*pool/len(shapes)+1, seed^0xdeeb^int64(i))
		if err != nil {
			return err
		}
		perShape[i] = qs.Rects
	}
	batches := make([][]psd.Rect, pool)
	for b := range batches {
		batches[b] = make([]psd.Rect, size)
		for j := range batches[b] {
			k := b*size + j
			batches[b][j] = perShape[k%len(shapes)][k/len(shapes)]
		}
	}
	out := make([]float64, size)
	perNs, perAllocs, perBytes := benchNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, q := range batches[i%pool] {
				out[j] = slab.Count(q)
			}
		}
	})
	emit(queryRow{
		Name: fmt.Sprintf("batch/quadtree-h10-paper-n%d/perquery", size),
		Op:   "batch", Engine: "perquery", Parallelism: 1,
		NsPerOp: perNs, AllocsPerOp: perAllocs, BytesPerOp: perBytes,
		QueriesPerSec: size * 1e9 / perNs,
	})
	for _, par := range []int{1, 2} {
		slab.CountBatchIntoWorkers(out, batches[0], par) // warm the pools
		nmNs, nmAllocs, nmBytes := benchNs(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				slab.CountBatchIntoWorkers(out, batches[i%pool], par)
			}
		})
		emit(queryRow{
			Name: fmt.Sprintf("batch/quadtree-h10-paper-n%d/nodemajor/par=%d", size, par),
			Op:   "batch", Engine: "nodemajor", Parallelism: par,
			NsPerOp: nmNs, AllocsPerOp: nmAllocs, BytesPerOp: nmBytes,
			QueriesPerSec:     size * 1e9 / nmNs,
			SpeedupVsPerQuery: perNs / nmNs,
		})
	}
	return nil
}

// writeToFile streams write into a fresh file at path, through the
// fsync-before-rename seam so a crashed bench never leaves a torn artifact
// for a later comparison run to mis-measure.
func writeToFile(path string, write func(io.Writer) error) error {
	_, err := atomicfile.Write(path, write)
	return err
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// measureResident opens one artifact, serves a query sweep from it, and
// reports the steady-state Go-heap and RSS growth while the slab is held —
// the per-replica memory cost of keeping that release loaded. The slab is
// closed (and its mapping released) before returning.
func measureResident(open func() (*psd.Slab, error), sweep []psd.Rect) (heapDelta, rssDelta int64, err error) {
	// FreeOSMemory (GC + scavenge) pins both readings to live memory:
	// without it, heap freed by earlier measurements but not yet returned
	// to the OS skews the RSS baseline. It only releases unused spans, so
	// the held slab's cost is fully visible in the second reading.
	debug.FreeOSMemory()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss0 := readRSS()
	slab, err := open()
	if err != nil {
		return 0, 0, err
	}
	for _, q := range sweep {
		slab.Count(q)
	}
	debug.FreeOSMemory()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rss1 := readRSS()
	heapDelta = int64(m1.HeapInuse) - int64(m0.HeapInuse)
	rssDelta = rss1 - rss0
	slab.Close()
	return heapDelta, rssDelta, nil
}

// readRSS returns the process's resident set in bytes (Linux /proc; 0
// where unavailable — the heap delta still carries the comparison).
func readRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}
