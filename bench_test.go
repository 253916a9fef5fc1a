package psd

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section 8). Each bench regenerates the corresponding rows via the
// internal/eval harness at QuickScale (163K points, 60 queries/shape) so
// `go test -bench=.` completes in minutes; the cmd/psdbench tool runs the
// same code at the full paper scale (see the README's Benchmarks section).
// Headline numbers are attached to the benchmark output via b.ReportMetric.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"psd/internal/budget"
	"psd/internal/eval"
	"psd/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *eval.Env
	benchEnvErr  error
)

func quickEnv(b *testing.B) *eval.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := eval.QuickScale
		scale.Reps = 1 // one tree per configuration; queries pool the noise
		benchEnv, benchEnvErr = eval.NewEnv(scale)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkFigure2 regenerates Figure 2: closed-form worst-case Err(Q) for
// the uniform vs geometric budget strategies, h = 5..10.
func BenchmarkFigure2(b *testing.B) {
	var rows []budget.Figure2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = budget.Figure2(5, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Uniform, "uniform_h10")
	b.ReportMetric(last.Geometric, "geometric_h10")
}

// BenchmarkFigure3 regenerates Figure 3: quadtree optimizations
// (quad-baseline / quad-geo / quad-post / quad-opt) across query shapes at
// ε = 0.1 (the paper's hardest privacy setting, Figure 3a).
func BenchmarkFigure3(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure3(env, 8, []float64{0.1}, workload.PaperShapes)
		if err != nil {
			b.Fatal(err)
		}
		var base, opt float64
		for _, r := range rows {
			base += r.Baseline
			opt += r.Opt
		}
		b.ReportMetric(base/float64(len(rows)), "baseline_relerr_pct")
		b.ReportMetric(opt/float64(len(rows)), "opt_relerr_pct")
	}
}

// BenchmarkFigure4Quality regenerates Figure 4(a): per-depth rank error of
// the six private median methods.
func BenchmarkFigure4Quality(b *testing.B) {
	cfg := eval.PaperFigure4
	cfg.Values = 1 << 16 // quick scale; psdbench -paper uses 2^20
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "EM" && r.Depth == 0 {
				b.ReportMetric(r.RankErr, "em_root_rankerr_pct")
			}
			if r.Method == "NM" && r.Depth == cfg.Depths-1 {
				b.ReportMetric(r.RankErr, "nm_deep_rankerr_pct")
			}
		}
	}
}

// BenchmarkFigure4Time regenerates Figure 4(b): median-finding time. The
// benchmark's own ns/op is the figure's aggregate; per-method totals are
// reported as metrics (milliseconds).
func BenchmarkFigure4Time(b *testing.B) {
	cfg := eval.PaperFigure4
	cfg.Values = 1 << 16
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		totals := map[string]float64{}
		for _, r := range rows {
			totals[r.Method] += float64(r.Time.Milliseconds())
		}
		b.ReportMetric(totals["EM"], "em_total_ms")
		b.ReportMetric(totals["SS"], "ss_total_ms")
		b.ReportMetric(totals["EMs"], "ems_total_ms")
		b.ReportMetric(totals["SSs"], "sss_total_ms")
	}
}

// BenchmarkFigure5 regenerates Figure 5: the kd-tree family (kd-pure,
// kd-true, kd-standard, kd-hybrid, kd-cell, kd-noisymean) at ε = 0.5.
func BenchmarkFigure5(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}, {W: 15, H: 0.2}}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure5(env, 6, []float64{0.5}, shapes)
		if err != nil {
			b.Fatal(err)
		}
		var hybrid, noisymean float64
		for _, r := range rows {
			hybrid += r.Errors["kd-hybrid"]
			noisymean += r.Errors["kd-noisymean"]
		}
		b.ReportMetric(hybrid/float64(len(rows)), "kdhybrid_relerr_pct")
		b.ReportMetric(noisymean/float64(len(rows)), "kdnoisymean_relerr_pct")
	}
}

// BenchmarkFigure6 regenerates Figure 6: accuracy vs tree height for the
// representative methods at ε = 0.5.
func BenchmarkFigure6(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}, {W: 15, H: 0.2}}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure6(env, []int{5, 6, 7, 8}, 0.5, shapes)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Errors["quad-opt"], "quadopt_h8_relerr_pct")
		b.ReportMetric(last.Errors["kd-hybrid"], "kdhybrid_h8_relerr_pct")
	}
}

// BenchmarkFigure7Build regenerates Figure 7(a): construction time per
// method. Times are reported in milliseconds.
func BenchmarkFigure7Build(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure7a(env, 6, 8, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Method {
			case "quadtree":
				b.ReportMetric(float64(r.Build.Milliseconds()), "quad_build_ms")
			case "kd-hybrid":
				b.ReportMetric(float64(r.Build.Milliseconds()), "kdhybrid_build_ms")
			case "hilbert-r":
				b.ReportMetric(float64(r.Build.Milliseconds()), "hilbertr_build_ms")
			case "kd-cell":
				b.ReportMetric(float64(r.Build.Milliseconds()), "kdcell_build_ms")
			}
		}
	}
}

// BenchmarkFigure7Matching regenerates Figure 7(b): record-matching
// reduction ratio vs ε for the three blocking methods.
func BenchmarkFigure7Matching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure7b(
			eval.Figure7bConfig{PartySize: 4000, Height: 5, Reps: 2, Seed: 17},
			[]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Ratios["kd-standard"], "kdstandard_rr_eps05")
		b.ReportMetric(last.Ratios["kd-noisymean"], "kdnoisymean_rr_eps05")
		b.ReportMetric(last.Ratios["quad-baseline"], "quadbaseline_rr_eps05")
	}
}

// BenchmarkGridBaseline regenerates the Section 1 motivation: flat
// fine-grid [6] vs the optimized quadtree.
func BenchmarkGridBaseline(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 10, H: 10}}
	for i := 0; i < b.N; i++ {
		rows, err := eval.GridBaseline(env, 1024, 8, 0.5, shapes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GridErr, "grid_relerr_pct")
		b.ReportMetric(rows[0].QuadErr, "quadopt_relerr_pct")
	}
}

// BenchmarkAblationSwitchLevel sweeps the hybrid tree's switch level
// (Section 8.2: "switching about half-way down gives the best result").
func BenchmarkAblationSwitchLevel(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 10, H: 10}}
	for i := 0; i < b.N; i++ {
		rows, err := eval.SwitchLevelSweep(env, 6, 0.5, shapes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Errors["(10,10)"], "l0_relerr_pct")
		b.ReportMetric(rows[3].Errors["(10,10)"], "l3_relerr_pct")
		b.ReportMetric(rows[6].Errors["(10,10)"], "l6_relerr_pct")
	}
}

// BenchmarkAblationCountFraction sweeps εcount/ε (Section 8.2 settles on
// 0.7).
func BenchmarkAblationCountFraction(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 10, H: 10}}
	fracs := []float64{0.3, 0.5, 0.7, 0.9}
	for i := 0; i < b.N; i++ {
		rows, err := eval.CountFractionSweep(env, 6, 0.5, fracs, shapes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Errors["(10,10)"], "frac03_relerr_pct")
		b.ReportMetric(rows[2].Errors["(10,10)"], "frac07_relerr_pct")
	}
}

// BenchmarkAblationGeometricRatio sweeps the geometric budget ratio around
// the Lemma 3 optimum 2^(1/3).
func BenchmarkAblationGeometricRatio(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 10, H: 10}}
	ratios := []float64{1.0, 1.26, 1.6, 2.0}
	for i := 0; i < b.N; i++ {
		rows, err := eval.GeometricRatioSweep(env, 8, 0.2, ratios, shapes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Errors["(10,10)"], "ratio1_relerr_pct")
		b.ReportMetric(rows[1].Errors["(10,10)"], "ratio126_relerr_pct")
	}
}

// BenchmarkAblationHilbertOrder sweeps the Hilbert curve order (Section
// 8.2 found 16-24 equivalent).
func BenchmarkAblationHilbertOrder(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 10, H: 10}}
	for i := 0; i < b.N; i++ {
		rows, err := eval.HilbertOrderSweep(env, 5, 0.5, []uint{16, 18, 22}, shapes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Errors["(10,10)"], "order18_relerr_pct")
	}
}

// BenchmarkAblationPruneThreshold sweeps the Section 7 pruning threshold.
func BenchmarkAblationPruneThreshold(b *testing.B) {
	env := quickEnv(b)
	shapes := []workload.QueryShape{{W: 10, H: 10}}
	for i := 0; i < b.N; i++ {
		rows, err := eval.PruneThresholdSweep(env, 6, 0.2, []float64{0, 32, 128}, shapes)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Errors["(10,10)"], "noprune_relerr_pct")
		b.ReportMetric(rows[1].Errors["(10,10)"], "prune32_relerr_pct")
	}
}

// BenchmarkBuildQuadOptH10 measures raw construction of the paper's
// best-performing configuration (quad-opt at h=10) on the quick dataset.
func BenchmarkBuildQuadOptH10(b *testing.B) {
	env := quickEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := Build(env.Data.Points, env.Data.Domain, Options{
			Kind: QuadtreeKind, Height: 10, Epsilon: 0.5, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = tree
	}
}

// BenchmarkBuild measures construction throughput for the representative
// configurations (BuildBenchConfigs — shared with psdbench's JSON report)
// across parallelism levels on the QuickScale dataset. The par=1 case is
// the sequential baseline the speedup claims compare against; releases are
// byte-identical across the axis, so the comparison is pure scheduling.
// points/sec is the headline metric; allocs/op tracks the allocation-lean
// median path.
func BenchmarkBuild(b *testing.B) {
	env := quickEnv(b)
	for _, c := range BuildBenchConfigs() {
		for _, par := range BenchParallelisms() {
			b.Run(fmt.Sprintf("%s/par=%d", c.Name, par), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, err := Build(env.Data.Points, env.Data.Domain, Options{
						Kind: c.Kind, Height: c.Height, Epsilon: 0.5,
						Seed: int64(i + 1), Parallelism: par,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(env.Data.Points))*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
			})
		}
	}
}

// BenchmarkCountAll measures batch range-query throughput, one DFS per
// query over the sealed slab, across the parallelism axis.
func BenchmarkCountAll(b *testing.B) {
	env := quickEnv(b)
	tree, err := Build(env.Data.Points, env.Data.Domain, Options{
		Kind: QuadtreeKind, Height: 10, Epsilon: 0.5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	slab := tree.Seal()
	qs, err := env.Queries(workload.QueryShape{W: 10, H: 10})
	if err != nil {
		b.Fatal(err)
	}
	// A serving-sized batch: repeat the workload to 960 queries.
	batch := make([]Rect, 0, 960)
	for len(batch) < 960 {
		batch = append(batch, qs.Rects...)
	}
	for _, par := range BenchParallelisms() {
		b.Run(fmt.Sprintf("slab/batch960/par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var out []float64
			for i := 0; i < b.N; i++ {
				out = slab.inner.CountAllWorkers(batch, par)
			}
			_ = out
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkCountBatch measures the node-major batch engine across the
// kind × batch-size × parallelism axes, against the same 10%×10% workload
// BenchmarkCountAll answers one DFS at a time — the two report the same
// queries/sec metric, so the node-major speedup reads directly off the
// pair. Answers are bit-identical to the per-query path (pinned by
// TestCountBatchMatchesPerQuery and FuzzCountBatch); allocs/op is the
// steady-state bar, 0 at par=1.
func BenchmarkCountBatch(b *testing.B) {
	env := quickEnv(b)
	qs, err := env.Queries(workload.QueryShape{W: 10, H: 10})
	if err != nil {
		b.Fatal(err)
	}
	kinds := []struct {
		name string
		kind Kind
		h    int
	}{
		{"quad-h10", QuadtreeKind, 10},
		{"kd-h8", KDTree, 8},
		// The adaptive tree: most of the slab is unpublished interior, so
		// the batch engine's terminal checks run on the pruned/usable bitsets.
		{"privtree-h8", PrivTreeKind, 8},
	}
	for _, k := range kinds {
		tree, err := Build(env.Data.Points, env.Data.Domain, Options{
			Kind: k.kind, Height: k.h, Epsilon: 0.5, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		slab := tree.Seal()
		for _, size := range []int{256, 1024, 4096} {
			batch := make([]Rect, 0, size)
			for len(batch) < size {
				batch = append(batch, qs.Rects...)
			}
			batch = batch[:size]
			out := make([]float64, size)
			for _, par := range BenchParallelisms() {
				b.Run(fmt.Sprintf("%s/n=%d/par=%d", k.name, size, par), func(b *testing.B) {
					slab.inner.CountBatchInto(out, batch, par) // warm the pools
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						slab.inner.CountBatchInto(out, batch, par)
					}
					b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
				})
			}
		}
	}
}

// BenchmarkQuery measures single range-query latency on the slab, for a
// small (1%×1%) and a large (most-of-the-domain) rectangle. Allocs
// are reported because the acceptance bar is zero: single queries must not
// allocate (the DFS stacks are pooled).
func BenchmarkQuery(b *testing.B) {
	env := quickEnv(b)
	tree, err := Build(env.Data.Points, env.Data.Domain, Options{
		Kind: QuadtreeKind, Height: 10, Epsilon: 0.5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	slab := tree.Seal()
	qs, err := env.Queries(workload.QueryShape{W: 1, H: 1})
	if err != nil {
		b.Fatal(err)
	}
	d := env.Data.Domain
	large := NewRect(
		d.Lo.X+0.05*d.Width(), d.Lo.Y+0.05*d.Height(),
		d.Lo.X+0.95*d.Width(), d.Lo.Y+0.95*d.Height(),
	)
	shapes := []struct {
		name  string
		rects []Rect
	}{
		{"small", qs.Rects},
		{"large", []Rect{large}},
	}
	for _, sh := range shapes {
		b.Run("slab/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = slab.Count(sh.rects[i%len(sh.rects)])
			}
		})
	}
}

// BenchmarkOpenRelease measures artifact open latency into the serving form
// (OpenSlab) for the committed golden quadtree release in every encoding —
// the hot-reload path of cmd/psdserve.
func BenchmarkOpenRelease(b *testing.B) {
	for _, enc := range []struct{ name, file string }{
		{"json", "release_quadtree.json"},
		{"binary", "release_quadtree.bin"},
		{"binary-v3", "release_quadtree.v3.bin"},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", enc.file))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := OpenSlab(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTunedBudget compares the Section 4.2 workload-tuned
// budget against the generic geometric allocation on a leaf-heavy workload.
func BenchmarkAblationTunedBudget(b *testing.B) {
	env := quickEnv(b)
	qs, err := env.Queries(workload.QueryShape{W: 1, H: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		meanErr := func(tune []Rect) float64 {
			tree, err := Build(env.Data.Points, env.Data.Domain, Options{
				Kind: QuadtreeKind, Height: 8, Epsilon: 0.1, Seed: int64(i),
				TuneToWorkload: tune,
			})
			if err != nil {
				b.Fatal(err)
			}
			var errs []float64
			for j, q := range qs.Rects {
				errs = append(errs, 100*abs64(tree.Count(q)-qs.Answers[j])/qs.Answers[j])
			}
			return median64(errs)
		}
		b.ReportMetric(meanErr(qs.Rects), "tuned_relerr_pct")
		b.ReportMetric(meanErr(nil), "geometric_relerr_pct")
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func median64(xs []float64) float64 { return workload.Median(xs) }
