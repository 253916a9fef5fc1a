// Command psdbench regenerates the tables and figures of the paper's
// experimental study (Section 8). Each subcommand prints the same
// rows/series the corresponding figure plots.
//
// Usage:
//
//	psdbench [flags] <experiment>
//
// Experiments:
//
//	fig2    worst-case Err(Q), uniform vs geometric budgets
//	fig3    quadtree optimizations (baseline/geo/post/opt)
//	fig4    private median quality and timing
//	fig5    kd-tree family comparison
//	fig6    accuracy vs tree height
//	fig7a   construction time
//	fig7b   private record matching reduction ratio
//	grid    flat-grid baseline [6] vs optimized quadtree
//	ablate  parameter sweeps (switch level, count fraction, budget ratio,
//	        Hilbert order, pruning threshold)
//	bench   build/query hot-path microbenchmarks, written as JSON
//	        (-benchout, default BENCH_build.json) so the performance
//	        trajectory is machine-readable across commits
//	query-bench
//	        query-side hot paths of the slab engine: single query, the
//	        node-major batch engine vs the per-query loop (batch
//	        256/1024/4096), release open time (JSON vs binary decode, v3
//	        mmap), and the allocation-free serve.Release count paths,
//	        written as JSON (-queryout, default BENCH_query.json)
//	all     everything above (except bench and query-bench)
//
// Flags:
//
//	-paper         run at full paper scale (1.63M points, 600 queries/shape);
//	               the default is a 10x reduced quick scale
//	-seed N        override the experiment seed
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof heap profile (after the run) to F
//
// The profile flags exist so performance PRs can attach pprof evidence for
// any experiment, e.g.:
//
//	psdbench -cpuprofile cpu.out query-bench && go tool pprof cpu.out
//
// The PSD_PAPER_SCALE=1 environment variable is equivalent to -paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"psd/internal/budget"
	"psd/internal/eval"
	"psd/internal/workload"
)

func main() {
	paper := flag.Bool("paper", os.Getenv("PSD_PAPER_SCALE") == "1",
		"run at full paper scale (slow)")
	seed := flag.Int64("seed", 0, "override experiment seed (0 keeps default)")
	benchOut := flag.String("benchout", "BENCH_build.json",
		"output path for the bench experiment's JSON report")
	queryOut := flag.String("queryout", "BENCH_query.json",
		"output path for the query-bench experiment's JSON report")
	testdata := flag.String("testdata", "testdata",
		"directory holding the golden release fixtures (query-bench open rows)")
	cpuProfile := flag.String("cpuprofile", "",
		"write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "",
		"write a pprof heap profile (captured after the run) to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: psdbench [flags] <fig2|fig3|fig4|fig5|fig6|fig7a|fig7b|grid|ablate|bench|query-bench|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	which := strings.ToLower(flag.Arg(0))

	scale := eval.QuickScale
	if *paper {
		scale = eval.PaperScale
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile) //lint:allow fsyncdiscipline -- pprof profiles are throwaway diagnostics, not durable artifacts; pprof needs the live handle
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "psdbench:", err)
			os.Exit(1)
		}
	}

	err := run(which, scale, *paper, *benchOut, *queryOut, *testdata)

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	memErr := error(nil)
	if *memProfile != "" {
		f, merr := os.Create(*memProfile) //lint:allow fsyncdiscipline -- pprof profiles are throwaway diagnostics, not durable artifacts; pprof needs the live handle
		if merr == nil {
			runtime.GC() // settle the heap so the profile shows live data
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		memErr = merr
	}
	// Report the experiment's own error first — it is the interesting one —
	// then any profile-writing failure; exit non-zero on either.
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdbench:", err)
	}
	if memErr != nil {
		fmt.Fprintln(os.Stderr, "psdbench: memprofile:", memErr)
	}
	if err != nil || memErr != nil {
		os.Exit(1)
	}
}

func run(which string, scale eval.Scale, paper bool, benchOut, queryOut, testdata string) error {
	// env is the shared dataset, built below only once the experiment is
	// known to need it; the closures read it through the variable.
	var env *eval.Env

	// Heights follow the paper at -paper scale and shrink one notch at
	// quick scale so runs stay in minutes.
	quadH, kdH := 10, 8
	fig6Heights := []int{6, 7, 8, 9, 10, 11}
	if !paper {
		quadH, kdH = 8, 6
		fig6Heights = []int{5, 6, 7, 8}
	}
	epss := []float64{0.1, 0.5, 1.0}

	experiments := map[string]func() error{
		"fig2": func() error {
			rows, err := budget.Figure2(5, 10)
			if err != nil {
				return err
			}
			eval.PrintFigure2(os.Stdout, rows)
			return nil
		},
		"fig3": func() error {
			rows, err := eval.Figure3(env, quadH, epss, workload.PaperShapes)
			if err != nil {
				return err
			}
			eval.PrintFigure3(os.Stdout, rows)
			return nil
		},
		"fig4": func() error {
			cfg := eval.PaperFigure4
			cfg.Values = scale.MedianValues
			cfg.Seed = scale.Seed
			rows, err := eval.Figure4(cfg)
			if err != nil {
				return err
			}
			eval.PrintFigure4(os.Stdout, rows)
			return nil
		},
		"fig5": func() error {
			shapes := []workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}, {W: 15, H: 0.2}}
			rows, err := eval.Figure5(env, kdH, epss, shapes)
			if err != nil {
				return err
			}
			eval.PrintFigure5(os.Stdout, rows)
			return nil
		},
		"fig6": func() error {
			shapes := []workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}, {W: 15, H: 0.2}}
			rows, err := eval.Figure6(env, fig6Heights, 0.5, shapes)
			if err != nil {
				return err
			}
			eval.PrintFigure6(os.Stdout, rows)
			return nil
		},
		"fig7a": func() error {
			rows, err := eval.Figure7a(env, kdH, quadH, 0.5)
			if err != nil {
				return err
			}
			eval.PrintFigure7a(os.Stdout, rows)
			return nil
		},
		"fig7b": func() error {
			cfg := eval.Figure7bConfig{Seed: scale.Seed}
			if paper {
				cfg.PartySize = 20000
				cfg.Reps = 5
			}
			rows, err := eval.Figure7b(cfg, []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5})
			if err != nil {
				return err
			}
			eval.PrintFigure7b(os.Stdout, rows)
			return nil
		},
		"grid": func() error {
			rows, err := eval.GridBaseline(env, 1024, quadH, 0.5, workload.PaperShapes)
			if err != nil {
				return err
			}
			eval.PrintGridBaseline(os.Stdout, rows)
			return nil
		},
		"bench": func() error {
			return runBenchJSON(env, scale, benchOut)
		},
		"query-bench": func() error {
			return runQueryBench(env, scale, testdata, queryOut)
		},
		"ablate": func() error {
			shapes := []workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}}
			if rows, err := eval.SwitchLevelSweep(env, kdH, 0.5, shapes); err != nil {
				return err
			} else {
				eval.PrintSweep(os.Stdout, "Ablation: hybrid switch level (Section 8.2)", "switch", rows)
			}
			fmt.Println()
			fracs := []float64{0.3, 0.5, 0.7, 0.9}
			if rows, err := eval.CountFractionSweep(env, kdH, 0.5, fracs, shapes); err != nil {
				return err
			} else {
				eval.PrintSweep(os.Stdout, "Ablation: count budget fraction (Section 8.2)", "frac", rows)
			}
			fmt.Println()
			ratios := []float64{1.0, 1.1, 1.26, 1.5, 1.75, 2.0}
			if rows, err := eval.GeometricRatioSweep(env, quadH, 0.2, ratios, shapes); err != nil {
				return err
			} else {
				eval.PrintSweep(os.Stdout, "Ablation: geometric budget ratio (Lemma 3 optimum 1.26)", "ratio", rows)
			}
			fmt.Println()
			if rows, err := eval.HilbertOrderSweep(env, kdH-1, 0.5, []uint{16, 18, 20, 24}, shapes); err != nil {
				return err
			} else {
				eval.PrintSweep(os.Stdout, "Ablation: Hilbert curve order (Section 8.2)", "order", rows)
			}
			fmt.Println()
			if rows, err := eval.PruneThresholdSweep(env, kdH, 0.2, []float64{0, 8, 32, 128}, shapes); err != nil {
				return err
			} else {
				eval.PrintSweep(os.Stdout, "Ablation: pruning threshold m (Section 7)", "m", rows)
			}
			return nil
		},
	}

	exp, ok := experiments[which]
	if !ok && which != "all" {
		return fmt.Errorf("unknown experiment %q", which)
	}
	// fig2 is closed-form; fig4 and fig7b generate their own data.
	if which != "fig2" && which != "fig4" && which != "fig7b" {
		start := time.Now()
		fmt.Printf("# dataset: %d synthetic road points (scale=%s, seed=%d)\n",
			scale.Points, scale.Name, scale.Seed)
		var err error
		env, err = eval.NewEnv(scale)
		if err != nil {
			return err
		}
		fmt.Printf("# dataset+index built in %s\n\n", time.Since(start).Round(time.Millisecond))
	}

	if which == "all" {
		for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b", "grid", "ablate"} {
			fmt.Printf("== %s ==\n", name)
			start := time.Now()
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	return exp()
}
