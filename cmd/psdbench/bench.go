package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/eval"
)

// benchReport is the machine-readable performance snapshot psdbench bench
// writes (BENCH_build.json by default), so the perf trajectory of the build
// hot path can be compared across commits without parsing Go benchmark
// text output.
type benchReport struct {
	// Schema versions the JSON layout.
	Schema int `json:"schema"`
	// GoVersion, CPUs and Scale describe the machine and workload.
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	Scale     string `json:"scale"`
	Points    int    `json:"points"`
	// UnixTime is the measurement time (seconds since epoch).
	UnixTime int64      `json:"unix_time"`
	Rows     []benchRow `json:"rows"`
}

// benchRow is one benchmarked configuration.
type benchRow struct {
	// Name is "<op>/<config>/par=<n>".
	Name string `json:"name"`
	// Op is "build".
	Op string `json:"op"`
	// Kind is the decomposition family.
	Kind string `json:"kind,omitempty"`
	// Height is the tree height.
	Height int `json:"height,omitempty"`
	// Parallelism is the worker bound the run used (0 = all cores).
	Parallelism int `json:"parallelism"`
	// NsPerOp is wall time per operation (one build).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from the Go benchmark framework.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// PointsPerSec is build throughput.
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
}

// runBenchJSON measures the representative build configurations at the
// given scale and writes the report to outPath.
func runBenchJSON(env *eval.Env, scale eval.Scale, outPath string) error {
	report := benchReport{
		Schema:    1,
		GoVersion: runtime.Version(),
		CPUs:      runtime.GOMAXPROCS(0),
		Scale:     scale.Name,
		Points:    len(env.Data.Points),
		UnixTime:  time.Now().Unix(),
	}
	parLevels := psd.BenchParallelisms()

	// The configuration table is shared with bench_test.go's BenchmarkBuild
	// so the JSON report and the go-benchmark suite measure the same thing.
	for _, c := range psd.BuildBenchConfigs() {
		for _, par := range parLevels {
			kind, height, parallelism := c.Kind, c.Height, par
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := psd.Build(env.Data.Points, env.Data.Domain, psd.Options{
						Kind: kind, Height: height, Epsilon: 0.5,
						Seed: int64(i + 1), Parallelism: parallelism,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(res.NsPerOp())
			report.Rows = append(report.Rows, benchRow{
				Name:         fmt.Sprintf("build/%s/par=%d", c.Name, par),
				Op:           "build",
				Kind:         c.Kind.String(),
				Height:       c.Height,
				Parallelism:  par,
				NsPerOp:      ns,
				AllocsPerOp:  res.AllocsPerOp(),
				BytesPerOp:   res.AllocedBytesPerOp(),
				PointsPerSec: float64(len(env.Data.Points)) * 1e9 / ns,
			})
			fmt.Printf("build/%-16s par=%-2d %12.0f ns/op %10d allocs/op %12.0f points/sec\n",
				c.Name, par, ns, res.AllocsPerOp(), float64(len(env.Data.Points))*1e9/ns)
		}
	}

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
