package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the harness to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	f := loadBenchmark(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), the harness's is %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if fmt.Sprint(f.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end\n%v\nwant\n%v", f.EndToEnd, endToEnd)
	}
	if fmt.Sprint(f.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer\n%v\nwant\n%v", f.PerLayer, perLayer)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness's default %d", f.RunSeconds, defaultSeconds)
	}
	if strings.Join(f.Command, " ") != "bash bench/run.sh" || strings.Join(f.Paths, " ") != "bench" {
		t.Errorf("command %v and paths %v do not name bench/run.sh and bench", f.Command, f.Paths)
	}
}

// smokeRun is one short run. With -short it is about a second of load on a
// 20,000-point dataset; otherwise ten seconds on the full dataset, so the
// releases, the publish cadence and the phase lengths are the benchmark's.
func smokeRun(t *testing.T, spec *workloadSpec, trace, corrupt bool) *runResult {
	t.Helper()
	seconds, points := 10.0, datasetPoints
	if testing.Short() {
		seconds, points = 1, 20_000
	}
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.jsonl")
	res, err := runWorkload(config{
		spec: spec, seed: 7, seconds: seconds, points: points, setups: 1, trace: trace,
		dir: filepath.Join(dir, "run"), spans: spans, corruptReference: corrupt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(spans); trace && (err != nil || st.Size() == 0) {
		t.Errorf("traced run wrote no spans (%v)", err)
	}
	return res
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric BENCHMARK.json declares prints with a finite value and
// its unit, that the traced run writes its spans, and that every answer
// checked out. The runs go in parallel: each spends much of its time in
// set-up and fsync, so overlapping them keeps the test short (about 10 s
// with -short).
func TestSmoke(t *testing.T) {
	f := loadBenchmark(t)
	for i := range workloads {
		spec := &workloads[i]
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", spec.name, trace), func(t *testing.T) {
				t.Parallel()
				res := smokeRun(t, spec, trace, false)
				if !res.Correct || res.Failed > 0 {
					t.Fatalf("run not correct (%d of %d failed): %v", res.Failed, res.Attempted, res.Problems)
				}
				var out bytes.Buffer
				printRun(&out, io.Discard, res)
				defs := f.EndToEnd
				if trace {
					defs = f.PerLayer
				}
				for _, def := range defs {
					checkPrinted(t, out.String(), spec.name, def)
				}
			})
		}
	}
}

// checkPrinted finds the "workload metric value unit" line of def.
func checkPrinted(t *testing.T, out, workload string, def metricDef) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != workload || fields[1] != def.Name {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: value %q is not a finite number", def.Name, fields[2])
		}
		if fields[3] != def.Unit {
			t.Errorf("%s: unit %q, want %q", def.Name, fields[3], def.Unit)
		}
		return
	}
	t.Errorf("%s is not printed", def.Name)
}

func TestSmokeCorruptReferenceFails(t *testing.T) {
	t.Parallel()
	res := smokeRun(t, findWorkload("point-hot"), false, true)
	if res.Correct {
		t.Fatal("a run checked against a corrupted reference passed")
	}
	if !strings.Contains(strings.Join(res.Problems, "\n"), "differ from the reference") {
		t.Errorf("problems %v do not report the mismatch", res.Problems)
	}
}
