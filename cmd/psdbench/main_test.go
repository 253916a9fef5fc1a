package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"psd"
	"psd/internal/eval"
)

// TestBenchReports runs the bench and query-bench experiments end to end
// on a tiny dataset, and pins the shape of what they write: the exact row
// set, a measured time on every row, and the allocation-free bar of the
// single-query, verify and serve-count hot paths. Rows run 10 iterations, not 1:
// the framework forces a GC before each run, which empties the sync.Pool
// the traversal stacks come from, so the first iteration re-allocates
// them; allocs/op is a truncated mean, so at 10 iterations it reads 0
// unless every call allocates. Under the race detector sync.Pool drops
// items at random, so allocations go unchecked and one iteration does.
func TestBenchReports(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an h=10 quadtree and several benchmark trees")
	}
	iters, zeroAllocs := "10x", zeroAllocRows
	if raceEnabled {
		iters, zeroAllocs = "1x", nil
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", iters); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", prev) })

	scale := eval.Scale{Name: "tiny", Points: 5000, QueriesPerShape: 20, Reps: 1, MedianValues: 1000, Seed: 3}
	env, err := eval.NewEnv(scale)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	buildOut := filepath.Join(dir, "BENCH_build.json")
	if err := runBenchJSON(env, scale, buildOut); err != nil {
		t.Fatalf("bench: %v", err)
	}
	checkRows(t, buildOut, buildRows(psd.BenchParallelisms()), nil)

	queryOut := filepath.Join(dir, "BENCH_query.json")
	if err := runQueryBench(env, scale, filepath.Join("..", "..", "testdata"), queryOut); err != nil {
		t.Fatalf("query-bench: %v", err)
	}
	checkRows(t, queryOut, queryRows, zeroAllocs)
}

// queryRows is the exact row list query-bench writes.
var queryRows = []string{
	"query/small/slab",
	"query/large/slab",
	"batch/kd-h8-n256/perquery",
	"batch/kd-h8-n256/nodemajor/par=1",
	"batch/kd-h8-n256/nodemajor/par=0",
	"batch/kd-h8-n1024/perquery",
	"batch/kd-h8-n1024/nodemajor/par=1",
	"batch/kd-h8-n1024/nodemajor/par=0",
	"batch/kd-h8-n4096/perquery",
	"batch/kd-h8-n4096/nodemajor/par=1",
	"batch/kd-h8-n4096/nodemajor/par=0",
	"batch/privtree-h8-n1024/perquery",
	"batch/privtree-h8-n1024/nodemajor/par=1",
	"open/golden-quadtree/json",
	"open/golden-quadtree/binary",
	"open/quadtree-h10/mmap-v3",
	"encode/quadtree-h10/v3",
	"verify/quadtree-h10/mmap-v3",
	"batch/quadtree-h10-paper-n128/perquery",
	"batch/quadtree-h10-paper-n128/nodemajor/par=1",
	"batch/quadtree-h10-paper-n128/nodemajor/par=2",
	"servecount/nocache/slab",
	"servebatch/nocache-n256/nodemajor",
}

// zeroAllocRows prefixes the query rows whose hot paths must not allocate.
var zeroAllocRows = []string{"query/", "verify/", "servecount/"}

// buildRows is the exact row list bench writes on a machine whose
// BenchParallelisms are pars.
func buildRows(pars []int) []string {
	var rows []string
	for _, c := range psd.BuildBenchConfigs() {
		for _, par := range pars {
			rows = append(rows, fmt.Sprintf("build/%s/par=%d", c.Name, par))
		}
	}
	return rows
}

// TestCommittedBenchReports checks the BENCH_*.json files committed at the
// repo root against the code that writes them, so a hand-edited or stale
// report fails here. The build rows depend on the recording machine's
// core count, so they are checked against the file's own cpus field.
func TestCommittedBenchReports(t *testing.T) {
	root := filepath.Join("..", "..")
	checkRows(t, filepath.Join(root, "BENCH_query.json"), queryRows, zeroAllocRows)

	buildPath := filepath.Join(root, "BENCH_build.json")
	raw, err := os.ReadFile(buildPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		CPUs  int    `json:"cpus"`
		Scale string `json:"scale"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatalf("%s: %v", buildPath, err)
	}
	if meta.CPUs < 1 || meta.Scale == "" {
		t.Fatalf("%s: cpus = %d, scale = %q; want both recorded", buildPath, meta.CPUs, meta.Scale)
	}
	pars := []int{1}
	if meta.CPUs > 1 {
		pars = append(pars, meta.CPUs)
	}
	checkRows(t, buildPath, buildRows(pars), nil)
}

// TestUnknownExperiment: a name no experiment has fails at once, before the
// dataset is built. The zero Scale would fail NewEnv, so reaching it would
// report a different error.
func TestUnknownExperiment(t *testing.T) {
	err := run("serve-bench", eval.Scale{}, false, "", "", "")
	if err == nil || err.Error() != `unknown experiment "serve-bench"` {
		t.Fatalf("run(serve-bench) = %v, want unknown experiment", err)
	}
}

// checkRows reads the report at path and requires exactly the named rows
// in order, each with a positive ns_per_op, and 0 allocs/op on the rows
// whose names start with one of zeroAllocs.
func checkRows(t *testing.T, path string, want, zeroAllocs []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Rows []struct {
			Name        string  `json:"name"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var got []string
	for _, r := range report.Rows {
		got = append(got, r.Name)
		if r.NsPerOp <= 0 {
			t.Errorf("%s: row %s: ns_per_op = %v, want > 0", path, r.Name, r.NsPerOp)
		}
		for _, prefix := range zeroAllocs {
			if strings.HasPrefix(r.Name, prefix) && r.AllocsPerOp != 0 {
				t.Errorf("%s: row %s: %d allocs/op, want 0", path, r.Name, r.AllocsPerOp)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: rows\n%s\nwant\n%s", path, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
