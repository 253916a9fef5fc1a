// Command psdload is the repository's end-to-end, layer-by-layer benchmark.
// It wires ingest → publish → serve → proxy in one process over loopback,
// drives it with an open-loop generator on two connections, checks every
// answer against a reference copy of the release that gave it, and prints
// every metric as "workload metric value unit".
//
// Usage, from the bench directory (bench/run.sh builds and runs it the same
// way from the repository root):
//
//	go run ./psdload -seed 1                      # every workload, each in a child process
//	go run ./psdload -workload point-hot -seed 1  # one workload, in this process
//	go run ./psdload -seed 1 -trace 1             # per-layer metrics and span files
//	go run ./psdload -seed 1 -out a.json          # results added to a.json
//	go run ./psdload compare a.json b.json        # medians, quartiles, verdicts
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. The exit status is non-zero if any answer was
// wrong or any check failed. bench/README.md explains the workloads, the
// metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

const (
	// defaultSeconds is the measured length of one workload run.
	defaultSeconds = 20
	// setupRepeats is how many times a run sets the fleet up; setup_s is
	// the median.
	setupRepeats = 5
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compare(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(cli(args, os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	out      string
}

func cli(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("psdload", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var o options
	var trace int
	flags.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a fresh child process)")
	flags.Int64Var(&o.seed, "seed", 1, "input seed: the dataset, query pools and arrival schedules derive from it")
	flags.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload run; warm-up and set-up come on top")
	flags.IntVar(&trace, "trace", 0, "1: record spans to <workdir>/spans-<workload>.jsonl and report per-layer metrics; 0: report end-to-end metrics")
	flags.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the runs' WALs, releases and span files")
	flags.StringVar(&o.out, "out", "", "add every run's results, with sample counts, to this JSON file (created if missing)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch {
	case flags.NArg() > 0:
		fmt.Fprintf(stderr, "psdload: unexpected argument %q\n", flags.Arg(0))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "psdload: -trace must be 0 or 1")
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "psdload: -seconds must be positive")
		return 2
	case o.workload != "" && findWorkload(o.workload) == nil:
		fmt.Fprintf(stderr, "psdload: unknown workload %q\n", o.workload)
		return 2
	}
	if o.workload == "" {
		return sweep(o, stdout, stderr)
	}
	spec := findWorkload(o.workload)
	res, err := runWorkload(config{
		spec: spec, seed: o.seed, seconds: o.seconds, points: datasetPoints, setups: setupRepeats, trace: o.trace,
		dir:   filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d", spec.name, os.Getpid())),
		spans: filepath.Join(o.workdir, "spans-"+spec.name+".jsonl"),
	})
	if err != nil {
		fmt.Fprintf(stderr, "psdload: %s: %v\n", spec.name, err)
		return 1
	}
	if o.out != "" {
		if err := writeResults(o.out, []*runResult{res}); err != nil {
			fmt.Fprintf(stderr, "psdload: %v\n", err)
			return 1
		}
	}
	printRun(stdout, stderr, res)
	if err := printSummary(stdout, res.Correct, res.Attempted, res.Failed, res.Metrics); err != nil {
		fmt.Fprintf(stderr, "psdload: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// sweep runs every workload once, each in a fresh child process so that
// set-up time and retained memory are the workload's own.
func sweep(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "psdload: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "psdload: %v\n", err)
		return 1
	}
	var all []*runResult
	ok := true
	for _, w := range workloads {
		tmp := filepath.Join(o.workdir, fmt.Sprintf("child-%d-%s.json", os.Getpid(), w.name))
		_ = os.Remove(tmp) // the child adds to it; a leftover must not count
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(o.trace)),
			"-workdir", o.workdir, "-out", tmp)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		f, readErr := readResults(tmp)
		_ = os.Remove(tmp) // a leftover child file is harmless scratch
		if readErr != nil {
			fmt.Fprintf(stderr, "psdload: %s: %v\n", w.name, errors.Join(runErr, readErr))
			ok = false
			continue
		}
		ok = ok && runErr == nil
		all = append(all, f.Runs...)
	}
	if o.out != "" {
		if err := writeResults(o.out, all); err != nil {
			fmt.Fprintf(stderr, "psdload: %v\n", err)
			return 1
		}
	}
	attempted, failed := 0, 0
	metrics := map[string]metricValue{}
	for _, res := range all {
		for name, v := range res.Metrics {
			metrics[res.Workload+"/"+name] = v
		}
		attempted, failed = attempted+res.Attempted, failed+res.Failed
		ok = ok && res.Correct
	}
	if err := printSummary(stdout, ok, attempted, failed, metrics); err != nil {
		fmt.Fprintf(stderr, "psdload: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printRun prints each metric as "workload metric value unit", with the
// sample count behind a percentile, and the run's problems to stderr.
func printRun(stdout, stderr io.Writer, res *runResult) {
	for _, def := range metricsFor(res.Trace) {
		v := res.Metrics[def.Name]
		fmt.Fprintf(stdout, "%s %s %s %s", res.Workload, def.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
		if v.N > 0 {
			fmt.Fprintf(stdout, "  (n=%d, %d beyond)", v.N, v.Beyond)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%s op_error_rate %s ratio  (%d of %d operations failed)\n", res.Workload,
		strconv.FormatFloat(float64(res.Failed)/float64(max(res.Attempted, 1)), 'g', 6, 64), res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "psdload: %s: %s\n", res.Workload, p)
	}
}

// printSummary prints the one-line JSON result that ends the output.
func printSummary(w io.Writer, correct bool, attempted, failed int, metrics map[string]metricValue) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for name, v := range metrics {
		line.Metrics[name] = value{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Schema    int          `json:"schema"`
	GoVersion string       `json:"go_version"`
	CPUs      int          `json:"cpus"`
	Runs      []*runResult `json:"runs"`
}

// writeResults adds runs to the results file at path, creating it if
// missing, so that alternating invocations collect each side's runs in one
// file for compare.
func writeResults(path string, runs []*runResult) error {
	f := resultsFile{Schema: 1, GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	if old, err := readResults(path); err == nil {
		f.Runs = old.Runs
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runValues collects one end-to-end metric of one workload over the
// untraced runs.
func runValues(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, res := range runs {
		if v, ok := res.Metrics[metric]; ok && res.Workload == workload && !res.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}
