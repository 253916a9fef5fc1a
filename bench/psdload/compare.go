package main

import (
	"fmt"
	"io"
	"math"
)

// compare prints, per workload and end-to-end metric, the median and
// quartiles of two result files (a the parent, b the change), the change
// in the median against the metric's bound, and a verdict. It is advisory:
// it exits 0 whatever the verdicts, and non-zero only on bad input.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: psdload compare a.json b.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "psdload: %v\n", err)
		return 1
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "psdload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-11s %-22s %-8s %-30s %-30s %8s %6s  %s\n",
		"workload", "metric", "unit", "a: median [q1, q3] (runs)", "b: median [q1, q3] (runs)", "delta", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := runValues(a.Runs, w.name, def.Name), runValues(b.Runs, w.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(stdout, "%-11s %-22s %-8s %-30s %-30s %+7.1f%% %5.0f%%  %s\n",
				w.name, def.Name, def.Unit, summarize(va), summarize(vb),
				100*(mb-ma)/ma, 100*def.Bound, verdict(def, va, vb))
		}
	}
	return 0
}

func summarize(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(vs), q1, q3, len(vs))
}

// verdict labels the change from a to b by how far the median moved
// against the bound: better or worse beyond it, unchanged within it. When
// either side's spread (the distance between the quartiles, as a share of
// the median) is wider than the bound, the medians cannot tell, and the
// change is unresolved unless every run of b beats every run of a. Fewer
// than two runs on a side give no spread.
func verdict(def metricDef, a, b []float64) string {
	spread := math.Max(relSpread(a), relSpread(b))
	if math.IsNaN(spread) || spread > def.Bound {
		if len(a) >= 2 && len(b) >= 2 && dominates(def, b, a) {
			return "better"
		}
		return "unresolved"
	}
	worse := (median(b) - median(a)) / median(a)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return "worse"
	case -worse > def.Bound:
		return "better"
	}
	return "unchanged"
}

// dominates reports whether every value of x is better than every value
// of y.
func dominates(def metricDef, x, y []float64) bool {
	for _, u := range x {
		for _, v := range y {
			if def.Better == "lower" && u >= v || def.Better == "higher" && u <= v {
				return false
			}
		}
	}
	return true
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(median(vs))
}
