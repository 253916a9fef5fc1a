package main

import (
	"math"
	"slices"
)

// pct is one percentile of a sample, reported with the sample count and the
// number of samples above it, so a reader can tell whether the sample
// supports the percentile (ten samples beyond it is the usual floor).
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample; an empty sample gives NaN.
func percentile(sorted []float64, q float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{Value: math.NaN()}
	}
	k := int(math.Ceil(q*float64(n))) - 1
	k = min(max(k, 0), n-1)
	return pct{Value: sorted[k], N: n, Beyond: n - 1 - k}
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle of xs (the mean of the two middles for even counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), the rule a benchmark's spread
// is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// idealLatency returns, for each operation of an open-loop phase, the
// latency a generator with a perfect timer would have measured. Operations
// enter service in schedule order on the earliest free of conns
// connections, never before they were due, and hold it for their measured
// service time (end - send). An operation that finds every connection busy
// waits, and its latency runs from its scheduled time; one that finds a
// connection free is charged its service time alone. So a backlog the
// system causes counts in full, while the generator's oversleep — a timer
// that wakes about a millisecond late on some machines — never does, not
// even through the backlog it would otherwise leave behind.
func idealLatency(ops []timing, conns int) []float64 {
	free := make([]int64, conns)
	for k := range free {
		free[k] = math.MinInt64
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		k := 0
		for j := 1; j < conns; j++ {
			if free[j] < free[k] {
				k = j
			}
		}
		start := max(op.due, free[k])
		free[k] = start + (op.end - op.send)
		out[i] = float64(free[k] - op.due)
	}
	return out
}

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent that none of children covers: a layer's
// own time once the time spent in the layers it called is taken out.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		if a.start < b.start {
			return -1
		}
		if a.start > b.start {
			return 1
		}
		return 0
	})
	covered, reach := int64(0), parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return parent.end - parent.start - covered
}
