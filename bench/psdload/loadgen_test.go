package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

// fakeClock serves one goroutine: its sleeps overshoot by a fixed amount,
// like a timer that wakes late, and the test's operations advance it by
// their service time.
type fakeClock struct {
	t         int64
	overshoot int64
}

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleepUntil(t int64) {
	if t > c.t {
		c.t = t + c.overshoot
	}
}

// runFake runs an open loop on one connection of a fake clock.
func runFake(due []int64, overshoot, service int64) ([]timing, int) {
	clk := &fakeClock{overshoot: overshoot}
	ts := make([]timing, len(due))
	backlog := openLoop(clk, 0, due, 1, func(int, int) { clk.t += service }, ts)
	return ts, backlog
}

func TestOpenLoopExcludesOversleep(t *testing.T) {
	ms := int64(time.Millisecond)
	ts, backlog := runFake([]int64{0, 5 * ms, 10 * ms}, ms, ms/10)
	if got := idealLatency(ts, 1); !slices.Equal(got, []float64{1e5, 1e5, 1e5}) {
		t.Errorf("latencies %v, want the 100µs service time each: the 1ms oversleep must not count", got)
	}
	if lates := []int64{ts[0].late, ts[1].late, ts[2].late}; !slices.Equal(lates, []int64{0, ms, ms}) {
		t.Errorf("late %v, want [0 1ms 1ms]: the oversleep is reported as lateness", lates)
	}
	if ts[1].send-ts[1].due != ms {
		t.Errorf("op 1 sent %dns after due, want the 1ms oversleep", ts[1].send-ts[1].due)
	}
	if backlog != 1 {
		t.Errorf("backlog %d, want 1 (only the operation being taken)", backlog)
	}
}

func TestOpenLoopBacklogCountsFromSchedule(t *testing.T) {
	// Eight operations due every 250µs on one connection that takes 1ms
	// each: the system, not the generator, is slow, so every wait counts.
	us := int64(time.Microsecond)
	due := make([]int64, 8)
	for i := range due {
		due[i] = int64(i) * 250 * us
	}
	ts, backlog := runFake(due, 1000*us, 1000*us)
	lat := idealLatency(ts, 1)
	for k := range due {
		want := float64(int64(k+1)*1000*us - due[k])
		if lat[k] != want {
			t.Errorf("op %d latency %v, want %v (from its scheduled time)", k, lat[k], want)
		}
		if ts[k].late != 0 {
			t.Errorf("op %d late %d, want 0: it waited for a busy connection, not the timer", k, ts[k].late)
		}
	}
	// Op 2 is taken at 2ms, when all eight are due: six are waiting.
	if backlog != 6 {
		t.Errorf("backlog %d, want 6", backlog)
	}
}

func TestIdealLatencyTwoConnections(t *testing.T) {
	ops := []timing{
		{due: 0, send: 0, end: 10},
		{due: 0, send: 0, end: 10},
		{due: 0, send: 10, end: 20}, // both busy until 10: waits from 0
		{due: 100, send: 150, end: 160},
	}
	if got, want := idealLatency(ops, 2), []float64{10, 10, 20, 10}; !slices.Equal(got, want) {
		t.Errorf("latencies %v, want %v", got, want)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{}
	ts := make([]timing, 100)
	n := closedLoop(clk, 1, 10, func(int, int) { clk.t += 3 }, ts)
	if n != 4 { // sent at 0, 3, 6, 9
		t.Errorf("issued %d operations, want 4", n)
	}
	if n := closedLoop(&fakeClock{}, 1, 1e9, func(int, int) {}, ts[:5]); n != 5 {
		t.Errorf("issued %d operations with room for 5, want 5", n)
	}
}

func TestSchedulesDeterministicPerSeed(t *testing.T) {
	a, b, c := &inputs{seed: 1}, &inputs{seed: 1}, &inputs{seed: 2}
	dueA, kindA := poissonSchedule(a.rng(1, 0), []float64{3000, 200}, 2*time.Second)
	dueB, kindB := poissonSchedule(b.rng(1, 0), []float64{3000, 200}, 2*time.Second)
	dueC, _ := poissonSchedule(c.rng(1, 0), []float64{3000, 200}, 2*time.Second)
	if !slices.Equal(dueA, dueB) || !slices.Equal(kindA, kindB) {
		t.Fatal("the same seed drew different schedules")
	}
	if slices.Equal(dueA, dueC) {
		t.Fatal("different seeds drew the same schedule")
	}
	if !slices.IsSorted(dueA) {
		t.Error("schedule is not in time order")
	}
	// 6400 arrivals expected; five standard deviations is 400.
	if n := len(dueA); math.Abs(float64(n)-6400) > 400 {
		t.Errorf("%d arrivals, want about 6400", n)
	}
	writes := 0
	for _, k := range kindA {
		writes += int(k)
	}
	if share := float64(writes) / float64(len(kindA)); math.Abs(share-200.0/3200) > 0.02 {
		t.Errorf("write share %.3f, want about %.3f", share, 200.0/3200)
	}

	zA, zB, zC := a.zipfArgs(1, 5000), b.zipfArgs(1, 5000), c.zipfArgs(1, 5000)
	if !slices.Equal(zA, zB) || slices.Equal(zA, zC) {
		t.Fatal("Zipf draws are not determined by the seed alone")
	}
	freq := map[int32]int{}
	for _, v := range zA {
		freq[v]++
	}
	if freq[0] <= freq[1] || freq[1] <= freq[100] {
		t.Errorf("pool index frequencies %d, %d, %d are not Zipf-shaped", freq[0], freq[1], freq[100])
	}
}

func TestPercentileReportsCountAndBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		if got := percentile(xs, c.q); got != (pct{Value: c.want, N: 1000, Beyond: c.beyond}) {
			t.Errorf("p%v = %+v, want value %v with %d beyond", c.q*100, got, c.want, c.beyond)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("empty sample gave %+v, want NaN with n=0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25}, {[]float64{2, 1}, 0.75, 2.25}} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{20, 40}, {10, 30}, {90, 120}, {200, 300}}
	if got := selfTime(parent, children); got != 60 { // covered: 10..40 and 90..100
		t.Errorf("self time %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
}

func TestRequestID(t *testing.T) {
	for q, want := range map[string]uint64{"rect=1,2,3,4&bid=42": 42, "bid=7": 7} {
		if got, ok := requestID(q); !ok || got != want {
			t.Errorf("requestID(%q) = %d, %v; want %d", q, got, ok, want)
		}
	}
	for _, q := range []string{"", "rect=1,2,3,4", "abid=3", "bid=x"} {
		if _, ok := requestID(q); ok {
			t.Errorf("requestID(%q) found an id", q)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "query_p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 102, 103}, []float64{85, 86, 87, 88}, "better"},
		{[]float64{100, 101, 102, 103}, []float64{115, 116, 117, 118}, "worse"},
		{[]float64{100, 102, 101, 103}, []float64{101, 100, 103, 102}, "unchanged"},
		// Every run of b is slower, but the median moved by 4%, within
		// the bound: dominance alone does not make a regression.
		{[]float64{100, 101, 102, 103}, []float64{104, 105, 106, 107}, "unchanged"},
		{[]float64{60, 100, 140, 100}, []float64{100, 70, 130, 100}, "unresolved"},
		// Spreads wider than the bound: b dominating a decides for b, a
		// dominating b leaves it unresolved.
		{[]float64{60, 80, 100, 120}, []float64{20, 30, 40, 50}, "better"},
		{[]float64{20, 30, 40, 50}, []float64{60, 80, 100, 120}, "unresolved"},
		{[]float64{100}, []float64{50}, "unresolved"},
	} {
		if got := verdict(lat, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	qps := metricDef{Name: "query_capacity_qps", Better: "higher", Bound: 0.10}
	if got := verdict(qps, []float64{100, 101, 102}, []float64{120, 121, 122}); got != "better" {
		t.Errorf("higher capacity judged %s, want better", got)
	}
}
