package median

import (
	"math"
	"testing"

	"psd/internal/rng"
)

// uniformData returns n evenly spaced values in [lo, hi].
func uniformData(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+0.5)/float64(n)
	}
	return out
}

// seeded pairs a finder with the source each of its calls splits a fresh
// stream off, so a test's repeated calls draw independent medians.
type seeded struct {
	Finder
	src *rng.Source
}

func (s seeded) median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return s.MedianAt(*s.src.Split(), &sc, values, lo, hi, eps)
}

func exactMedian(values []float64, lo, hi float64) (float64, error) {
	var sc Scratch
	return Exact{}.MedianAt(rng.Source{}, &sc, values, lo, hi, 0)
}

// allFinders splits each finder's source off src in a fixed order; the
// split before the sampled finder's keeps that finder's draws where they
// were when its inner EM held a source of its own.
func allFinders(src *rng.Source) []seeded {
	fs := []seeded{
		{Exact{}, new(rng.Source)},
		{&EM{}, src.Split()},
		{&SS{Delta: 1e-4}, src.Split()},
		{&NM{}, src.Split()},
		{&Cell{Cells: 1024}, src.Split()},
	}
	src.Split()
	return append(fs, seeded{&Sampled{Inner: &EM{}, Rate: 0.05}, src.Split()})
}

func TestExactMedian(t *testing.T) {
	m, err := exactMedian([]float64{5, 1, 3}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	// Lower median for even n.
	m, _ = exactMedian([]float64{1, 2, 3, 4}, 0, 10)
	if m != 2 {
		t.Errorf("even-n median = %v, want 2 (lower)", m)
	}
	// Empty input: domain midpoint.
	m, _ = exactMedian(nil, 0, 10)
	if m != 5 {
		t.Errorf("empty median = %v, want 5", m)
	}
	// Values clamp into the domain.
	m, _ = exactMedian([]float64{-100, 2, 100}, 0, 10)
	if m != 2 {
		t.Errorf("clamped median = %v, want 2", m)
	}
}

func TestDomainValidation(t *testing.T) {
	src := rng.New(1)
	for _, f := range allFinders(src) {
		if _, err := f.median([]float64{1}, 5, 5, 1); err == nil {
			t.Errorf("%s: degenerate domain should error", f.Name())
		}
		if _, err := f.median([]float64{1}, math.NaN(), 1, 1); err == nil {
			t.Errorf("%s: NaN domain should error", f.Name())
		}
	}
}

func TestAllFindersStayInDomain(t *testing.T) {
	src := rng.New(2)
	data := uniformData(501, 10, 20)
	for _, f := range allFinders(src) {
		for trial := 0; trial < 50; trial++ {
			m, err := f.median(data, 0, 100, 0.5)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if m < 0 || m > 100 {
				t.Fatalf("%s: median %v escapes domain [0,100]", f.Name(), m)
			}
		}
	}
}

func TestAllFindersHandleEmptyInput(t *testing.T) {
	src := rng.New(3)
	for _, f := range allFinders(src) {
		m, err := f.median(nil, 0, 10, 0.5)
		if err != nil {
			t.Fatalf("%s on empty input: %v", f.Name(), err)
		}
		if m < 0 || m > 10 {
			t.Fatalf("%s: empty-input median %v outside domain", f.Name(), m)
		}
	}
}

func TestEMAccurateAtHighEps(t *testing.T) {
	src := rng.New(4)
	em := seeded{&EM{}, src}
	data := uniformData(2001, 0, 1000) // median 500.25
	var errSum float64
	const trials = 50
	for i := 0; i < trials; i++ {
		m, err := em.median(data, 0, 1000, 5.0)
		if err != nil {
			t.Fatal(err)
		}
		errSum += RankError(data, m)
	}
	if avg := errSum / trials; avg > 0.01 {
		t.Errorf("EM rank error at eps=5: %v, want < 1%%", avg)
	}
}

func TestEMDegradesAtLowEps(t *testing.T) {
	src := rng.New(5)
	em := seeded{&EM{}, src}
	data := uniformData(101, 0, 1000)
	hi := avgRankError(t, em, data, 0, 1000, 5.0, 80)
	lo := avgRankError(t, em, data, 0, 1000, 0.001, 80)
	if lo <= hi {
		t.Errorf("rank error should grow as eps shrinks: eps=5 %v vs eps=0.001 %v", hi, lo)
	}
}

func avgRankError(t *testing.T, f seeded, data []float64, lo, hi, eps float64, trials int) float64 {
	t.Helper()
	var sum float64
	for i := 0; i < trials; i++ {
		m, err := f.median(data, lo, hi, eps)
		if err != nil {
			t.Fatal(err)
		}
		sum += RankError(data, m)
	}
	return sum / float64(trials)
}

func TestEMIdenticalValues(t *testing.T) {
	src := rng.New(6)
	em := seeded{&EM{}, src}
	data := []float64{7, 7, 7, 7, 7}
	m, err := em.median(data, 0, 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if m < 0 || m > 10 {
		t.Errorf("median %v outside domain", m)
	}
}

func TestSmoothSensitivityProperties(t *testing.T) {
	data := uniformData(101, 0, 100)
	// ξ → ∞ kills every k > 0 term: σ_s = local sensitivity at k=0.
	sigmaTight := SmoothSensitivity(data, 0, 100, 1e9)
	m := lowerMedianIndex(len(data))
	localMax := 0.0
	x := func(i int) float64 {
		if i < 1 {
			return 0.0
		}
		if i > len(data) {
			return 100.0
		}
		return data[i-1]
	}
	for tt := 0; tt <= 1; tt++ {
		if d := x(m+tt) - x(m+tt-1); d > localMax {
			localMax = d
		}
	}
	if math.Abs(sigmaTight-localMax) > 1e-9 {
		t.Errorf("sigma at huge xi = %v, want local sensitivity %v", sigmaTight, localMax)
	}
	// ξ = 0 gives the global bound: the whole range.
	sigmaLoose := SmoothSensitivity(data, 0, 100, 0)
	if math.Abs(sigmaLoose-100) > 1e-9 {
		t.Errorf("sigma at xi=0 = %v, want 100 (global)", sigmaLoose)
	}
	// Monotone: smaller ξ (less smoothing decay) cannot shrink σ_s.
	s1 := SmoothSensitivity(data, 0, 100, 0.01)
	s2 := SmoothSensitivity(data, 0, 100, 0.1)
	if s1 < s2 {
		t.Errorf("sigma should not increase with xi: xi=0.01 %v < xi=0.1 %v", s1, s2)
	}
	// σ_s never exceeds the domain size.
	if s1 > 100 || s2 > 100 {
		t.Error("sigma exceeds domain size")
	}
}

func TestSSMedianReasonable(t *testing.T) {
	src := rng.New(7)
	ss := seeded{&SS{Delta: 1e-4}, src}
	data := uniformData(5001, 0, 1000)
	if avg := avgRankError(t, ss, data, 0, 1000, 0.9, 40); avg > 0.15 {
		t.Errorf("SS rank error at eps=0.9: %v, want < 0.15", avg)
	}
}

func TestSSRejectsBadParams(t *testing.T) {
	src := rng.New(8)
	ss := seeded{&SS{Delta: 0}, src}
	if _, err := ss.median([]float64{1, 2}, 0, 10, 0.5); err == nil {
		t.Error("delta=0 should error")
	}
	ss = seeded{&SS{Delta: 1e-4}, src}
	if _, err := ss.median([]float64{1, 2}, 0, 10, 2.0); err == nil {
		t.Error("eps >= 1 should error (Definition 4 requires eps < 1)")
	}
}

func TestNMOnSymmetricData(t *testing.T) {
	src := rng.New(9)
	nm := seeded{&NM{}, src}
	data := uniformData(10001, 400, 600) // mean == median == 500
	var sum float64
	const trials = 40
	for i := 0; i < trials; i++ {
		m, err := nm.median(data, 0, 1000, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		sum += m
	}
	if avg := sum / trials; math.Abs(avg-500) > 10 {
		t.Errorf("NM average = %v, want ~500", avg)
	}
}

func TestNMSkewBias(t *testing.T) {
	// On skewed data the mean is a poor median surrogate — the failure mode
	// the paper attributes to kd-noisymean. 90% of mass near 0, 10% at 1000.
	src := rng.New(10)
	nm := seeded{&NM{}, src}
	data := make([]float64, 0, 1000)
	for i := 0; i < 900; i++ {
		data = append(data, float64(i%10))
	}
	for i := 0; i < 100; i++ {
		data = append(data, 1000)
	}
	var sum float64
	const trials = 40
	for i := 0; i < trials; i++ {
		m, _ := nm.median(data, 0, 1000, 2.0)
		sum += m
	}
	avg := sum / trials
	trueMed, _ := exactMedian(data, 0, 1000)
	if avg < trueMed+50 {
		t.Errorf("NM should be pulled far above the true median %v, got %v", trueMed, avg)
	}
}

func TestNMZeroEps(t *testing.T) {
	src := rng.New(11)
	nm := seeded{&NM{}, src}
	m, err := nm.median([]float64{1, 2, 3}, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m != 5 {
		t.Errorf("zero-eps NM = %v, want midpoint 5", m)
	}
}

func TestCellMedian(t *testing.T) {
	src := rng.New(12)
	c := seeded{&Cell{Cells: 256}, src}
	data := uniformData(4096, 0, 1000)
	if avg := avgRankError(t, c, data, 0, 1000, 1.0, 40); avg > 0.05 {
		t.Errorf("cell rank error = %v, want < 0.05", avg)
	}
	// Needs at least one cell.
	bad := seeded{&Cell{Cells: 0}, src}
	if _, err := bad.median(data, 0, 1000, 1.0); err == nil {
		t.Error("zero cells should error")
	}
}

func TestCellCoarseGridLimitsAccuracy(t *testing.T) {
	// With a single cell the method can only interpolate linearly across the
	// whole domain — skewed data then yields a biased median.
	src := rng.New(13)
	c := seeded{&Cell{Cells: 1}, src}
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 10 // all mass at 10, true median 10
	}
	m, err := c.median(data, 0, 1000, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if m < 400 {
		t.Errorf("one-cell median = %v; expected ~500 (interpolation artifact)", m)
	}
}

func TestSampledWrapper(t *testing.T) {
	src := rng.New(14)
	src.Split() // once seeded the inner EM, which never drew from it
	s := seeded{&Sampled{Inner: &EM{}, Rate: 0.1}, src.Split()}
	if s.Name() != "em-s" {
		t.Errorf("Name = %q, want em-s", s.Name())
	}
	data := uniformData(20000, 0, 1000)
	if avg := avgRankError(t, s, data, 0, 1000, 0.1, 20); avg > 0.1 {
		t.Errorf("sampled EM rank error = %v, want < 0.1", avg)
	}
	src.Split() // likewise
	bad := seeded{&Sampled{Inner: &EM{}, Rate: 0}, src.Split()}
	if _, err := bad.median(data, 0, 1000, 0.1); err == nil {
		t.Error("rate 0 should error")
	}
}

func TestRankError(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := RankError(data, 5.5); got != 0 {
		t.Errorf("RankError at true median = %v, want 0", got)
	}
	if got := RankError(data, 1.5); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("RankError near min = %v, want 0.4", got)
	}
	if got := RankError(data, -5); got != 1 {
		t.Errorf("RankError below range = %v, want 1 (worst case)", got)
	}
	if got := RankError(data, 50); got != 1 {
		t.Errorf("RankError above range = %v, want 1 (worst case)", got)
	}
	if got := RankError(nil, 3); got != 0 {
		t.Errorf("RankError on empty = %v, want 0", got)
	}
}

// Lemma 6: under the 80/20 rule, EM lands in [x_{n/5}, x_{4n/5}] with
// probability at least 1/6, and SS with probability > (1 − e^{-ε/4})/2.
func TestLemma6(t *testing.T) {
	src := rng.New(15)
	// Uniform data satisfies the 80/20 rule: the central 80% of the data
	// spans 80% >= 20% of the range.
	const n = 4001
	data := uniformData(n, 0, 1000)
	loQ, hiQ := data[n/5], data[4*n/5]
	if hiQ-loQ < 1000/5 {
		t.Fatal("test data violates the 80/20 precondition")
	}

	const trials = 400
	const eps = 0.5

	em := seeded{&EM{}, src.Split()}
	hits := 0
	for i := 0; i < trials; i++ {
		m, err := em.median(data, 0, 1000, eps)
		if err != nil {
			t.Fatal(err)
		}
		if m >= loQ && m <= hiQ {
			hits++
		}
	}
	if frac := float64(hits) / trials; frac < 1.0/6 {
		t.Errorf("EM good-split probability %v < Lemma 6 bound 1/6", frac)
	}

	ss := seeded{&SS{Delta: 1e-4}, src.Split()}
	// Check the ξn ≥ 4.03 precondition of Lemma 6(i).
	xi := eps / (4 * (1 + math.Log(2/1e-4)))
	if xi*float64(n) < 4.03 {
		t.Fatalf("precondition xi*n >= 4.03 violated: %v", xi*float64(n))
	}
	hits = 0
	for i := 0; i < trials; i++ {
		m, err := ss.median(data, 0, 1000, eps)
		if err != nil {
			t.Fatal(err)
		}
		if m >= loQ && m <= hiQ {
			hits++
		}
	}
	bound := 0.5 * (1 - math.Exp(-eps/4))
	if frac := float64(hits) / trials; frac < bound {
		t.Errorf("SS good-split probability %v < Lemma 6 bound %v", frac, bound)
	}
}

// The paper's Figure 4 ordering at depth 0: EM is the most accurate method;
// NM is poor on skewed data.
func TestFinderRelativeQuality(t *testing.T) {
	src := rng.New(16)
	// Skewed data: exponential-ish spacing.
	n := 8192
	data := make([]float64, n)
	for i := range data {
		u := (float64(i) + 0.5) / float64(n)
		data[i] = 1000 * u * u * u // cubed: mass concentrated near 0
	}
	const eps = 0.5
	em := avgRankError(t, seeded{&EM{}, src.Split()}, data, 0, 1000, eps, 30)
	nm := avgRankError(t, seeded{&NM{}, src.Split()}, data, 0, 1000, eps, 30)
	if em >= nm {
		t.Errorf("EM (%v) should beat NM (%v) on skewed data", em, nm)
	}
}

func BenchmarkEMMedian(b *testing.B) {
	src := rng.New(100)
	em := seeded{&EM{}, src}
	data := uniformData(1<<16, 0, 1<<26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.median(data, 0, 1<<26, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSMedian(b *testing.B) {
	src := rng.New(101)
	ss := seeded{&SS{Delta: 1e-4}, src}
	data := uniformData(1<<16, 0, 1<<26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.median(data, 0, 1<<26, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
