package rng

import (
	"math"
	"sort"
	"testing"
)

func TestDeterminismBySeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("same seed should produce identical streams")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Uniform() != c.Uniform() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(7)
	c1 := s.Split()
	c2 := s.Split()
	if c1.Uniform() == c2.Uniform() && c1.Uniform() == c2.Uniform() {
		t.Error("split sources appear correlated")
	}
}

func TestLaplaceMoments(t *testing.T) {
	s := New(1)
	const n = 200000
	const b = 2.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Laplace(b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	want := 2 * b * b
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Laplace variance = %v, want ~%v", variance, want)
	}
}

func TestLaplaceMedianAndSymmetry(t *testing.T) {
	s := New(2)
	const n = 100000
	pos := 0
	for i := 0; i < n; i++ {
		if s.Laplace(1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("positive fraction = %v, want ~0.5", frac)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	s := New(3)
	for i := 0; i < 10; i++ {
		if s.Laplace(0) != 0 {
			t.Fatal("Laplace(0) must be exactly 0")
		}
	}
}

func TestLaplaceNegativeScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative scale")
		}
	}()
	New(1).Laplace(-1)
}

func TestLaplaceTailQuantile(t *testing.T) {
	// Pr[|X| > b·ln(1/q)] = q for Laplace(b).
	s := New(4)
	const n = 100000
	const b = 1.0
	thr := b * math.Log(1/0.05) // 5% two-sided tail
	exceed := 0
	for i := 0; i < n; i++ {
		if math.Abs(s.Laplace(b)) > thr {
			exceed++
		}
	}
	frac := float64(exceed) / n
	if math.Abs(frac-0.05) > 0.01 {
		t.Errorf("tail fraction = %v, want ~0.05", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(5)
	const n = 100000
	const lambda = 3.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(lambda)
	}
	mean := sum / n
	if math.Abs(mean-1/lambda)/(1/lambda) > 0.05 {
		t.Errorf("Exponential mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(6)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Gaussian(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Gaussian mean = %v, want ~3", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("Gaussian sd = %v, want ~2", sd)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(8)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", frac)
	}
}

func TestUniformIn(t *testing.T) {
	s := New(9)
	for i := 0; i < 1000; i++ {
		v := s.UniformIn(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("UniformIn out of range: %v", v)
		}
	}
}

func TestSampleBernoulli(t *testing.T) {
	s := New(10)
	const n = 50000
	idx := s.SampleBernoulli(n, 0.1)
	frac := float64(len(idx)) / n
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("sample rate = %v, want ~0.1", frac)
	}
	if !sort.IntsAreSorted(idx) {
		t.Error("sample indices should be emitted in order")
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			t.Fatalf("index out of range: %d", i)
		}
	}
	if got := s.SampleBernoulli(100, 0); len(got) != 0 {
		t.Error("p=0 should sample nothing")
	}
	if got := s.SampleBernoulli(100, 1); len(got) != 100 {
		t.Error("p=1 should sample everything")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(11)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make(map[int]bool)
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("shuffle lost elements: %v", vals)
	}
}
