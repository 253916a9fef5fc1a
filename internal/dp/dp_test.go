package dp

import (
	"math"
	"testing"

	"psd/internal/rng"
)

// The Laplace draw the mechanism adds: unbiased, with variance
// LaplaceVariance.
func TestLaplaceMechanismUnbiased(t *testing.T) {
	src := rng.New(1)
	const n = 100000
	const truth, sens, eps = 40.0, 1.0, 0.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := truth + src.Laplace(sens/eps)
		sum += v
		d := v - truth
		sumSq += d * d
	}
	mean := sum / n
	if math.Abs(mean-truth) > 0.1 {
		t.Errorf("mean = %v, want ~%v", mean, truth)
	}
	wantVar := LaplaceVariance(sens, eps)
	gotVar := sumSq / n
	if math.Abs(gotVar-wantVar)/wantVar > 0.05 {
		t.Errorf("variance = %v, want ~%v", gotVar, wantVar)
	}
}

// SeededLaplace draws stream i's variate from stream i alone: any call
// order gives the same values, and across streams the noise is unbiased
// with the Laplace variance.
func TestSeededLaplaceStreams(t *testing.T) {
	l := NewSeededLaplace(1)
	const n = 100000
	const truth, sens, eps = 40.0, 1.0, 0.5
	vals := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		vals[i] = l.AddAt(uint64(i), truth, sens, eps)
	}
	var sum, sumSq float64
	for i, v := range vals {
		if again := l.AddAt(uint64(i), truth, sens, eps); again != v {
			t.Fatalf("stream %d: %v then %v", i, v, again)
		}
		sum += v
		sumSq += (v - truth) * (v - truth)
	}
	if mean := sum / n; math.Abs(mean-truth) > 0.1 {
		t.Errorf("mean = %v, want ~%v", mean, truth)
	}
	wantVar := l.Variance(sens, eps)
	if gotVar := sumSq / n; math.Abs(gotVar-wantVar)/wantVar > 0.05 {
		t.Errorf("variance = %v, want ~%v", gotVar, wantVar)
	}
}

func TestLaplaceVariance(t *testing.T) {
	if v := LaplaceVariance(1, 1); math.Abs(v-2) > 1e-12 {
		t.Errorf("Var(Lap(1)) = %v, want 2", v)
	}
	if v := LaplaceVariance(2, 0.5); math.Abs(v-32) > 1e-12 {
		t.Errorf("Var(Lap(4)) = %v, want 32", v)
	}
	if !math.IsInf(LaplaceVariance(1, 0), 1) {
		t.Error("zero eps should have infinite variance")
	}
	l := NewSeededLaplace(1)
	if l.Variance(1, 1) != LaplaceVariance(1, 1) {
		t.Error("method and function disagree")
	}
}

func TestLaplaceZeroEpsPassesThrough(t *testing.T) {
	l := NewSeededLaplace(1)
	if got := l.AddAt(0, 7, 1, 0); got != 7 {
		t.Errorf("eps=0 AddAt = %v, want passthrough 7", got)
	}
}

func TestExpMechanismConcentratesOnHighScores(t *testing.T) {
	src := rng.New(3)
	scores := []float64{0, -1, -2, -10}
	counts := make([]int, len(scores))
	const n = 20000
	for i := 0; i < n; i++ {
		idx, err := ExpMechanism(src, scores, nil, 4.0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	// exp(0) : exp(-2) : exp(-4) : exp(-20); outcome 0 dominates.
	if frac := float64(counts[0]) / n; frac < 0.80 {
		t.Errorf("best outcome frequency = %v, want > 0.80", frac)
	}
	if counts[3] > n/100 {
		t.Errorf("worst outcome chosen %d times, want rare", counts[3])
	}
	// Monotone: better scores chosen at least roughly as often.
	if counts[1] < counts[2] {
		t.Errorf("score ordering not respected: %v", counts)
	}
}

func TestExpMechanismUniformAtZeroEps(t *testing.T) {
	src := rng.New(4)
	scores := []float64{0, -5, -10}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		idx, err := ExpMechanism(src, scores, nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Errorf("eps=0 outcome %d frequency = %v, want ~1/3", i, frac)
		}
	}
}

func TestExpMechanismBaseWeights(t *testing.T) {
	src := rng.New(5)
	scores := []float64{0, 0}
	weight := []float64{3, 1}
	hits := 0
	const n = 40000
	for i := 0; i < n; i++ {
		idx, err := ExpMechanism(src, scores, weight, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("weighted pick rate = %v, want ~0.75", frac)
	}
	// Zero-weight outcomes are never selected.
	for i := 0; i < 1000; i++ {
		idx, err := ExpMechanism(src, []float64{0, 100}, []float64{1, 0}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			t.Fatal("zero-weight outcome selected")
		}
	}
}

func TestExpMechanismErrors(t *testing.T) {
	src := rng.New(6)
	if _, err := ExpMechanism(src, nil, nil, 1, 1); err == nil {
		t.Error("empty outcome set should error")
	}
	if _, err := ExpMechanism(src, []float64{1}, []float64{1, 2}, 1, 1); err == nil {
		t.Error("mismatched weights should error")
	}
	if _, err := ExpMechanism(src, []float64{1}, nil, 1, 0); err == nil {
		t.Error("zero sensitivity should error")
	}
	if _, err := ExpMechanism(src, []float64{1}, []float64{-1}, 1, 1); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := ExpMechanism(src, []float64{1, 2}, []float64{0, 0}, 1, 1); err == nil {
		t.Error("all-zero weights should error")
	}
}

func TestExpMechanismNoOverflow(t *testing.T) {
	src := rng.New(7)
	// Huge scores would overflow exp() without the log-space max shift.
	scores := []float64{1e6, 1e6 - 1}
	idx, err := ExpMechanism(src, scores, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 && idx != 1 {
		t.Fatalf("index out of range: %d", idx)
	}
}

func TestSmoothXi(t *testing.T) {
	xi, err := SmoothXi(0.5, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 / (4 * (1 + math.Log(2/1e-4)))
	if math.Abs(xi-want) > 1e-12 {
		t.Errorf("xi = %v, want %v", xi, want)
	}
	for _, bad := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {-1, 0.5}} {
		if _, err := SmoothXi(bad[0], bad[1]); err == nil {
			t.Errorf("SmoothXi(%v,%v) should error", bad[0], bad[1])
		}
	}
}

func TestAmplification(t *testing.T) {
	// Theorem 7: eps' = 2·p·e^eps.
	got := AmplifiedEpsilon(0.9, 0.01)
	want := 2 * 0.01 * math.Exp(0.9)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AmplifiedEpsilon = %v, want %v", got, want)
	}
	// The paper's worked example: sampling at 1% and adding Laplace noise
	// with parameter 0.9 achieves roughly 0.05-DP (the paper rounds to 0.1).
	if got > 0.1 {
		t.Errorf("paper example: amplified eps %v should be ≤ 0.1", got)
	}
	if AmplifiedEpsilon(1, 0) != 0 {
		t.Error("p=0 amplifies to 0")
	}
	// p > 1 is clamped.
	if AmplifiedEpsilon(1, 2) != AmplifiedEpsilon(1, 1) {
		t.Error("p > 1 should clamp")
	}
}

func TestSampledBudget(t *testing.T) {
	// Round trip: budget for target then amplify back.
	eps, err := SampledBudget(0.1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	back := AmplifiedEpsilon(eps, 0.01)
	if math.Abs(back-0.1) > 1e-12 {
		t.Errorf("round trip = %v, want 0.1", back)
	}
	if _, err := SampledBudget(0.1, 0.2); err == nil {
		t.Error("unachievable target should error (needs eps<=0)")
	}
	if _, err := SampledBudget(0, 0.01); err == nil {
		t.Error("zero target should error")
	}
	if _, err := SampledBudget(0.1, 0); err == nil {
		t.Error("zero rate should error")
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(1.0)
	if err := a.Charge("root count", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge("leaf count", 0.6); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Spent()-1.0) > 1e-12 {
		t.Errorf("Spent = %v, want 1.0", a.Spent())
	}
	if a.Remaining() != 0 {
		t.Errorf("Remaining = %v, want 0", a.Remaining())
	}
	if err := a.Charge("over", 0.01); err == nil {
		t.Error("overspend should error")
	}
	if len(a.Charges()) != 2 {
		t.Errorf("Charges len = %d, want 2 (failed charge must not record)", len(a.Charges()))
	}
	if a.Budget() != 1.0 {
		t.Errorf("Budget = %v", a.Budget())
	}
	if err := a.Charge("negative", -0.1); err == nil {
		t.Error("negative charge should error")
	}
}

func TestAccountantFloatTolerance(t *testing.T) {
	// Ten charges of eps/10 must exactly exhaust the budget despite float
	// rounding — this mirrors the uniform budget strategy.
	a := NewAccountant(0.1)
	for i := 0; i < 10; i++ {
		if err := a.Charge("level", 0.1/10); err != nil {
			t.Fatalf("charge %d rejected: %v", i, err)
		}
	}
}

func TestCompose(t *testing.T) {
	if got := Compose(0.1, 0.2, 0.3); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Compose = %v, want 0.6", got)
	}
	if Compose() != 0 {
		t.Error("empty composition should be 0")
	}
}

func TestTightAmplification(t *testing.T) {
	// Tight bound is always at most the input eps and at most Theorem 7.
	for _, eps := range []float64{0.1, 0.5, 1, 2} {
		for _, p := range []float64{0.01, 0.1, 0.5, 1} {
			tight := TightAmplifiedEpsilon(eps, p)
			if tight > eps+1e-12 {
				t.Errorf("tight(%v,%v) = %v exceeds eps", eps, p, tight)
			}
			if loose := AmplifiedEpsilon(eps, p); tight > loose {
				t.Errorf("tight(%v,%v) = %v exceeds Theorem 7 bound %v", eps, p, tight, loose)
			}
		}
	}
	// p = 1 is a no-op.
	if got := TightAmplifiedEpsilon(0.7, 1); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("p=1 amplification = %v, want 0.7", got)
	}
	if TightAmplifiedEpsilon(1, 0) != 0 {
		t.Error("p=0 should amplify to 0")
	}
}

func TestTightSampledBudgetRoundTrip(t *testing.T) {
	// The Figure 4 configuration: target 0.01 per level at 1% sampling gives
	// an inner budget ~0.70 — the paper's "about 50 times larger".
	inner, err := TightSampledBudget(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if inner < 0.6 || inner > 0.8 {
		t.Errorf("inner budget = %v, want ≈ 0.70", inner)
	}
	back := TightAmplifiedEpsilon(inner, 0.01)
	if math.Abs(back-0.01) > 1e-12 {
		t.Errorf("round trip = %v, want 0.01", back)
	}
	if _, err := TightSampledBudget(0, 0.01); err == nil {
		t.Error("zero target should error")
	}
	if _, err := TightSampledBudget(0.1, 0); err == nil {
		t.Error("zero rate should error")
	}
}
