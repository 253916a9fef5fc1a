package eval

import (
	"bytes"
	"strings"
	"testing"

	"psd/internal/budget"
	"psd/internal/core"
	"psd/internal/workload"
)

// tinyScale keeps unit tests fast; benchmark/bench harness use QuickScale.
var tinyScale = Scale{
	Name:            "tiny",
	Points:          20000,
	QueriesPerShape: 30,
	Reps:            4,
	MedianValues:    1 << 12,
	Seed:            99,
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(Scale{}); err == nil {
		t.Error("zero scale should error")
	}
}

func TestEnvQueriesCached(t *testing.T) {
	env := tinyEnv(t)
	a, err := env.Queries(workload.QueryShape{W: 1, H: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Queries(workload.QueryShape{W: 1, H: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("queries should be cached per shape")
	}
	if len(a.Rects) != tinyScale.QueriesPerShape {
		t.Errorf("got %d queries", len(a.Rects))
	}
}

func TestRelativeErrorsExactTreeNearZero(t *testing.T) {
	env := tinyEnv(t)
	qs, err := env.Queries(workload.QueryShape{W: 5, H: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(env.Data.Points, env.Data.Domain, core.Config{
		Kind: core.Quadtree, Height: 8, NonPrivate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	med := MedianRelativeError(p, qs)
	// A deep exact quadtree's only error is the uniformity assumption on
	// partial leaves — small but non-zero.
	if med > 5 {
		t.Errorf("exact-tree median relative error = %v%%, want < 5%%", med)
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	env := tinyEnv(t)
	// The optimizations' advantage grows with tree height and noise share
	// (Section 4.2); h=8 at eps=0.1 is where Figure 3(a) lives.
	rows, err := Figure3(env, 8, []float64{0.1}, []workload.QueryShape{{W: 5, H: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// The paper's headline: quad-opt beats quad-baseline, by a lot.
	if r.Opt >= r.Baseline {
		t.Errorf("quad-opt (%v) should beat quad-baseline (%v)", r.Opt, r.Baseline)
	}
	// Each single optimization also helps.
	if r.Geo >= r.Baseline {
		t.Errorf("quad-geo (%v) should beat baseline (%v)", r.Geo, r.Baseline)
	}
	if r.Post >= r.Baseline {
		t.Errorf("quad-post (%v) should beat baseline (%v)", r.Post, r.Baseline)
	}
}

func TestFigure4SmallRun(t *testing.T) {
	cfg := Figure4Config{
		Values:     1 << 12,
		Domain:     1 << 20,
		Depths:     4,
		Eps:        0.05,
		Delta:      1e-4,
		SampleRate: 0.05,
		CellWidth:  1 << 10,
		Seed:       7,
	}
	rows, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6*4 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	byMethod := map[string][]Figure4Row{}
	for _, r := range rows {
		byMethod[r.Method] = append(byMethod[r.Method], r)
		if r.RankErr < 0 || r.RankErr > 100 {
			t.Errorf("%s depth %d: rank error %v outside [0,100]", r.Method, r.Depth, r.RankErr)
		}
	}
	for _, m := range []string{"EM", "SS", "EMs", "SSs", "NM", "cell"} {
		if len(byMethod[m]) != 4 {
			t.Errorf("method %s has %d rows", m, len(byMethod[m]))
		}
	}
	// EM at the root of a large uniform dataset is nearly exact (Figure 4a).
	if em := byMethod["EM"][0]; em.RankErr > 5 {
		t.Errorf("EM root rank error = %v%%, want < 5%%", em.RankErr)
	}
	if _, err := Figure4(Figure4Config{}); err == nil {
		t.Error("zero config should error")
	}
}

func TestFigure5SmallRun(t *testing.T) {
	env := tinyEnv(t)
	rows, err := Figure5(env, 4, []float64{1.0}, []workload.QueryShape{{W: 10, H: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	errs := rows[0].Errors
	for _, m := range []string{"kd-pure", "kd-true", "kd-standard", "kd-hybrid", "kd-cell", "kd-noisymean"} {
		if _, ok := errs[m]; !ok {
			t.Errorf("missing method %s", m)
		}
	}
	// All errors are finite and sane. (Private variants are NOT required to
	// lose to kd-pure: kd-pure still pays uniformity-assumption error, and
	// a hybrid's quadtree-shaped leaves can align better with queries. The
	// paper-scale ordering is what `psdbench -paper fig5` regenerates.)
	for m, e := range errs {
		if e < 0 || e > 1e4 {
			t.Errorf("%s: implausible error %v%%", m, e)
		}
	}
	// kd-true (exact medians, noisy counts) stays close to kd-pure: the
	// paper's observation that count noise is not the dominant error source.
	if errs["kd-true"] > errs["kd-pure"]*10+5 {
		t.Errorf("kd-true (%v%%) should stay near kd-pure (%v%%)", errs["kd-true"], errs["kd-pure"])
	}
}

func TestFigure6SmallRun(t *testing.T) {
	env := tinyEnv(t)
	rows, err := Figure6(env, []int{4, 5}, 0.5, []workload.QueryShape{{W: 10, H: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, m := range []string{"quad-opt", "kd-hybrid", "kd-cell", "hilbert-r"} {
			if _, ok := r.Errors[m]; !ok {
				t.Errorf("h=%d missing method %s", r.Height, m)
			}
		}
	}
}

func TestFigure7aSmallRun(t *testing.T) {
	env := tinyEnv(t)
	rows, err := Figure7a(env, 4, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Build <= 0 {
			t.Errorf("%s: non-positive build time", r.Method)
		}
		if r.Nodes <= 0 {
			t.Errorf("%s: no nodes", r.Method)
		}
	}
}

func TestFigure7bSmallRun(t *testing.T) {
	rows, err := Figure7b(Figure7bConfig{PartySize: 1500, Height: 4, Reps: 2, Seed: 5},
		[]float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, m := range []string{"quad-baseline", "kd-noisymean", "kd-standard"} {
			rr, ok := r.Ratios[m]
			if !ok {
				t.Fatalf("missing method %s", m)
			}
			if rr <= 0 || rr > 1 {
				t.Errorf("eps=%v %s: ratio %v outside (0,1]", r.Eps, m, rr)
			}
		}
	}
	// Reduction ratio improves with budget for the kd methods.
	if rows[1].Ratios["kd-standard"] <= rows[0].Ratios["kd-standard"] {
		t.Errorf("kd-standard ratio should improve with eps: %v -> %v",
			rows[0].Ratios["kd-standard"], rows[1].Ratios["kd-standard"])
	}
}

func TestGridBaselineSmallRun(t *testing.T) {
	env := tinyEnv(t)
	rows, err := GridBaseline(env, 256, 6, 0.5,
		[]workload.QueryShape{{W: 1, H: 1}, {W: 10, H: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// On the large query shape the hierarchical structure must beat the
	// flat grid (Section 1's motivation).
	big := rows[1]
	if big.QuadErr >= big.GridErr {
		t.Errorf("large query: quad-opt (%v%%) should beat flat grid (%v%%)",
			big.QuadErr, big.GridErr)
	}
}

func TestSweepsRun(t *testing.T) {
	env := tinyEnv(t)
	shapes := []workload.QueryShape{{W: 5, H: 5}}
	if rows, err := SwitchLevelSweep(env, 3, 0.5, shapes); err != nil || len(rows) != 4 {
		t.Errorf("SwitchLevelSweep: %v (%d rows)", err, len(rows))
	}
	if rows, err := CountFractionSweep(env, 3, 0.5, []float64{0.5, 0.7}, shapes); err != nil || len(rows) != 2 {
		t.Errorf("CountFractionSweep: %v (%d rows)", err, len(rows))
	}
	if rows, err := HilbertOrderSweep(env, 3, 0.5, []uint{10, 16}, shapes); err != nil || len(rows) != 2 {
		t.Errorf("HilbertOrderSweep: %v (%d rows)", err, len(rows))
	}
	if rows, err := GeometricRatioSweep(env, 4, 0.5, []float64{1, 1.26}, shapes); err != nil || len(rows) != 2 {
		t.Errorf("GeometricRatioSweep: %v (%d rows)", err, len(rows))
	}
	if rows, err := PruneThresholdSweep(env, 4, 0.5, []float64{0, 32}, shapes); err != nil || len(rows) != 2 {
		t.Errorf("PruneThresholdSweep: %v (%d rows)", err, len(rows))
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	f2, _ := budget.Figure2(5, 6)
	PrintFigure2(&buf, f2)
	PrintFigure3(&buf, []Figure3Row{{Eps: 0.1, Shape: workload.QueryShape{W: 1, H: 1}}})
	PrintFigure4(&buf, []Figure4Row{{Method: "EM", Depth: 0}})
	PrintFigure5(&buf, []Figure5Row{{Eps: 0.1, Errors: map[string]float64{"kd-pure": 1}}})
	PrintFigure6(&buf, []Figure6Row{{Height: 6, Errors: map[string]float64{"quad-opt": 1}}})
	PrintFigure7a(&buf, []Figure7aRow{{Method: "quadtree"}})
	PrintFigure7b(&buf, []Figure7bRow{{Eps: 0.1, Ratios: map[string]float64{"kd-standard": 0.9}}})
	PrintGridBaseline(&buf, []GridBaselineRow{{}})
	PrintSweep(&buf, "sweep", "l", []SweepRow{{Param: 1, Errors: map[string]float64{"(1,1)": 2}}})
	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7a", "Figure 7b", "Grid baseline", "sweep"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}
