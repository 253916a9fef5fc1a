package grid

import (
	"math"
	"testing"

	"psd/internal/geom"
	"psd/internal/rng"
)

func uniformPoints(n int, dom geom.Rect, seed int64) []geom.Point {
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: src.UniformIn(dom.Lo.X, dom.Hi.X),
			Y: src.UniformIn(dom.Lo.Y, dom.Hi.Y),
		}
	}
	return pts
}

func TestBuildValidation(t *testing.T) {
	dom := geom.NewRect(0, 0, 1, 1)
	if _, err := Build(nil, dom, 0, 4, 0, nil); err == nil {
		t.Error("zero nx should error")
	}
	if _, err := Build(nil, geom.Rect{}, 4, 4, 0, nil); err == nil {
		t.Error("empty domain should error")
	}
	if _, err := Build(nil, dom, 4, 4, -1, nil); err == nil {
		t.Error("negative eps should error")
	}
	if _, err := Build(nil, dom, 4, 4, 1, nil); err == nil {
		t.Error("nil noise should error")
	}
	if _, err := Build(nil, dom, 1<<14, 1<<14, 0, nil); err == nil {
		t.Error("oversized grid should error")
	}
}

func TestExactCountsWithZeroNoise(t *testing.T) {
	dom := geom.NewRect(0, 0, 4, 4)
	pts := []geom.Point{
		{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.6}, // cell (0,0)
		{X: 3.5, Y: 3.5}, // cell (3,3)
		{X: 2.1, Y: 0.2}, // cell (2,0)
	}
	g, err := Build(pts, dom, 4, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Noisy(0, 0); got != 2 {
		t.Errorf("cell (0,0) = %v, want 2", got)
	}
	if got := g.Noisy(3, 3); got != 1 {
		t.Errorf("cell (3,3) = %v, want 1", got)
	}
	if got := g.Noisy(2, 0); got != 1 {
		t.Errorf("cell (2,0) = %v, want 1", got)
	}
	if got := g.Noisy(1, 1); got != 0 {
		t.Errorf("cell (1,1) = %v, want 0", got)
	}
	nx, ny := g.Dims()
	if nx != 4 || ny != 4 {
		t.Errorf("Dims = %d,%d", nx, ny)
	}
	if g.Epsilon() != 0 {
		t.Errorf("Epsilon = %v", g.Epsilon())
	}
	if g.Domain() != dom {
		t.Error("Domain not preserved")
	}
}

func TestOutOfDomainPointsClampToBoundaryCells(t *testing.T) {
	dom := geom.NewRect(0, 0, 4, 4)
	pts := []geom.Point{{X: -1, Y: -1}, {X: 99, Y: 99}, {X: 4, Y: 4}}
	g, err := Build(pts, dom, 4, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Noisy(0, 0) != 1 {
		t.Errorf("low clamp cell = %v, want 1", g.Noisy(0, 0))
	}
	if g.Noisy(3, 3) != 2 {
		t.Errorf("high clamp cell = %v, want 2 (incl. boundary point)", g.Noisy(3, 3))
	}
}

func TestQueryAlignedExact(t *testing.T) {
	dom := geom.NewRect(0, 0, 8, 8)
	pts := uniformPoints(2000, dom, 1)
	g, err := Build(pts, dom, 8, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cell-aligned query is exact under zero noise.
	q := geom.NewRect(2, 2, 6, 6)
	want := float64(geom.CountIn(pts, q))
	if got := g.Query(q); math.Abs(got-want) > 1e-9 {
		t.Errorf("aligned query = %v, want %v", got, want)
	}
	// The full domain returns every point.
	if got := g.Query(dom); math.Abs(got-2000) > 1e-9 {
		t.Errorf("full-domain query = %v, want 2000", got)
	}
	// Disjoint queries return 0.
	if got := g.Query(geom.NewRect(100, 100, 101, 101)); got != 0 {
		t.Errorf("disjoint query = %v, want 0", got)
	}
}

func TestQueryUnalignedUsesUniformity(t *testing.T) {
	dom := geom.NewRect(0, 0, 2, 2)
	// One point in each unit cell.
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 1.5, Y: 0.5}, {X: 0.5, Y: 1.5}, {X: 1.5, Y: 1.5}}
	g, err := Build(pts, dom, 2, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A query covering the left half of each left cell: uniformity says
	// half the mass of the two left cells = 1.
	q := geom.NewRect(0, 0, 0.5, 2)
	if got := g.Query(q); math.Abs(got-1) > 1e-9 {
		t.Errorf("unaligned query = %v, want 1 (uniformity)", got)
	}
	if got := g.TrueCount(q); math.Abs(got-1) > 1e-9 {
		t.Errorf("TrueCount = %v, want 1", got)
	}
}

func TestNoiseScalesWithEps(t *testing.T) {
	dom := geom.NewRect(0, 0, 16, 16)
	pts := uniformPoints(4096, dom, 2)
	q := geom.NewRect(0, 0, 16, 8)
	errAt := func(eps float64, seed int64) float64 {
		var sum float64
		const trials = 30
		for i := int64(0); i < trials; i++ {
			g, err := Build(pts, dom, 16, 16, eps, rng.New(seed+i))
			if err != nil {
				t.Fatal(err)
			}
			d := g.Query(q) - g.TrueCount(q)
			sum += math.Abs(d)
		}
		return sum / trials
	}
	strict := errAt(0.05, 100)
	loose := errAt(5.0, 200)
	if loose >= strict {
		t.Errorf("error at eps=5 (%v) should be below eps=0.05 (%v)", loose, strict)
	}
}

func TestMedianAlong(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	// All mass on the left quarter: median along X should sit around x=12.5.
	var pts []geom.Point
	src := rng.New(3)
	for i := 0; i < 10000; i++ {
		pts = append(pts, geom.Point{X: src.UniformIn(0, 25), Y: src.UniformIn(0, 100)})
	}
	g, err := Build(pts, dom, 100, 100, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := g.MedianAlong(dom, geom.AxisX)
	if m < 10 || m > 15 {
		t.Errorf("median X = %v, want ≈ 12.5", m)
	}
	// Along Y the data is uniform: median ≈ 50.
	m = g.MedianAlong(dom, geom.AxisY)
	if m < 45 || m > 55 {
		t.Errorf("median Y = %v, want ≈ 50", m)
	}
	// Restricted to a subregion, the median respects the restriction.
	sub := geom.NewRect(0, 0, 10, 100)
	m = g.MedianAlong(sub, geom.AxisX)
	if m < 4 || m > 6 {
		t.Errorf("restricted median X = %v, want ≈ 5", m)
	}
}

func TestMedianAlongDegenerate(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	g, err := Build(nil, dom, 10, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No mass anywhere: midpoint.
	if m := g.MedianAlong(dom, geom.AxisX); m != 5 {
		t.Errorf("empty median = %v, want 5", m)
	}
	// Degenerate region: its own low coordinate.
	deg := geom.Rect{Lo: geom.Point{X: 3, Y: 0}, Hi: geom.Point{X: 3, Y: 10}}
	if m := g.MedianAlong(deg, geom.AxisX); m != 3 {
		t.Errorf("degenerate median = %v, want 3", m)
	}
	// Region outside the domain: midpoint of the region's extent.
	out := geom.NewRect(50, 50, 60, 60)
	if m := g.MedianAlong(out, geom.AxisX); m != 55 {
		t.Errorf("outside median = %v, want 55", m)
	}
}

func TestMedianAlongStaysInRange(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	pts := uniformPoints(1000, dom, 4)
	g, err := Build(pts, dom, 20, 20, 0.1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{
		dom,
		geom.NewRect(2, 3, 7, 8),
		geom.NewRect(9.5, 9.5, 10, 10),
	} {
		for _, ax := range []geom.Axis{geom.AxisX, geom.AxisY} {
			m := g.MedianAlong(r, ax)
			lo, hi := r.Range(ax)
			if m < lo || m > hi {
				t.Errorf("median %v outside [%v,%v] for %v/%v", m, lo, hi, r, ax)
			}
		}
	}
}

func TestFineGridNoiseSwampsSparseData(t *testing.T) {
	// Section 1's motivating failure: a fine grid over sparse data yields
	// answers dominated by noise. A 64x64 grid with only 50 points at
	// eps=0.1 has per-cell noise stdev ≈ 14 and a large query touches
	// thousands of cells — the signal drowns.
	dom := geom.NewRect(0, 0, 64, 64)
	pts := uniformPoints(50, dom, 6)
	g, err := Build(pts, dom, 64, 64, 0.1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	q := geom.NewRect(0, 0, 48, 48)
	truth := g.TrueCount(q)
	var absErr float64
	const trials = 20
	for i := 0; i < trials; i++ {
		g, _ = Build(pts, dom, 64, 64, 0.1, rng.New(int64(100+i)))
		absErr += math.Abs(g.Query(q) - truth)
	}
	absErr /= trials
	if absErr < truth {
		t.Errorf("expected noise (%v) to dominate the signal (%v) on a fine grid",
			absErr, truth)
	}
}
