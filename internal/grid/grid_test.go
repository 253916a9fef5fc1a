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

// randomRect draws a rectangle around dom: corners may fall outside it, on
// a cell boundary, or coincide (a degenerate rect).
func randomRect(src *rng.Source, g *Grid) geom.Rect {
	coord := func(lo, hi, cell float64) float64 {
		switch src.Intn(4) {
		case 0: // a cell boundary
			return lo + float64(src.Intn(int((hi-lo)/cell)+1))*cell
		case 1: // past the domain
			return src.UniformIn(lo-(hi-lo)/4, hi+(hi-lo)/4)
		}
		return src.UniformIn(lo, hi)
	}
	d := g.Domain()
	x0, x1 := coord(d.Lo.X, d.Hi.X, g.cellW), coord(d.Lo.X, d.Hi.X, g.cellW)
	y0, y1 := coord(d.Lo.Y, d.Hi.Y, g.cellH), coord(d.Lo.Y, d.Hi.Y, g.cellH)
	if src.Intn(10) == 0 {
		x1 = x0
	}
	return geom.Rect{Lo: geom.Point{X: min(x0, x1), Y: min(y0, y1)}, Hi: geom.Point{X: max(x0, x1), Y: max(y0, y1)}}
}

// TestOverlapMatchesOverlapFraction pins the per-column and per-row
// factoring of MedianAlongBuf bit for bit: (ix·iy)/(cw·ch) from overlap is
// CellRect(cx, cy).OverlapFraction(r) for every cell of random rects,
// zero exactly where a column or row misses r.
func TestOverlapMatchesOverlapFraction(t *testing.T) {
	src := rng.New(8)
	for trial := 0; trial < 20; trial++ {
		x, y := src.UniformIn(-50, 50), src.UniformIn(-50, 50)
		dom := geom.NewRect(x, y, x+src.UniformIn(0.1, 300), y+src.UniformIn(0.1, 300))
		g, err := Build(nil, dom, 1+src.Intn(40), 1+src.Intn(40), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 50; q++ {
			r := randomRect(src, g)
			for cy := 0; cy < g.ny; cy++ {
				for cx := 0; cx < g.nx; cx++ {
					c := g.CellRect(cx, cy)
					want := c.OverlapFraction(r)
					cw, ix := overlap(c.Lo.X, c.Hi.X, r.Lo.X, r.Hi.X)
					ch, iy := overlap(c.Lo.Y, c.Hi.Y, r.Lo.Y, r.Hi.Y)
					got := 0.0
					if a := cw * ch; ix != 0 && iy != 0 && a > 0 {
						got = ix * iy / a
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cell (%d,%d) of %v against %v: factored fraction %v, OverlapFraction %v", cx, cy, c, r, got, want)
					}
				}
			}
		}
	}
}

// medianAlongRef is MedianAlongBuf as it was before the overlaps were
// factored per column and row: one OverlapFraction per cell.
func medianAlongRef(g *Grid, r geom.Rect, axis geom.Axis) float64 {
	lo, hi := r.Range(axis)
	if hi <= lo {
		return lo
	}
	n, cellLo, cellSize := g.nx, g.domain.Lo.X, g.cellW
	if axis == geom.AxisY {
		n, cellLo, cellSize = g.ny, g.domain.Lo.Y, g.cellH
	}
	inter, ok := g.domain.Intersect(r)
	if !ok {
		return (lo + hi) / 2
	}
	x0 := g.clampX(int(math.Floor((inter.Lo.X - g.domain.Lo.X) / g.cellW)))
	x1 := g.clampX(int(math.Ceil((inter.Hi.X-g.domain.Lo.X)/g.cellW)) - 1)
	y0 := g.clampY(int(math.Floor((inter.Lo.Y - g.domain.Lo.Y) / g.cellH)))
	y1 := g.clampY(int(math.Ceil((inter.Hi.Y-g.domain.Lo.Y)/g.cellH)) - 1)
	mass := make([]float64, n)
	var total float64
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			frac := g.CellRect(cx, cy).OverlapFraction(r)
			if frac <= 0 {
				continue
			}
			c := max(g.noisy[cy*g.nx+cx], 0)
			idx := cx
			if axis == geom.AxisY {
				idx = cy
			}
			mass[idx] += frac * c
			total += frac * c
		}
	}
	if total <= 0 {
		return (lo + hi) / 2
	}
	target := total / 2
	var cum float64
	for i := 0; i < n; i++ {
		if cum+mass[i] >= target {
			frac := 0.5
			if mass[i] > 0 {
				frac = (target - cum) / mass[i]
			}
			return clamp(cellLo+(float64(i)+frac)*cellSize, lo, hi)
		}
		cum += mass[i]
	}
	return hi
}

// TestMedianAlongMatchesReference compares MedianAlongBuf with the
// per-cell OverlapFraction reference bit for bit on noisy grids, reusing
// one buffer across calls as the kd-cell builder does.
func TestMedianAlongMatchesReference(t *testing.T) {
	src := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		dom := geom.NewRect(0, 0, src.UniformIn(1, 200), src.UniformIn(1, 200))
		g, err := Build(uniformPoints(2000, dom, int64(trial)), dom, 1+src.Intn(60), 1+src.Intn(60), 0.5, rng.New(int64(10+trial)))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, g.MedianBufLen())
		for q := 0; q < 200; q++ {
			r := randomRect(src, g)
			for _, ax := range []geom.Axis{geom.AxisX, geom.AxisY} {
				got, want := g.MedianAlongBuf(r, ax, buf), medianAlongRef(g, r, ax)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v along %v: MedianAlongBuf %v, reference %v", r, ax, got, want)
				}
			}
		}
	}
}
