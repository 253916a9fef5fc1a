package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v, want 4", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %v, want 2", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if c := r.Center(); c != (Point{2, 1}) {
		t.Errorf("Center = %v, want (2,1)", c)
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported Empty")
	}
	if !NewRect(1, 1, 1, 5).Empty() {
		t.Error("zero-width rect not Empty")
	}
}

func TestNewRectPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with inverted bounds did not panic")
		}
	}()
	NewRect(5, 0, 1, 1)
}

func TestParseRect(t *testing.T) {
	good := []struct {
		in   string
		want Rect
	}{
		{"1,2,3,4", NewRect(1, 2, 3, 4)},
		{" 1 , 2 , 3 , 4 ", NewRect(1, 2, 3, 4)},
		{"3,4,1,2", NewRect(1, 2, 3, 4)},     // both pairs inverted: swapped
		{"10,0,0,10", NewRect(0, 0, 10, 10)}, // NewRect would panic here
		{"0,0,0,10", NewRect(0, 0, 0, 10)},   // degenerate is still a rect
	}
	for _, c := range good {
		got, err := ParseRect(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseRect(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{
		"", "1,2,3", "1,2,3,4,5", "a,b,c,d",
		"NaN,0,1,1", "0,0,Inf,1", "0,-inf,1,1", "0,0,1,1e999",
	} {
		if r, err := ParseRect(bad); err == nil {
			t.Errorf("ParseRect(%q) = %v, want an error", bad, r)
		}
	}
}

func TestContainsHalfOpen(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},     // lower corner included
		{Point{0.5, 0.5}, true}, // interior
		{Point{1, 0.5}, false},  // upper x edge excluded
		{Point{0.5, 1}, false},  // upper y edge excluded
		{Point{1, 1}, false},    // upper corner excluded
		{Point{-0.1, 0.5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !r.ContainsClosed(Point{1, 1}) {
		t.Error("ContainsClosed should include the upper corner")
	}
}

func TestContainsRect(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.ContainsRect(NewRect(2, 2, 8, 8)) {
		t.Error("inner rect should be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if outer.ContainsRect(NewRect(5, 5, 11, 8)) {
		t.Error("overflowing rect should not be contained")
	}
}

func TestIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := NewRect(2, 2, 4, 4)
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}

	// Touching edges do not intersect under the half-open convention.
	c := NewRect(4, 0, 8, 4)
	if a.Intersects(c) {
		t.Error("edge-adjacent rects should not intersect")
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("edge-adjacent Intersect should report no overlap")
	}
}

func TestUnion(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(3, 4, 5, 6)
	u := a.Union(b)
	want := NewRect(0, 0, 5, 6)
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
}

func TestOverlapFraction(t *testing.T) {
	leaf := NewRect(0, 0, 2, 2)
	q := NewRect(1, 0, 5, 2)
	if got := leaf.OverlapFraction(q); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OverlapFraction = %v, want 0.5", got)
	}
	if got := leaf.OverlapFraction(NewRect(10, 10, 11, 11)); got != 0 {
		t.Errorf("disjoint OverlapFraction = %v, want 0", got)
	}
	deg := NewRect(1, 1, 1, 5)
	if got := deg.OverlapFraction(q); got != 0 {
		t.Errorf("degenerate OverlapFraction = %v, want 0", got)
	}
	if got := leaf.OverlapFraction(leaf); math.Abs(got-1) > 1e-12 {
		t.Errorf("self OverlapFraction = %v, want 1", got)
	}
}

func TestQuadrantsTileParent(t *testing.T) {
	r := NewRect(-2, -3, 6, 5)
	qs := r.Quadrants()
	var area float64
	for _, q := range qs {
		area += q.Area()
		if !r.ContainsRect(q) {
			t.Errorf("quadrant %v escapes parent %v", q, r)
		}
	}
	if math.Abs(area-r.Area()) > 1e-9 {
		t.Errorf("quadrant areas sum to %v, want %v", area, r.Area())
	}
	// Pairwise disjoint.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if qs[i].Intersects(qs[j]) {
				t.Errorf("quadrants %d and %d overlap", i, j)
			}
		}
	}
	// Every point in r lands in exactly one quadrant.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		p := Point{
			r.Lo.X + rng.Float64()*r.Width(),
			r.Lo.Y + rng.Float64()*r.Height(),
		}
		hits := 0
		for _, q := range qs {
			if q.Contains(p) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("point %v contained in %d quadrants, want 1", p, hits)
		}
	}
}

func TestSplitAxes(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	l, rr := r.SplitX(3)
	if l != NewRect(0, 0, 3, 10) || rr != NewRect(3, 0, 10, 10) {
		t.Errorf("SplitX = %v | %v", l, rr)
	}
	b, tp := r.SplitY(7)
	if b != NewRect(0, 0, 10, 7) || tp != NewRect(0, 7, 10, 10) {
		t.Errorf("SplitY = %v | %v", b, tp)
	}
	// Clamping: a wild split point still tiles the parent.
	l, rr = r.SplitX(-5)
	if l.Area() != 0 || rr != r {
		t.Errorf("clamped SplitX = %v | %v", l, rr)
	}
	l2, r2 := r.Split(AxisY, 4)
	wantL, wantR := r.SplitY(4)
	if l2 != wantL || r2 != wantR {
		t.Error("Split(AxisY) disagrees with SplitY")
	}
}

func TestAxisHelpers(t *testing.T) {
	if AxisX.Next() != AxisY || AxisY.Next() != AxisX {
		t.Error("Axis.Next should alternate")
	}
	p := Point{3, 7}
	if AxisX.Coord(p) != 3 || AxisY.Coord(p) != 7 {
		t.Error("Axis.Coord wrong")
	}
	if AxisX.String() != "x" || AxisY.String() != "y" {
		t.Error("Axis.String wrong")
	}
	lo, hi := NewRect(1, 2, 3, 4).Range(AxisY)
	if lo != 2 || hi != 4 {
		t.Errorf("Range(AxisY) = %v,%v", lo, hi)
	}
}

func TestBoundingBox(t *testing.T) {
	if bb := BoundingBox(nil); bb != (Rect{}) {
		t.Errorf("empty BoundingBox = %v, want zero", bb)
	}
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	bb := BoundingBox(pts)
	for _, p := range pts {
		if !bb.Contains(p) {
			t.Errorf("BoundingBox %v does not contain %v", bb, p)
		}
	}
	if bb.Lo != (Point{-2, -1}) {
		t.Errorf("BoundingBox.Lo = %v", bb.Lo)
	}
}

func TestCountIn(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 2}, {5, 5}}
	if got := CountIn(pts, NewRect(0, 0, 3, 3)); got != 3 {
		t.Errorf("CountIn = %d, want 3", got)
	}
}

// Property: intersection is commutative and contained in both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{Point{ax, ay}, Point{ax + math.Abs(aw), ay + math.Abs(ah)}}
		b := Rect{Point{bx, by}, Point{bx + math.Abs(bw), by + math.Abs(bh)}}
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || i1 != i2 {
			return false
		}
		if ok1 {
			if !a.ContainsRect(i1) || !b.ContainsRect(i1) {
				return false
			}
			if !a.Intersects(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ContainsRect implies Intersects (for non-empty inner rects) and
// OverlapFraction == 1.
func TestContainmentImpliesFullOverlap(t *testing.T) {
	f := func(x, y, w, h, dx, dy float64) bool {
		// Fold arbitrary float inputs into a numerically tame range so the
		// geometry cannot overflow; the property itself is what's under test.
		fold := func(v, scale float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, scale)
		}
		x, y = fold(x, 100), fold(y, 100)
		w, h = math.Abs(fold(w, 50))+0.1, math.Abs(fold(h, 50))+0.1
		outer := Rect{Point{x, y}, Point{x + 4*w, y + 4*h}}
		fx := math.Abs(math.Mod(fold(dx, 3), 1))
		fy := math.Abs(math.Mod(fold(dy, 3), 1))
		inner := Rect{
			Point{x + fx*w, y + fy*h},
			Point{x + fx*w + w, y + fy*h + h},
		}
		if !outer.ContainsRect(inner) {
			return true // construction may overflow with extreme floats; skip
		}
		return outer.Intersects(inner) &&
			math.Abs(inner.OverlapFraction(outer)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
