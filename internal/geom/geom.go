// Package geom provides the two-dimensional geometric primitives used by
// every spatial decomposition in this library: points, axis-aligned
// rectangles, and the intersection / containment / area operations the
// canonical range-query algorithm relies on.
//
// Conventions: rectangles are half-open boxes [Lo.X, Hi.X) × [Lo.Y, Hi.Y),
// so the children of a split tile their parent exactly and every point
// belongs to exactly one leaf. Degenerate rectangles (zero width or height)
// are permitted and have zero area.
package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Rect is the half-open axis-aligned box [Lo.X, Hi.X) × [Lo.Y, Hi.Y).
// A Rect is valid when Lo.X <= Hi.X and Lo.Y <= Hi.Y.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle with the given bounds. It panics if the
// bounds are inverted; construction errors here are always programmer errors.
func NewRect(loX, loY, hiX, hiY float64) Rect {
	r := Rect{Lo: Point{loX, loY}, Hi: Point{hiX, hiY}}
	if !r.Valid() {
		panic(fmt.Sprintf("geom: invalid rect [%v,%v)x[%v,%v)", loX, hiX, loY, hiY))
	}
	return r
}

// Valid reports whether the rectangle's bounds are ordered.
func (r Rect) Valid() bool {
	return r.Lo.X <= r.Hi.X && r.Lo.Y <= r.Hi.Y
}

// ParseRect parses user input of the form "lox,loy,hix,hiy" (whitespace
// around each number allowed) into a rectangle by way of RectFrom, so
// non-finite bounds are an error and inverted ones are swapped. Unlike
// NewRect it never panics: bad input is the user's error, not the caller's.
func ParseRect(s string) (Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return Rect{}, fmt.Errorf("want lox,loy,hix,hiy, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Rect{}, fmt.Errorf("bad coordinate %q", p)
		}
		v[i] = f
	}
	return RectFrom(v)
}

// RectFrom builds a rectangle from the bounds {lox, loy, hix, hiy},
// swapping inverted pairs. It fails if any bound is NaN or ±Inf.
func RectFrom(v [4]float64) (Rect, error) {
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Rect{}, fmt.Errorf("non-finite rect %v", v)
		}
	}
	if v[2] < v[0] {
		v[0], v[2] = v[2], v[0]
	}
	if v[3] < v[1] {
		v[1], v[3] = v[3], v[1]
	}
	return Rect{Lo: Point{v[0], v[1]}, Hi: Point{v[2], v[3]}}, nil
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Empty reports whether r contains no points (zero width or height).
func (r Rect) Empty() bool { return r.Width() <= 0 || r.Height() <= 0 }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether the point p lies inside the half-open box r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsClosed reports whether p lies in the closure of r (boundary
// included). Queries use this when the data domain's upper edge must be
// inclusive.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Lo.X >= r.Lo.X && s.Hi.X <= r.Hi.X &&
		s.Lo.Y >= r.Lo.Y && s.Hi.Y <= r.Hi.Y
}

// Intersects reports whether r and s share interior points.
func (r Rect) Intersects(s Rect) bool {
	return r.Lo.X < s.Hi.X && s.Lo.X < r.Hi.X &&
		r.Lo.Y < s.Hi.Y && s.Lo.Y < r.Hi.Y
}

// Intersect returns the overlap of r and s. The second result is false when
// the rectangles do not overlap, in which case the returned Rect is the zero
// value.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Lo: Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)},
	}
	if out.Lo.X >= out.Hi.X || out.Lo.Y >= out.Hi.Y {
		return Rect{}, false
	}
	return out, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Lo: Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// OverlapFraction returns area(r ∩ q) / area(r), the fraction of r covered
// by q. It returns 0 when r has zero area or the boxes do not overlap.
// This is the uniformity-assumption weight used when a query partially
// intersects a leaf.
func (r Rect) OverlapFraction(q Rect) float64 {
	a := r.Area()
	if a <= 0 {
		return 0
	}
	inter, ok := r.Intersect(q)
	if !ok {
		return 0
	}
	return inter.Area() / a
}

// Quadrants splits r at its center into four equal sub-rectangles in the
// order SW, SE, NW, NE (x-minor, y-major). This is the quadtree split rule.
func (r Rect) Quadrants() [4]Rect {
	c := r.Center()
	return [4]Rect{
		{Lo: r.Lo, Hi: c}, // SW
		{Lo: Point{c.X, r.Lo.Y}, Hi: Point{r.Hi.X, c.Y}}, // SE
		{Lo: Point{r.Lo.X, c.Y}, Hi: Point{c.X, r.Hi.Y}}, // NW
		{Lo: c, Hi: r.Hi}, // NE
	}
}

// SplitX splits r at x into (left, right) halves. x is clamped into r so the
// result is always a valid tiling of r.
func (r Rect) SplitX(x float64) (Rect, Rect) {
	x = clamp(x, r.Lo.X, r.Hi.X)
	return Rect{Lo: r.Lo, Hi: Point{x, r.Hi.Y}},
		Rect{Lo: Point{x, r.Lo.Y}, Hi: r.Hi}
}

// SplitY splits r at y into (bottom, top) halves. y is clamped into r.
func (r Rect) SplitY(y float64) (Rect, Rect) {
	y = clamp(y, r.Lo.Y, r.Hi.Y)
	return Rect{Lo: r.Lo, Hi: Point{r.Hi.X, y}},
		Rect{Lo: Point{r.Lo.X, y}, Hi: r.Hi}
}

// Axis identifies a coordinate axis.
type Axis int

// The two axes of the plane.
const (
	AxisX Axis = iota
	AxisY
)

// Next returns the other axis; kd-trees cycle splits with it.
func (a Axis) Next() Axis {
	if a == AxisX {
		return AxisY
	}
	return AxisX
}

// String implements fmt.Stringer.
func (a Axis) String() string {
	if a == AxisX {
		return "x"
	}
	return "y"
}

// Coord returns the coordinate of p along axis a.
func (a Axis) Coord(p Point) float64 {
	if a == AxisX {
		return p.X
	}
	return p.Y
}

// Split splits r at value v along axis a.
func (r Rect) Split(a Axis, v float64) (Rect, Rect) {
	if a == AxisX {
		return r.SplitX(v)
	}
	return r.SplitY(v)
}

// Range returns the [lo, hi) extent of r along axis a.
func (r Rect) Range(a Axis) (lo, hi float64) {
	if a == AxisX {
		return r.Lo.X, r.Hi.X
	}
	return r.Lo.Y, r.Hi.Y
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g)x[%g,%g)", r.Lo.X, r.Hi.X, r.Lo.Y, r.Hi.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BoundingBox returns the smallest rectangle containing all pts, expanding
// the upper edge by a relative epsilon so every point satisfies Contains
// under the half-open convention. It returns the zero Rect when pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		r.Lo.X = math.Min(r.Lo.X, p.X)
		r.Lo.Y = math.Min(r.Lo.Y, p.Y)
		r.Hi.X = math.Max(r.Hi.X, p.X)
		r.Hi.Y = math.Max(r.Hi.Y, p.Y)
	}
	r.Hi.X = nextAfterUp(r.Hi.X)
	r.Hi.Y = nextAfterUp(r.Hi.Y)
	return r
}

// nextAfterUp nudges v up so a half-open interval [lo, nextAfterUp(v))
// contains v itself.
func nextAfterUp(v float64) float64 {
	return math.Nextafter(v, math.Inf(1))
}

// CountIn returns the number of points of pts lying inside r.
func CountIn(pts []Point, r Rect) int {
	n := 0
	for _, p := range pts {
		if r.Contains(p) {
			n++
		}
	}
	return n
}
