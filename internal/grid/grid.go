// Package grid implements the flat fixed-resolution noisy-count grid that
// the paper uses twice: as the strawman baseline of Section 1 ("lay down a
// fine grid over the data and add noise to the count of individuals within
// each cell" [6]) and as the structural substrate of the cell-based kd-tree
// of Xiao et al. [26] (Section 6.1's cell-based median).
//
// Releasing all cell counts with Laplace(1/ε) noise is ε-differentially
// private in total: the cells partition the data, so a single tuple affects
// exactly one cell (parallel composition).
package grid

import (
	"fmt"
	"math"

	"psd/internal/geom"
	"psd/internal/rng"
)

// Grid is a uniform nx × ny grid of noisy counts over a rectangular domain.
type Grid struct {
	domain geom.Rect
	nx, ny int
	cellW  float64
	cellH  float64
	// noisy[y*nx+x] is the released count of cell (x, y).
	noisy []float64
	// exact[y*nx+x] is the true count, retained for evaluation only.
	exact []float64
	eps   float64
}

// MaxCells caps the grid size (2^26 cells ≈ 1 GB of float64 pairs).
const MaxCells = 1 << 26

// Build constructs a grid over domain with nx × ny cells and releases each
// cell count with Lap(1/eps) noise drawn from src, one variate per cell in
// cell order. An eps of zero releases the exact counts and draws nothing
// (src may then be nil). Points outside the domain are clamped into the
// boundary cells, matching the half-open domain convention used by the
// trees.
func Build(points []geom.Point, domain geom.Rect, nx, ny int, eps float64, src *rng.Source) (*Grid, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("grid: dimensions %dx%d invalid", nx, ny)
	}
	if nx*ny > MaxCells {
		return nil, fmt.Errorf("grid: %dx%d exceeds %d cells", nx, ny, MaxCells)
	}
	if domain.Empty() {
		return nil, fmt.Errorf("grid: empty domain %v", domain)
	}
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("grid: invalid eps %v", eps)
	}
	if src == nil && eps > 0 {
		return nil, fmt.Errorf("grid: nil noise source")
	}
	g := &Grid{
		domain: domain,
		nx:     nx,
		ny:     ny,
		cellW:  domain.Width() / float64(nx),
		cellH:  domain.Height() / float64(ny),
		noisy:  make([]float64, nx*ny),
		exact:  make([]float64, nx*ny),
	}
	for _, p := range points {
		cx := g.clampX(int((p.X - domain.Lo.X) / g.cellW))
		cy := g.clampY(int((p.Y - domain.Lo.Y) / g.cellH))
		g.exact[cy*nx+cx]++
	}
	copy(g.noisy, g.exact)
	if eps > 0 {
		for i := range g.noisy {
			g.noisy[i] += src.Laplace(1 / eps)
		}
	}
	g.eps = eps
	return g, nil
}

func (g *Grid) clampX(cx int) int {
	if cx < 0 {
		return 0
	}
	if cx >= g.nx {
		return g.nx - 1
	}
	return cx
}

func (g *Grid) clampY(cy int) int {
	if cy < 0 {
		return 0
	}
	if cy >= g.ny {
		return g.ny - 1
	}
	return cy
}

// Domain returns the grid's domain rectangle.
func (g *Grid) Domain() geom.Rect { return g.domain }

// Dims returns the grid dimensions (nx, ny).
func (g *Grid) Dims() (int, int) { return g.nx, g.ny }

// Epsilon returns the privacy budget spent releasing the grid.
func (g *Grid) Epsilon() float64 { return g.eps }

// CellRect returns the rectangle of cell (cx, cy).
func (g *Grid) CellRect(cx, cy int) geom.Rect {
	return geom.Rect{
		Lo: geom.Point{
			X: g.domain.Lo.X + float64(cx)*g.cellW,
			Y: g.domain.Lo.Y + float64(cy)*g.cellH,
		},
		Hi: geom.Point{
			X: g.domain.Lo.X + float64(cx+1)*g.cellW,
			Y: g.domain.Lo.Y + float64(cy+1)*g.cellH,
		},
	}
}

// Noisy returns the released count of cell (cx, cy).
func (g *Grid) Noisy(cx, cy int) float64 { return g.noisy[cy*g.nx+cx] }

// Query estimates the number of points in q by summing noisy cell counts,
// weighting boundary cells by their overlap fraction with q (the uniformity
// assumption). This is the Section 1 baseline answer.
func (g *Grid) Query(q geom.Rect) float64 {
	return g.query(q, g.noisy)
}

// TrueCount returns the exact number of data points in q, up to the
// uniformity assumption inside boundary cells: cells fully inside q are
// counted exactly. It exists for evaluation.
func (g *Grid) TrueCount(q geom.Rect) float64 {
	return g.query(q, g.exact)
}

func (g *Grid) query(q geom.Rect, counts []float64) float64 {
	inter, ok := g.domain.Intersect(q)
	if !ok {
		return 0
	}
	x0 := g.clampX(int(math.Floor((inter.Lo.X - g.domain.Lo.X) / g.cellW)))
	x1 := g.clampX(int(math.Ceil((inter.Hi.X-g.domain.Lo.X)/g.cellW)) - 1)
	y0 := g.clampY(int(math.Floor((inter.Lo.Y - g.domain.Lo.Y) / g.cellH)))
	y1 := g.clampY(int(math.Ceil((inter.Hi.Y-g.domain.Lo.Y)/g.cellH)) - 1)
	var sum float64
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			frac := g.CellRect(cx, cy).OverlapFraction(q)
			if frac > 0 {
				sum += frac * counts[cy*g.nx+cx]
			}
		}
	}
	return sum
}

// MedianAlong returns the coordinate that splits the noisy mass of region r
// in half along the given axis — the cell-based private median of [26].
// Cell counts are weighted by their fractional overlap with r and negative
// noisy cells are floored at zero so the cumulative mass is monotone. When
// r carries no noisy mass the midpoint of r's extent is returned.
func (g *Grid) MedianAlong(r geom.Rect, axis geom.Axis) float64 {
	return g.MedianAlongBuf(r, axis, nil)
}

// MedianAlongBuf is MedianAlong with a caller-provided slab-mass buffer of
// length nx (AxisX) or ny (AxisY); a nil or short buf allocates. The grid
// is immutable after Build, so concurrent calls with distinct buffers are
// safe — the kd-cell tree builder runs one buffer per worker.
func (g *Grid) MedianAlongBuf(r geom.Rect, axis geom.Axis, buf []float64) float64 {
	lo, hi := r.Range(axis)
	if hi <= lo {
		return lo
	}
	var n int
	var cellLo float64
	var cellSize float64
	if axis == geom.AxisX {
		n = g.nx
		cellLo = g.domain.Lo.X
		cellSize = g.cellW
	} else {
		n = g.ny
		cellLo = g.domain.Lo.Y
		cellSize = g.cellH
	}
	inter, ok := g.domain.Intersect(r)
	if !ok {
		return (lo + hi) / 2
	}
	// Only the cells intersecting r can carry mass; restricting the scan to
	// them keeps a full kd-cell build near-linear in the grid size.
	x0 := g.clampX(int(math.Floor((inter.Lo.X - g.domain.Lo.X) / g.cellW)))
	x1 := g.clampX(int(math.Ceil((inter.Hi.X-g.domain.Lo.X)/g.cellW)) - 1)
	y0 := g.clampY(int(math.Floor((inter.Lo.Y - g.domain.Lo.Y) / g.cellH)))
	y1 := g.clampY(int(math.Ceil((inter.Hi.Y-g.domain.Lo.Y)/g.cellH)) - 1)

	// Accumulate the (overlap-weighted, floored) noisy mass per slab.
	mass := buf
	if len(mass) < n {
		mass = make([]float64, n)
	}
	mass = mass[:n]
	clear(mass)
	var total float64
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			frac := g.CellRect(cx, cy).OverlapFraction(r)
			if frac <= 0 {
				continue
			}
			c := g.noisy[cy*g.nx+cx]
			if c < 0 {
				c = 0
			}
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
			split := cellLo + (float64(i)+frac)*cellSize
			return clamp(split, lo, hi)
		}
		cum += mass[i]
	}
	return hi
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
