package core

import (
	"testing"

	"psd/internal/geom"
)

// degenerateQueries are the boundary-shaped rectangles that historically
// diverge between query engines if any comparison flips between < and <=:
// zero-width and zero-height slivers, point queries, and bounds lying
// exactly on node edges of the midpoint grid (the half-open convention
// makes an on-edge bound intersect exactly one side).
func degenerateQueries(dom geom.Rect) []geom.Rect {
	w, h := dom.Width(), dom.Height()
	at := func(fx0, fy0, fx1, fy1 float64) geom.Rect {
		return geom.Rect{
			Lo: geom.Point{X: dom.Lo.X + fx0*w, Y: dom.Lo.Y + fy0*h},
			Hi: geom.Point{X: dom.Lo.X + fx1*w, Y: dom.Lo.Y + fy1*h},
		}
	}
	return []geom.Rect{
		at(0.25, 0.1, 0.25, 0.9),     // zero width, interior
		at(0.1, 0.5, 0.9, 0.5),       // zero height, on the h=1 midpoint edge
		at(0.5, 0.5, 0.5, 0.5),       // point, on the root midpoint corner
		at(0.3, 0.7, 0.3, 0.7),       // point, interior
		at(0, 0, 0, 0),               // point, on the domain's lower corner
		at(1, 1, 1, 1),               // point, on the domain's upper corner (outside: half-open)
		at(0.25, 0.25, 0.75, 0.75),   // all four bounds on h=2 node edges
		at(0, 0.125, 1, 0.375),       // full-width band between h=3 edges
		at(0.5, 0, 0.5, 1),           // zero width along the root split line
		at(0.125, 0.125, 0.125, 0.5), // zero width starting on an h=3 corner
		at(-0.25, 0.5, 0, 0.75),      // zero overlap: upper bound on the domain's lower edge
		dom,                          // the domain itself (edges everywhere)
	}
}

// TestDegenerateRectsPinnedAcrossEngines pins degenerate query rectangles
// bit-identical across the arena reference DFS (arena_ref_test.go), the
// slab DFS (Slab.Query) and the node-major batch engine (CountBatch) — for
// every decomposition family, including pruned and partially published
// trees. Values AND traversal statistics must match; batch answers must
// also be independent of the surrounding batch.
func TestDegenerateRectsPinnedAcrossEngines(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 97)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		s := p.Sealed()
		qs := degenerateQueries(dom)
		var batchWantSt QueryStats
		want := make([]float64, len(qs))
		for i, q := range qs {
			av, ast := arenaRef{p}.QueryWithStats(q)
			sv, sst := s.QueryWithStats(q)
			if av != sv {
				t.Errorf("%v: %v: arena %v, slab %v", cfg.Kind, q, av, sv)
			}
			if ast != sst {
				t.Errorf("%v: %v: arena stats %+v, slab %+v", cfg.Kind, q, ast, sst)
			}
			want[i] = av
			batchWantSt.NodesAdded += ast.NodesAdded
			batchWantSt.NodesVisited += ast.NodesVisited
			batchWantSt.PartialLeaves += ast.PartialLeaves
		}
		for _, workers := range []int{1, 0} {
			out := make([]float64, len(qs))
			st := batchInto(t, s, out, qs, workers)
			for i := range qs {
				if out[i] != want[i] {
					t.Errorf("%v workers=%d: batch[%d] %v = %v, per-query %v",
						cfg.Kind, workers, i, qs[i], out[i], want[i])
				}
			}
			if st != batchWantSt {
				t.Errorf("%v workers=%d: batch stats %+v, per-query sum %+v",
					cfg.Kind, workers, st, batchWantSt)
			}
		}
		// Mixed into a larger batch of ordinary rects, the degenerate
		// answers must not change (the Morton clustering and leaf-parent
		// fusion paths see them next to dense work).
		mixed := append(append([]geom.Rect{}, qs...), slabTestQueries(dom)...)
		out := make([]float64, len(mixed))
		batchInto(t, s, out, mixed, 0)
		for i := range qs {
			if out[i] != want[i] {
				t.Errorf("%v: mixed batch[%d] %v = %v, want %v", cfg.Kind, i, qs[i], out[i], want[i])
			}
		}
	}
}
