package core

import (
	"math"
	"sync"
	"testing"

	"psd/internal/budget"
	"psd/internal/geom"
)

// walkCase is one tree whose shape steers the per-query walk (walk, with
// its fused leaf-parent step addLeaves) off its common path.
type walkCase struct {
	name string
	p    *PSD
}

// walkTrees builds the walk's edge-case trees over the fuzz domain
// [0,64]², once per process:
//
//   - pruned-h-1: depth-(h−1) nodes are pruned roots, so their children
//     are never fused;
//   - unpublished-leaves: the leaf level released nothing (ε_0 = 0);
//   - zero-area-leaves: duplicate points make median splits collapse
//     cells to zero width;
//   - h=0 and h=1: the root is a leaf, or a fused leaf parent.
//
// The first and the last two are post-processed, hence consistent, and
// also run under FuzzCount's identities (fuzzTrees); FuzzCountBatch runs
// every one.
var walkTrees = sync.OnceValue(func() []walkCase {
	dom := geom.NewRect(0, 0, 64, 64)
	// Half the points in the lower-left 16×16 cell: at h=3 every other
	// depth-2 cell holds ~64 points and prunes at threshold 100, while the
	// depth-1 cells (≥ 256 points) and the dense cell survive.
	skewed := randomPoints(1024, dom, 41)
	skewed = append(skewed, randomPoints(1024, geom.NewRect(0, 0, 16, 16), 42)...)
	// Three quarters of the points on one spot: exact kd medians split
	// there again and again, so cells of zero width (and zero area) appear.
	dup := randomPoints(512, dom, 43)
	for i := 0; i < 1536; i++ {
		dup = append(dup, geom.Point{X: 20, Y: 36})
	}
	uniform := randomPoints(2048, dom, 44)
	cases := []struct {
		name string
		pts  []geom.Point
		cfg  Config
	}{
		{"pruned-h-1", skewed, Config{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 45, PostProcess: true, PruneThreshold: 100}},
		{"unpublished-leaves", uniform, Config{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 46,
			Strategy: budget.Custom{Weights: []float64{0, 1, 1, 1}}}},
		{"zero-area-leaves", dup, Config{Kind: KD, Height: 3, Epsilon: 1, Seed: 47, TrueMedians: true}},
		{"h=0", uniform, Config{Kind: Quadtree, Height: 0, Epsilon: 1, Seed: 48, PostProcess: true}},
		{"h=1", uniform, Config{Kind: Quadtree, Height: 1, Epsilon: 1, Seed: 49, PostProcess: true}},
	}
	out := make([]walkCase, len(cases))
	for i, c := range cases {
		p, err := Build(c.pts, dom, c.cfg)
		if err != nil {
			panic(err)
		}
		out[i] = walkCase{c.name, p}
	}
	return out
})

// walkTree returns the named walk edge-case tree.
func walkTree(name string) *PSD {
	for _, c := range walkTrees() {
		if c.name == name {
			return c.p
		}
	}
	panic("no walk tree " + name)
}

// TestWalkTreesHaveTheirShapes keeps the edge-case trees honest: each must
// actually contain the shape it is named for, or the equivalence tests
// over it prove nothing.
func TestWalkTreesHaveTheirShapes(t *testing.T) {
	p := walkTree("pruned-h-1")
	ar := p.Arena()
	lo, hi := ar.DepthRange(ar.Height() - 1)
	var pruned, fused int
	for i := lo; i < hi; i++ {
		if ar.Nodes[i].Pruned {
			pruned++
		} else if !prunedAncestor(ar, i) {
			fused++
		}
	}
	if pruned == 0 || fused == 0 {
		t.Errorf("pruned-h-1: %d pruned and %d unpruned depth-(h-1) nodes, want both", pruned, fused)
	}

	s := walkTree("unpublished-leaves").Sealed()
	for i := int(s.offsets[s.height]); i < s.Len(); i++ {
		if s.usable.get(i) {
			t.Fatalf("unpublished-leaves: leaf %d is usable", i)
		}
	}
	if !s.usable.get(0) {
		t.Error("unpublished-leaves: the root released nothing either")
	}

	s = walkTree("zero-area-leaves").Sealed()
	zero := 0
	for i := int(s.offsets[s.height]); i < s.Len(); i++ {
		if r := s.rect(i); r.Width()*r.Height() == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Error("zero-area-leaves: no leaf has zero area")
	}
}

// walkTestQueries mixes every traversal outcome with the degenerate shapes
// and zero-width slivers along and inside leaf cells of the 8×8 grid an
// h=3 quadtree of [0,64]² has.
func walkTestQueries(dom geom.Rect, seed int64) []geom.Rect {
	qs := append(slabTestQueries(dom), degenerateQueries(dom)...)
	qs = append(qs, batchTestQueries(dom, 160, seed)...)
	for _, x := range []float64{8, 10, 20, 32, 36.5} {
		qs = append(qs,
			geom.NewRect(x, 0, x, 64),    // zero width, full height
			geom.NewRect(x, 10, x, 20),   // zero width, inside one row of cells
			geom.NewRect(0, x, 64, x),    // zero height, full width
			geom.NewRect(x, 36, x+1, 36), // zero height through the duplicate spot
		)
	}
	return qs
}

// TestWalkMatchesArena pins the fused per-query walk and the batch engine
// to the arena reference on the walk's edge-case trees: answer bits and
// QueryStats, per query and summed over batches at several worker counts.
func TestWalkMatchesArena(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	for _, c := range walkTrees() {
		s := c.p.Sealed()
		qs := walkTestQueries(dom, 51)
		want := make([]float64, len(qs))
		var wantSt QueryStats
		for i, q := range qs {
			av, ast := arenaRef{c.p}.QueryWithStats(q)
			sv, sst := s.QueryWithStats(q)
			if math.Float64bits(av) != math.Float64bits(sv) || ast != sst {
				t.Fatalf("%s: %v: arena %v %+v, slab %v %+v", c.name, q, av, ast, sv, sst)
			}
			want[i] = av
			wantSt.NodesAdded += ast.NodesAdded
			wantSt.NodesVisited += ast.NodesVisited
			wantSt.PartialLeaves += ast.PartialLeaves
		}
		for _, workers := range []int{1, 2, 0} {
			out := make([]float64, len(qs))
			st := batchInto(t, s, out, qs, workers)
			for i := range qs {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers=%d: batch[%d] %v = %v, per-query %v", c.name, workers, i, qs[i], out[i], want[i])
				}
			}
			if st != wantSt {
				t.Fatalf("%s workers=%d: batch stats %+v, per-query sum %+v", c.name, workers, st, wantSt)
			}
		}
	}
}

// TestWalkZeroOverlapLeafCounts pins the per-leaf rule's corner: a
// zero-width query inside a leaf overlaps it in zero area, yet the leaf
// still counts as added and partial (it contributes est × 0).
func TestWalkZeroOverlapLeafCounts(t *testing.T) {
	s := walkTree("h=1").Sealed()
	v, st := s.QueryWithStats(geom.NewRect(10, 10, 10, 20))
	want := QueryStats{NodesAdded: 1, NodesVisited: 5, PartialLeaves: 1}
	if v != 0 || st != want {
		t.Fatalf("zero-width query in a leaf = %v %+v, want 0 %+v", v, st, want)
	}
}

// TestWalkGivesUpWithinCheckpointInterval pins the walk's deadline
// contract: once the done channel is closed, the walk stops within one
// checkpoint interval of visits. A leaf-only quadtree answers the domain
// query by descending to every leaf (no interior node is usable), so the
// full walk visits more nodes than one interval holds.
func TestWalkGivesUpWithinCheckpointInterval(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	p, err := Build(randomPoints(2048, dom, 52), dom, Config{Kind: Quadtree, Height: 6, Epsilon: 1, Seed: 53, Strategy: budget.LeafOnly{}})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Sealed()
	if _, full := s.QueryWithStats(dom); full.NodesVisited <= cancelCheckInterval {
		t.Fatalf("the full walk visits %d nodes; the test needs more than %d", full.NodesVisited, cancelCheckInterval)
	}
	done := make(chan struct{})
	close(done)
	tok := &cancelToken{done: done, remain: cancelCheckInterval}
	var st QueryStats
	stack := s.getStack()
	s.queryIter(dom, stack, &st, tok)
	s.putStack(stack)
	if !tok.hit {
		t.Fatal("the walk did not observe the closed done channel")
	}
	if st.NodesVisited > cancelCheckInterval {
		t.Fatalf("the walk visited %d nodes, past the %d-visit checkpoint", st.NodesVisited, cancelCheckInterval)
	}
}
