package core

import (
	"math"
	"testing"

	"psd/internal/budget"
	"psd/internal/dp"
	"psd/internal/geom"
	"psd/internal/median"
	"psd/internal/rng"
)

// gridPoints places one point in the middle of every cell of a g×g grid
// over dom — a perfectly uniform dataset with known counts everywhere.
func gridPoints(g int, dom geom.Rect) []geom.Point {
	pts := make([]geom.Point, 0, g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			pts = append(pts, geom.Point{
				X: dom.Lo.X + (float64(i)+0.5)*dom.Width()/float64(g),
				Y: dom.Lo.Y + (float64(j)+0.5)*dom.Height()/float64(g),
			})
		}
	}
	return pts
}

func randomPoints(n int, dom geom.Rect, seed int64) []geom.Point {
	src := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		// Clustered: half the mass in the lower-left 10% of the domain.
		if src.Bernoulli(0.5) {
			pts[i] = geom.Point{
				X: dom.Lo.X + src.Uniform()*dom.Width()*0.1,
				Y: dom.Lo.Y + src.Uniform()*dom.Height()*0.1,
			}
		} else {
			pts[i] = geom.Point{
				X: src.UniformIn(dom.Lo.X, dom.Hi.X),
				Y: src.UniformIn(dom.Lo.Y, dom.Hi.Y),
			}
		}
	}
	return pts
}

func TestConfigValidation(t *testing.T) {
	dom := geom.NewRect(0, 0, 1, 1)
	pts := gridPoints(4, dom)
	cases := []Config{
		{Height: -1, Epsilon: 1},
		{Height: 20, Epsilon: 1},
		{Height: 3, Epsilon: 0},
		{Height: 3, Epsilon: math.Inf(1)},
		{Height: 3, Epsilon: 1, CountFraction: 1.5},
		{Height: 3, Epsilon: 1, Kind: Hybrid, SwitchLevel: 9},
		{Height: 3, Epsilon: 1, CellSize: -1},
	}
	for i, cfg := range cases {
		if _, err := Build(pts, dom, cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
	if _, err := Build(pts, geom.Rect{}, Config{Height: 2, Epsilon: 1}); err == nil {
		t.Error("empty domain should error")
	}
}

func TestQuadtreeExactWithZeroNoise(t *testing.T) {
	dom := geom.NewRect(0, 0, 16, 16)
	pts := gridPoints(16, dom) // 256 points, one per unit cell
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 4, NonPrivate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arena().CheckConsistent(true); err != nil {
		t.Fatal(err)
	}
	if got := p.Arena().Root().True; got != 256 {
		t.Errorf("root count = %v, want 256", got)
	}
	// h=4 leaves are exactly the unit cells: one point each.
	for k := 0; k < p.Arena().NumLeaves(); k++ {
		if c := p.Arena().Nodes[p.Arena().LeafIndex(k)].True; c != 1 {
			t.Fatalf("leaf %d count = %v, want 1", k, c)
		}
	}
	// Cell-aligned queries are exact.
	for _, q := range []geom.Rect{
		geom.NewRect(0, 0, 8, 8),
		geom.NewRect(4, 4, 12, 12),
		geom.NewRect(0, 0, 16, 16),
		geom.NewRect(15, 15, 16, 16),
	} {
		want := float64(geom.CountIn(pts, q))
		if got := p.Sealed().Query(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("query %v = %v, want %v", q, got, want)
		}
	}
	// Unaligned queries are exact here too: uniform data matches the
	// uniformity assumption.
	q := geom.NewRect(0.5, 0.5, 10.5, 3.25)
	want := p.TrueAnswer(q)
	if got := p.Sealed().Query(q); math.Abs(got-want) > 1e-9 {
		t.Errorf("unaligned query = %v, want %v", got, want)
	}
}

// Figure 1 / Section 4.1: the canonical method answers a query covering two
// whole quadrants with exactly those two node counts, and mixes levels when
// the query extends further.
func TestCanonicalDecompositionNodeCounts(t *testing.T) {
	dom := geom.NewRect(0, 0, 4, 4)
	pts := gridPoints(4, dom)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, NonPrivate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Left half = SW + NW quadrants: 2 node adds.
	ans, st := p.Sealed().QueryWithStats(geom.NewRect(0, 0, 2, 4))
	if st.NodesAdded != 2 {
		t.Errorf("left half: NodesAdded = %d, want 2", st.NodesAdded)
	}
	if math.Abs(ans-8) > 1e-9 {
		t.Errorf("left half = %v, want 8", ans)
	}
	// [0,3)x[0,4): 2 quadrants + 4 unit leaves.
	ans, st = p.Sealed().QueryWithStats(geom.NewRect(0, 0, 3, 4))
	if st.NodesAdded != 6 {
		t.Errorf("three-quarters: NodesAdded = %d, want 6", st.NodesAdded)
	}
	if math.Abs(ans-12) > 1e-9 {
		t.Errorf("three-quarters = %v, want 12", ans)
	}
	if st.PartialLeaves != 0 {
		t.Errorf("aligned query used %d partial leaves", st.PartialLeaves)
	}
	// An unaligned query uses the uniformity assumption on its boundary.
	_, st = p.Sealed().QueryWithStats(geom.NewRect(0.5, 0.5, 3.5, 3.5))
	if st.PartialLeaves == 0 {
		t.Error("unaligned query should touch partial leaves")
	}
}

// Lemma 2(i): the number of level-i node counts the canonical method adds
// is at most 8·2^(h-i) for any query on a quadtree.
func TestLemma2QuadtreeBound(t *testing.T) {
	dom := geom.NewRect(0, 0, 1, 1)
	pts := gridPoints(32, dom)
	const h = 4
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: h, NonPrivate: true})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		x1, x2 := src.Uniform(), src.Uniform()
		y1, y2 := src.Uniform(), src.Uniform()
		if x2 < x1 {
			x1, x2 = x2, x1
		}
		if y2 < y1 {
			y1, y2 = y2, y1
		}
		q := geom.NewRect(x1, y1, x2, y2)
		perLevel := make([]int, h+1)
		countMaximal(p, 0, q, perLevel)
		total := 0
		for i, n := range perLevel {
			bound := int(budget.QuadtreeNodesAtLevel(h, i))
			if n > bound {
				t.Fatalf("query %v: level %d adds %d nodes > bound %d", q, i, n, bound)
			}
			total += n
		}
		if lim := int(8 * (math.Pow(2, h+1) - 1)); total > lim {
			t.Fatalf("query %v: n(Q) = %d > %d", q, total, lim)
		}
	}
}

// countMaximal counts, per level, nodes that are maximally contained in q
// (including partially-intersected leaves, as in the error analysis).
func countMaximal(p *PSD, idx int, q geom.Rect, perLevel []int) {
	n := &p.arena.Nodes[idx]
	if !n.Rect.Intersects(q) {
		return
	}
	level := p.arena.Level(idx)
	if q.ContainsRect(n.Rect) || p.arena.IsLeaf(idx) {
		perLevel[level]++
		return
	}
	cs := p.arena.ChildStart(idx)
	for j := 0; j < 4; j++ {
		countMaximal(p, cs+j, q, perLevel)
	}
}

func TestKDExactMediansBalanced(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(4096, dom, 1)
	p, err := Build(pts, dom, Config{Kind: KD, Height: 3, NonPrivate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arena().CheckConsistent(false); err != nil {
		t.Fatal(err)
	}
	// Exact medians divide each node's points into four near-equal parts.
	ar := p.Arena()
	for d := 0; d < ar.Height(); d++ {
		lo, hi := ar.DepthRange(d)
		for i := lo; i < hi; i++ {
			parent := ar.Nodes[i].True
			if parent < 4 {
				continue
			}
			cs := ar.ChildStart(i)
			for j := 0; j < 4; j++ {
				c := ar.Nodes[cs+j].True
				if c < parent/4-2 || c > parent/4+2 {
					t.Fatalf("depth %d node %d: child count %v of parent %v not balanced",
						d, i, c, parent)
				}
			}
		}
	}
}

func TestKDPrivateBuild(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(8192, dom, 2)
	cfg := Config{
		Kind: KD, Height: 4, Epsilon: 1.0, Seed: 7,
		PostProcess: true,
	}
	p, err := Build(pts, dom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arena().CheckConsistent(false); err != nil {
		t.Fatal(err)
	}
	// Budget accounting: 0.3ε structure + 0.7ε counts = ε.
	if got := p.PrivacyCost(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("PrivacyCost = %v, want 1.0", got)
	}
	if got := p.StructureCost(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("StructureCost = %v, want 0.3", got)
	}
	// 2 median calls per internal node (x + 2 y's across the fanout-4
	// split is 3 calls per node, but per path it is 2 levels; the stat
	// counts calls: (4^4-1)/3 internal nodes × 3 calls).
	internal := (p.Len() - p.Arena().NumLeaves())
	if p.Stats().MedianCalls != 3*internal {
		t.Errorf("MedianCalls = %d, want %d", p.Stats().MedianCalls, 3*internal)
	}
	// The full-domain query returns roughly the total count.
	got := p.Sealed().Query(dom)
	if math.Abs(got-8192) > 2000 {
		t.Errorf("full-domain query = %v, want ≈ 8192", got)
	}
}

func TestHybridSwitchesToMidpoints(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(2048, dom, 3)
	p, err := Build(pts, dom, Config{
		Kind: Hybrid, Height: 4, Epsilon: 1.0, SwitchLevel: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar := p.Arena()
	// Below the switch level every split is a midpoint: children of any
	// depth >= 2 node are its exact quadrants (up to ordering).
	for d := 2; d < ar.Height(); d++ {
		lo, hi := ar.DepthRange(d)
		for i := lo; i < hi; i++ {
			r := ar.Nodes[i].Rect
			if r.Empty() {
				continue
			}
			c := r.Center()
			cs := ar.ChildStart(i)
			for j := 0; j < 4; j++ {
				cr := ar.Nodes[cs+j].Rect
				// Every child corner coordinate is one of {lo, center, hi}.
				okX := cr.Lo.X == r.Lo.X || cr.Lo.X == c.X
				okY := cr.Lo.Y == r.Lo.Y || cr.Lo.Y == c.Y
				if !okX || !okY {
					t.Fatalf("depth %d node %d child %d: rect %v is not a quadrant of %v",
						d, i, j, cr, r)
				}
			}
		}
	}
	// Structure cost only covers the 2 data-dependent levels.
	if math.Abs(p.StructureCost()-0.3) > 1e-9 {
		t.Errorf("StructureCost = %v, want 0.3", p.StructureCost())
	}
}

func TestHilbertRStructure(t *testing.T) {
	dom := geom.NewRect(0, 0, 32, 32)
	pts := randomPoints(2048, dom, 4)
	p, err := Build(pts, dom, Config{
		Kind: HilbertR, Height: 3, NonPrivate: true, HilbertOrder: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar := p.Arena()
	if got := ar.Root().True; got != 2048 {
		t.Errorf("root count = %v, want 2048", got)
	}
	// Counts aggregate exactly (Hilbert ranges partition the data).
	for d := 0; d < ar.Height(); d++ {
		lo, hi := ar.DepthRange(d)
		for i := lo; i < hi; i++ {
			var sum float64
			cs := ar.ChildStart(i)
			for j := 0; j < 4; j++ {
				sum += ar.Nodes[cs+j].True
			}
			if sum != ar.Nodes[i].True {
				t.Fatalf("node %d: children sum %v != %v", i, sum, ar.Nodes[i].True)
			}
		}
	}
	// Child bounding boxes nest inside the parent's.
	for i := 1; i < ar.Len(); i++ {
		r := ar.Nodes[i].Rect
		pr := ar.Nodes[ar.Parent(i)].Rect
		if r.Area() > 0 && !pr.ContainsRect(r) {
			t.Fatalf("node %d bbox %v escapes parent %v", i, r, pr)
		}
	}
	// Full-domain query sees everything exactly (root bbox ⊆ query).
	if got := p.Sealed().Query(geom.NewRect(-1, -1, 33, 33)); math.Abs(got-2048) > 1e-6 {
		t.Errorf("full query = %v, want 2048", got)
	}
}

func TestKDCellBuild(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(8192, dom, 5)
	p, err := Build(pts, dom, Config{
		Kind: KDCell, Height: 3, Epsilon: 1.0, Seed: 13, CellSize: 1,
		PostProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arena().CheckConsistent(false); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.PrivacyCost()-1.0) > 1e-9 {
		t.Errorf("PrivacyCost = %v, want 1.0", p.PrivacyCost())
	}
	// The grid is one release: structure cost is the full 0.3ε regardless
	// of how many medians were read off it.
	if math.Abs(p.StructureCost()-0.3) > 1e-9 {
		t.Errorf("StructureCost = %v, want 0.3", p.StructureCost())
	}
	got := p.Sealed().Query(geom.NewRect(0, 0, 50, 100))
	want := p.TrueAnswer(geom.NewRect(0, 0, 50, 100))
	if math.Abs(got-want) > float64(len(pts))/4 {
		t.Errorf("half-domain query = %v, want ≈ %v", got, want)
	}
}

func TestKDNoisyMeanUsesNM(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(4096, dom, 6)
	p, err := Build(pts, dom, Config{
		Kind: KDNoisyMean, Height: 3, Epsilon: 1.0, Seed: 17,
		// Median deliberately set to EM: KDNoisyMean must override it.
		Median: &median.EM{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != KDNoisyMean {
		t.Errorf("Kind = %v", p.Kind())
	}
	if math.Abs(p.PrivacyCost()-1.0) > 1e-9 {
		t.Errorf("PrivacyCost = %v, want 1.0", p.PrivacyCost())
	}
}

func TestTrueMediansBaseline(t *testing.T) {
	// kd-true: exact medians, noisy counts, full ε to counts.
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(4096, dom, 7)
	p, err := Build(pts, dom, Config{
		Kind: KD, Height: 3, Epsilon: 1.0, TrueMedians: true, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.StructureCost() != 0 {
		t.Errorf("kd-true StructureCost = %v, want 0", p.StructureCost())
	}
	if math.Abs(p.PrivacyCost()-1.0) > 1e-9 {
		t.Errorf("PrivacyCost = %v, want 1.0", p.PrivacyCost())
	}
	// Exact medians balance children like the non-private tree.
	ar := p.Arena()
	root := ar.Nodes[0].True
	cs := ar.ChildStart(0)
	for j := 0; j < 4; j++ {
		c := ar.Nodes[cs+j].True
		if c < root/4-2 || c > root/4+2 {
			t.Fatalf("kd-true child %d count %v unbalanced (root %v)", j, c, root)
		}
	}
}

func TestPruning(t *testing.T) {
	dom := geom.NewRect(0, 0, 16, 16)
	pts := gridPoints(8, dom) // 64 points
	p, err := Build(pts, dom, Config{
		Kind: Quadtree, Height: 3, Epsilon: 1.0, Seed: 23,
		PostProcess: true, PruneThreshold: 1e9, // prune everything
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().PrunedSubtrees == 0 {
		t.Fatal("nothing pruned at an enormous threshold")
	}
	// The root itself is pruned: queries answer from the root alone.
	_, st := p.Sealed().QueryWithStats(geom.NewRect(0, 0, 8, 16))
	if st.NodesAdded != 1 {
		t.Errorf("NodesAdded = %d, want 1 (root only)", st.NodesAdded)
	}
	// LeafRegions collapses to the single pruned root.
	rects, counts := p.Sealed().LeafRegions()
	if len(rects) != 1 || len(counts) != 1 {
		t.Errorf("LeafRegions = %d regions, want 1", len(rects))
	}

	// No pruning at threshold 0.
	p2, err := Build(pts, dom, Config{
		Kind: Quadtree, Height: 3, Epsilon: 1.0, Seed: 23, PostProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Stats().PrunedSubtrees != 0 {
		t.Error("threshold 0 should disable pruning")
	}
	rects, _ = p2.Sealed().LeafRegions()
	if len(rects) != p2.Arena().NumLeaves() {
		t.Errorf("unpruned LeafRegions = %d, want %d", len(rects), p2.Arena().NumLeaves())
	}
}

func TestLeafOnlyStrategyWithoutPostProcessing(t *testing.T) {
	// All budget at the leaves, no OLS: internal nodes publish nothing and
	// queries must descend to leaf counts (Section 4.2's "other budget
	// strategies" / the [12] configuration).
	dom := geom.NewRect(0, 0, 16, 16)
	pts := gridPoints(16, dom)
	p, err := Build(pts, dom, Config{
		Kind: Quadtree, Height: 2, Epsilon: 5.0, Seed: 29,
		Strategy: budget.LeafOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.NewRect(0, 0, 8, 8) // exactly one depth-1 quadrant
	ans, st := p.Sealed().QueryWithStats(q)
	// The quadrant node is unpublished: the answer must come from its 4
	// leaf children.
	if st.NodesAdded != 4 {
		t.Errorf("NodesAdded = %d, want 4 leaves", st.NodesAdded)
	}
	if math.Abs(ans-64) > 30 {
		t.Errorf("quadrant query = %v, want ≈ 64", ans)
	}
}

func TestDeterminismBySeed(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(2048, dom, 8)
	build := func() *PSD {
		p, err := Build(pts, dom, Config{
			Kind: KD, Height: 3, Epsilon: 0.5, Seed: 31, PostProcess: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := build(), build()
	q := geom.NewRect(10, 10, 60, 40)
	if a.Sealed().Query(q) != b.Sealed().Query(q) {
		t.Error("same seed should produce identical trees")
	}
	for i := range a.Arena().Nodes {
		if a.Arena().Nodes[i].Noisy != b.Arena().Nodes[i].Noisy {
			t.Fatal("noisy counts differ across identical builds")
		}
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	pts := randomPoints(500, dom, 9)
	orig := make([]geom.Point, len(pts))
	copy(orig, pts)
	if _, err := Build(pts, dom, Config{Kind: KD, Height: 2, Epsilon: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatal("Build reordered the caller's point slice")
		}
	}
}

func TestOutOfDomainPointsAreClamped(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	pts := []geom.Point{{X: -5, Y: 3}, {X: 20, Y: 20}, {X: 5, Y: 5}}
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 1, NonPrivate: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Arena().Root().True; got != 3 {
		t.Errorf("root count = %v, want 3 (clamped strays included)", got)
	}
}

// Statistical: OLS post-processing and geometric budgets each reduce query
// error versus the uniform baseline (the Figure 3 effect, in miniature).
func TestOptimizationsReduceError(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := gridPoints(64, dom) // 4096 points
	queries := []geom.Rect{
		geom.NewRect(3, 3, 17, 13),
		geom.NewRect(0, 0, 33, 33),
		geom.NewRect(20, 5, 60, 12),
		geom.NewRect(7, 7, 9, 9),
	}
	meanAbsErr := func(strategy budget.Strategy, post bool) float64 {
		var sum float64
		const trials = 30
		for s := int64(0); s < trials; s++ {
			p, err := Build(pts, dom, Config{
				Kind: Quadtree, Height: 5, Epsilon: 0.2, Seed: 1000 + s,
				Strategy: strategy, PostProcess: post,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				sum += math.Abs(p.Sealed().Query(q) - p.TrueAnswer(q))
			}
		}
		return sum / float64(trials*len(queries))
	}
	baseline := meanAbsErr(budget.Uniform{}, false)
	geo := meanAbsErr(budget.Geometric{}, false)
	opt := meanAbsErr(budget.Geometric{}, true)
	if geo >= baseline {
		t.Errorf("geometric (%v) should beat uniform baseline (%v)", geo, baseline)
	}
	if opt >= geo {
		t.Errorf("geometric+OLS (%v) should beat geometric alone (%v)", opt, geo)
	}
}

// Noise variance at the root should match the analytic Laplace variance for
// a baseline quadtree (sanity link between tree release and dp mechanism).
func TestRootNoiseVariance(t *testing.T) {
	dom := geom.NewRect(0, 0, 8, 8)
	pts := gridPoints(8, dom)
	const h = 2
	const eps = 0.5
	levels, _ := budget.Uniform{}.Levels(h, eps)
	rootEps := levels[h]
	var sumSq float64
	const trials = 2000
	for s := int64(0); s < trials; s++ {
		p, err := Build(pts, dom, Config{
			Kind: Quadtree, Height: h, Epsilon: eps, Seed: s,
			Strategy: budget.Uniform{},
		})
		if err != nil {
			t.Fatal(err)
		}
		d := p.Arena().Root().Noisy - p.Arena().Root().True
		sumSq += d * d
	}
	got := sumSq / trials
	want := dp.LaplaceVariance(1, rootEps)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("root noise variance = %v, want ≈ %v", got, want)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Quadtree: "quadtree", KD: "kd", Hybrid: "kd-hybrid",
		HilbertR: "hilbert-r", KDCell: "kd-cell", KDNoisyMean: "kd-noisymean",
		PrivTree: "privtree",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
	if Quadtree.DataDependent() {
		t.Error("quadtree is data-independent")
	}
	if !KD.DataDependent() {
		t.Error("kd is data-dependent")
	}
}
