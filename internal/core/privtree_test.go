package core

import (
	"bytes"
	"math"
	"testing"

	"psd/internal/dp"
	"psd/internal/geom"
)

// TestPrivTreeAdaptiveShape pins the defining behavior of the adaptive
// decomposition on skewed data: the recursion goes deep where the mass is
// and stops early where it is not, publication is exactly the adaptive leaf
// partition, and every structural invariant of the partial-publication
// machinery holds.
func TestPrivTreeAdaptiveShape(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(8192, dom, 71) // half the mass in the lower-left 10%
	p, err := Build(pts, dom, Config{Kind: PrivTree, Height: 5, Epsilon: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != PrivTree {
		t.Fatalf("kind = %v", p.Kind())
	}
	ar := p.Arena()
	if p.Stats().PrunedSubtrees == 0 {
		t.Fatal("adaptive build on skewed data stopped nowhere (no pruned subtree roots)")
	}
	if p.Stats().PrunedSubtrees >= ar.Len() {
		t.Fatal("everything pruned")
	}

	// Published set == adaptive leaves: terminal nodes below no pruned
	// ancestor. Interior and unvisited nodes release nothing.
	published := 0
	for i := range ar.Nodes {
		n := &ar.Nodes[i]
		terminal := ar.IsLeaf(i) || n.Pruned
		switch {
		case n.Published && !terminal:
			t.Fatalf("interior node %d published", i)
		case n.Published && prunedAncestor(ar, i):
			t.Fatalf("node %d published under a pruned ancestor", i)
		case terminal && !prunedAncestor(ar, i) && !n.Published:
			t.Fatalf("adaptive leaf %d not published", i)
		}
		if n.Published {
			published++
		}
	}
	rects, counts := p.Sealed().LeafRegions()
	if published != len(rects) || published != p.effLeaves {
		t.Fatalf("published %d, leaf regions %d, effLeaves %d", published, len(rects), p.effLeaves)
	}
	// The adaptive leaves tile the domain.
	var area float64
	for _, r := range rects {
		area += r.Area()
	}
	if math.Abs(area-dom.Area()) > 1e-6*dom.Area() {
		t.Fatalf("leaf regions cover %v of %v", area, dom.Area())
	}
	// The domain query is the full leaf release sum and lands near the truth.
	var sum float64
	for _, c := range counts {
		sum += c
	}
	got := p.Sealed().Query(dom)
	if math.Abs(got-sum) > 1e-6*(1+math.Abs(sum)) {
		t.Fatalf("Query(domain) = %v, leaf sum %v", got, sum)
	}
	if math.Abs(got-8192) > 2000 {
		t.Fatalf("Query(domain) = %v, want near 8192", got)
	}

	// Adaptivity: the dense lower-left corner splits strictly deeper than
	// the sparse upper-right corner.
	depthAt := func(x, y float64) int {
		best := 0
		for i, n := range ar.Nodes {
			if n.Published && x >= n.Rect.Lo.X && x < n.Rect.Hi.X && y >= n.Rect.Lo.Y && y < n.Rect.Hi.Y {
				best = ar.Depth(i)
			}
		}
		return best
	}
	dense, sparse := depthAt(1, 1), depthAt(63, 63)
	if dense <= sparse {
		t.Fatalf("dense-corner leaf depth %d, sparse-corner %d: decomposition did not adapt", dense, sparse)
	}
}

// TestPrivTreePrivacyAccounting pins the budget bookkeeping: the calibrated
// build consumes exactly Epsilon (structure share + one count release), and
// an explicit Lambda is accounted at the ε that scale actually consumes.
func TestPrivTreePrivacyAccounting(t *testing.T) {
	dom := geom.NewRect(0, 0, 32, 32)
	pts := randomPoints(1024, dom, 3)
	p, err := Build(pts, dom, Config{Kind: PrivTree, Height: 3, Epsilon: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Default count fraction 0.7: counts get 0.56, structure 0.24.
	if got, want := p.StructureCost(), 0.3*0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("structure cost %v, want %v", got, want)
	}
	if got := p.PrivacyCost(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("privacy cost %v, want 0.8", got)
	}
	levels := p.CountBudgets()
	if math.Abs(levels[0]-0.7*0.8) > 1e-12 {
		t.Errorf("leaf-slot count budget %v, want %v", levels[0], 0.7*0.8)
	}
	for d, e := range levels[1:] {
		if e != 0 {
			t.Errorf("level %d has budget %v, want 0 (one release covers the partition)", d+1, e)
		}
	}

	// Explicit Lambda: structure spend follows the scale, honestly.
	lam := 10.0
	p2, err := Build(pts, dom, Config{Kind: PrivTree, Height: 3, Epsilon: 0.8, Seed: 1, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p2.StructureCost(), dp.PrivTreeEpsilon(4, lam); math.Abs(got-want) > 1e-12 {
		t.Errorf("explicit-lambda structure cost %v, want %v", got, want)
	}
}

// TestPrivTreeTheta pins the threshold knob: raising θ stops the recursion
// earlier, so the release has no more regions than at θ = 0.
func TestPrivTreeTheta(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(4096, dom, 9)
	regions := func(theta float64) int {
		p, err := Build(pts, dom, Config{Kind: PrivTree, Height: 4, Epsilon: 1, Seed: 11, Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := p.Sealed().LeafRegions()
		return len(r)
	}
	lo, hi := regions(0), regions(256)
	if hi > lo {
		t.Fatalf("theta=256 released %d regions, theta=0 %d: threshold did not coarsen the tree", hi, lo)
	}
	if hi == 1<<(2*4) { // a fully split height-4 tree has 4^4 leaf regions
		t.Fatalf("theta=256 still fully split (%d regions)", hi)
	}
}

// TestPrivTreeRelease round-trips the artifact through both written formats:
// byte-identical re-serialization, and bit-identical answers from the JSON
// slab and the binary slab.
func TestPrivTreeRelease(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 21)
	p, err := Build(pts, dom, Config{Kind: PrivTree, Height: 4, Epsilon: 0.5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	rel := p.Release()
	if rel.Kind != "privtree" {
		t.Fatalf("release kind %q", rel.Kind)
	}
	var js bytes.Buffer
	if _, err := rel.WriteTo(&js); err != nil {
		t.Fatal(err)
	}
	slab, err := ReadSlab(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if slab.Kind() != PrivTree {
		t.Fatalf("reopened kind %v", slab.Kind())
	}
	var bin bytes.Buffer
	if _, err := rel.WriteBinaryV3(&bin); err != nil {
		t.Fatal(err)
	}
	binSlab, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range slabTestQueries(dom) {
		want := arenaRef{p}.Query(q)
		if got := slab.Query(q); got != want {
			t.Errorf("json slab Query(%v) = %v, want %v", q, got, want)
		}
		if got := binSlab.Query(q); got != want {
			t.Errorf("binary slab Query(%v) = %v, want %v", q, got, want)
		}
	}
	var again bytes.Buffer
	if _, err := slab.Release().WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), js.Bytes()) {
		t.Error("reopened release does not re-serialize identically")
	}
	var binAgain bytes.Buffer
	if _, err := binSlab.WriteBinaryV3(&binAgain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binAgain.Bytes(), bin.Bytes()) {
		t.Error("binary release does not re-serialize identically")
	}
}

// TestPrivTreeValidation covers the configuration errors PrivTree adds.
func TestPrivTreeValidation(t *testing.T) {
	dom := geom.NewRect(0, 0, 1, 1)
	pts := gridPoints(4, dom)
	for i, cfg := range []Config{
		{Kind: PrivTree, Height: 3, Epsilon: 1, Lambda: -1},
		{Kind: PrivTree, Height: 3, Epsilon: 1, Lambda: math.NaN()},
		{Kind: PrivTree, Height: 3, Epsilon: 1, Theta: math.Inf(1)},
		{Kind: PrivTree, Height: 3, Epsilon: 1, PruneThreshold: 4},
		// ε entirely on counts leaves nothing to calibrate λ from.
		{Kind: PrivTree, Height: 3, Epsilon: 1, CountFraction: 1},
		{Kind: Quadtree, Height: 3, Epsilon: 1, Theta: 5},
		{Kind: KD, Height: 3, Epsilon: 1, Lambda: 2},
	} {
		if _, err := Build(pts, dom, cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
	// PostProcess is ignored, not an error (psd.Build sets it by default).
	p, err := Build(pts, dom, Config{Kind: PrivTree, Height: 2, Epsilon: 1, PostProcess: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.PostProcessed() {
		t.Error("privtree reported OLS post-processing")
	}
}
