package core

import (
	"testing"

	"psd/internal/geom"
	"psd/internal/median"
)

// buildCfgs covers every decomposition family plus the post-processing and
// pruning variations, so the parallel-equals-sequential guarantee is pinned
// across the whole pipeline, not just the structure phase.
func equivalenceConfigs() map[string]Config {
	ss := &median.SS{Delta: 1e-4}
	sampled := &median.Sampled{Inner: &median.EM{}, Rate: 0.5}
	return map[string]Config{
		"quadtree":      {Kind: Quadtree, Height: 4, Epsilon: 1, Seed: 41, PostProcess: true},
		"kd":            {Kind: KD, Height: 4, Epsilon: 1, Seed: 42, PostProcess: true},
		"kd-hybrid":     {Kind: Hybrid, Height: 4, Epsilon: 1, Seed: 43},
		"hilbert-r":     {Kind: HilbertR, Height: 4, Epsilon: 1, Seed: 44, HilbertOrder: 8},
		"kd-cell":       {Kind: KDCell, Height: 3, Epsilon: 1, Seed: 45, CellSize: 2},
		"kd-noisymean":  {Kind: KDNoisyMean, Height: 3, Epsilon: 1, Seed: 46},
		"kd-nonprivate": {Kind: KD, Height: 3, NonPrivate: true},
		"privtree":      {Kind: PrivTree, Height: 4, Epsilon: 1, Seed: 50},
		"privtree-theta": {Kind: PrivTree, Height: 3, Epsilon: 1, Seed: 51,
			Theta: 16, Lambda: 4},
		"kd-true":     {Kind: KD, Height: 3, Epsilon: 1, Seed: 47, TrueMedians: true},
		"quad-pruned": {Kind: Quadtree, Height: 4, Epsilon: 1, Seed: 48, PostProcess: true, PruneThreshold: 40},
		// EM (the default) above; SS and sampled EM below, on every kind
		// whose splits Config.Median picks.
		"kd-ss":             {Kind: KD, Height: 3, Epsilon: 1, Seed: 52, Median: ss},
		"kd-sampled":        {Kind: KD, Height: 3, Epsilon: 1, Seed: 49, Median: sampled},
		"kd-hybrid-ss":      {Kind: Hybrid, Height: 4, Epsilon: 1, Seed: 53, Median: ss},
		"kd-hybrid-sampled": {Kind: Hybrid, Height: 4, Epsilon: 1, Seed: 54, Median: sampled},
		"hilbert-r-ss":      {Kind: HilbertR, Height: 4, Epsilon: 1, Seed: 55, HilbertOrder: 8, Median: ss},
		"hilbert-r-sampled": {Kind: HilbertR, Height: 4, Epsilon: 1, Seed: 56, HilbertOrder: 8, Median: sampled},
	}
}

func nodesEqual(t *testing.T, name string, a, b *PSD) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: tree sizes differ: %d vs %d", name, a.Len(), b.Len())
	}
	for i := range a.Arena().Nodes {
		if a.Arena().Nodes[i] != b.Arena().Nodes[i] {
			t.Fatalf("%s: node %d differs:\n  %+v\n  %+v",
				name, i, a.Arena().Nodes[i], b.Arena().Nodes[i])
		}
	}
}

// The headline guarantee of the parallel pipeline: for a fixed seed, every
// worker count releases the same tree, byte for byte — rectangles, exact
// counts, noisy counts, post-processed estimates and pruning flags.
func TestParallelBuildIdenticalToSequential(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(6000, dom, 77)
	for name, cfg := range equivalenceConfigs() {
		seq := cfg
		seq.Parallelism = 1
		ref, err := Build(pts, dom, seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, workers := range []int{2, 4, 16} {
			pcfg := cfg
			pcfg.Parallelism = workers
			got, err := Build(pts, dom, pcfg)
			if err != nil {
				t.Fatalf("%s par=%d: %v", name, workers, err)
			}
			nodesEqual(t, name, ref, got)
			if ref.Stats().MedianCalls != got.Stats().MedianCalls {
				t.Errorf("%s par=%d: MedianCalls %d != %d",
					name, workers, got.Stats().MedianCalls, ref.Stats().MedianCalls)
			}
			if ref.Stats().PrunedSubtrees != got.Stats().PrunedSubtrees {
				t.Errorf("%s par=%d: PrunedSubtrees %d != %d",
					name, workers, got.Stats().PrunedSubtrees, ref.Stats().PrunedSubtrees)
			}
		}
	}
}

// Two identical parallel builds must agree with each other (seed
// determinism survives goroutine scheduling).
func TestParallelBuildSeedDeterminism(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(4000, dom, 88)
	for name, cfg := range equivalenceConfigs() {
		cfg.Parallelism = 8
		a, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodesEqual(t, name, a, b)
	}
}

// The slab's iterative LeafRegions must reproduce the recursive arena
// reference order and its capacity pre-sizing must be exact (no realloc, no
// slack).
func TestLeafRegionsIterativeMatchesRecursive(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(4000, dom, 222)
	for _, cfg := range []Config{
		{Kind: Quadtree, Height: 4, Epsilon: 1, Seed: 3, PostProcess: true},
		{Kind: Quadtree, Height: 4, Epsilon: 1, Seed: 3, PostProcess: true, PruneThreshold: 30},
		{Kind: KD, Height: 3, Epsilon: 1, Seed: 4, PostProcess: true, PruneThreshold: 100},
	} {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRects, wantCounts := arenaRef{p}.LeafRegions()
		rects, counts := p.Sealed().LeafRegions()
		if len(rects) != len(wantRects) {
			t.Fatalf("prune=%v: %d regions, want %d", cfg.PruneThreshold, len(rects), len(wantRects))
		}
		for i := range rects {
			if rects[i] != wantRects[i] || counts[i] != wantCounts[i] {
				t.Fatalf("prune=%v: region %d = (%v, %v), want (%v, %v)",
					cfg.PruneThreshold, i, rects[i], counts[i], wantRects[i], wantCounts[i])
			}
		}
		// cap == len proves the pruned-subtree pre-sizing was exact: a short
		// estimate would have forced append to grow (cap > len), a long one
		// would leave slack.
		if cap(rects) != len(rects) || cap(counts) != len(counts) {
			t.Errorf("prune=%v: capacity %d/%d not exact for %d regions",
				cfg.PruneThreshold, cap(rects), cap(counts), len(rects))
		}
	}
}

// A pruned release must round-trip its effective-leaf pre-sizing through
// serialization: opening it as a slab recomputes the count from the pruned
// node list.
func TestOpenReleaseLeafRegionPresizing(t *testing.T) {
	dom := geom.NewRect(0, 0, 32, 32)
	pts := randomPoints(2000, dom, 333)
	p, err := Build(pts, dom, Config{
		Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 9,
		PostProcess: true, PruneThreshold: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := p.Release().Slab()
	if err != nil {
		t.Fatal(err)
	}
	gotR, gotC := re.LeafRegions()
	wantR, wantC := arenaRef{p}.LeafRegions()
	if len(gotR) != len(wantR) {
		t.Fatalf("reopened release has %d regions, want %d", len(gotR), len(wantR))
	}
	for i := range gotR {
		if gotR[i] != wantR[i] || gotC[i] != wantC[i] {
			t.Fatalf("region %d differs after round-trip", i)
		}
	}
	if cap(gotR) != len(gotR) {
		t.Errorf("reopened release: capacity %d not exact for %d regions", cap(gotR), len(gotR))
	}
}
