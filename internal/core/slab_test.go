package core

import (
	"bytes"
	"sync"
	"testing"

	"psd/internal/geom"
)

// slabTestConfigs covers every decomposition family plus the post-processing
// and pruning axes the query engine branches on.
func slabTestConfigs() []Config {
	return []Config{
		{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 11, PostProcess: true},
		{Kind: Quadtree, Height: 4, Epsilon: 0.5, Seed: 12}, // raw noisy counts, per-level Published flags
		{Kind: KD, Height: 3, Epsilon: 1, Seed: 13, PostProcess: true},
		{Kind: Hybrid, Height: 4, Epsilon: 0.5, Seed: 14, PostProcess: true, PruneThreshold: 16},
		{Kind: HilbertR, Height: 3, Epsilon: 1, Seed: 15},
		{Kind: KDCell, Height: 3, Epsilon: 1, Seed: 16, PostProcess: true},
		{Kind: KDNoisyMean, Height: 3, Epsilon: 0.5, Seed: 17},
		// Adaptive depth: unpublished interior + pruned adaptive leaves.
		{Kind: PrivTree, Height: 4, Epsilon: 0.5, Seed: 18},
		{Kind: PrivTree, Height: 3, Epsilon: 1, Seed: 19, Theta: 24},
	}
}

// slabTestQueries exercises every traversal outcome: full domain, strict
// containment, partial leaves, thin slivers, disjoint, and inverted-ish
// degenerate boxes.
func slabTestQueries(dom geom.Rect) []geom.Rect {
	w, h := dom.Width(), dom.Height()
	at := func(fx0, fy0, fx1, fy1 float64) geom.Rect {
		return geom.Rect{
			Lo: geom.Point{X: dom.Lo.X + fx0*w, Y: dom.Lo.Y + fy0*h},
			Hi: geom.Point{X: dom.Lo.X + fx1*w, Y: dom.Lo.Y + fy1*h},
		}
	}
	return []geom.Rect{
		dom,
		at(0, 0, 0.5, 0.5),
		at(0.25, 0.25, 0.75, 0.75),
		at(0.1, 0.6, 0.9, 0.95),
		at(0.47, 0.47, 0.53, 0.53),
		at(0, 0, 0.125, 1),
		at(0.013, 0.77, 0.981, 0.791), // thin horizontal sliver
		at(-0.5, -0.5, 1.5, 1.5),      // superset of the domain
		at(1.1, 1.1, 1.2, 1.2),        // disjoint
		at(0.3, 0.3, 0.3, 0.8),        // zero-width degenerate
	}
}

// TestSlabMatchesArena pins the query engine to the arena reference: the
// sealed slab answers every query bit-identically to a plain DFS over the
// build arena, with identical traversal statistics, and reproduces its leaf
// regions exactly.
func TestSlabMatchesArena(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 7)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		s := p.Seal()
		if s.Kind() != p.Kind() || s.Height() != p.Height() || s.Fanout() != 4 ||
			s.Len() != p.Len() || s.Domain() != p.Domain() || s.PrivacyCost() != p.PrivacyCost() {
			t.Fatalf("%v: slab metadata differs from PSD", cfg.Kind)
		}
		for _, q := range slabTestQueries(dom) {
			wantV, wantSt := arenaRef{p}.QueryWithStats(q)
			gotV, gotSt := s.QueryWithStats(q)
			if gotV != wantV {
				t.Errorf("%v: slab Query(%v) = %v, arena %v", cfg.Kind, q, gotV, wantV)
			}
			if gotSt != wantSt {
				t.Errorf("%v: slab stats for %v = %+v, arena %+v", cfg.Kind, q, gotSt, wantSt)
			}
			if g := s.Query(q); g != wantV {
				t.Errorf("%v: slab Query(%v) = %v, want %v", cfg.Kind, q, g, wantV)
			}
		}
		wantR, wantC := arenaRef{p}.LeafRegions()
		gotR, gotC := s.LeafRegions()
		if len(gotR) != len(wantR) || len(gotC) != len(wantC) {
			t.Fatalf("%v: slab LeafRegions %d/%d, arena %d/%d",
				cfg.Kind, len(gotR), len(gotC), len(wantR), len(wantC))
		}
		if s.NumRegions() != len(wantR) || p.NumRegions() != len(wantR) {
			t.Errorf("%v: NumRegions = %d (slab) / %d (PSD), want %d",
				cfg.Kind, s.NumRegions(), p.NumRegions(), len(wantR))
		}
		for i := range wantR {
			if gotR[i] != wantR[i] || gotC[i] != wantC[i] {
				t.Fatalf("%v: leaf region %d = %v/%v, want %v/%v",
					cfg.Kind, i, gotR[i], gotC[i], wantR[i], wantC[i])
			}
		}
	}
}

// TestSlabFromReleaseMatchesOpenRelease pins that opening a release — decoded
// straight into a slab, with partial publication carried as nil counts —
// answers exactly as the arena reference on the tree that wrote it.
func TestSlabFromReleaseMatchesOpenRelease(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(2048, dom, 21)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		arena := arenaRef{p}
		slab, err := p.Release().Slab()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range slabTestQueries(dom) {
			if a, b := arena.Query(q), slab.Query(q); a != b {
				t.Errorf("%v: release slab Query(%v) = %v, arena %v", cfg.Kind, q, b, a)
			}
		}
		ra, ca := arena.LeafRegions()
		rs, cs := slab.LeafRegions()
		if len(ra) != len(rs) {
			t.Fatalf("%v: release slab has %d regions, arena %d", cfg.Kind, len(rs), len(ra))
		}
		for i := range ra {
			if ra[i] != rs[i] || ca[i] != cs[i] {
				t.Fatalf("%v: release slab region %d differs", cfg.Kind, i)
			}
		}
	}
}

// TestSlabReleaseRoundTrip pins that Slab.Release reconstructs the artifact
// byte-identically: PSD -> Release -> JSON equals PSD -> Seal -> Release ->
// JSON, and a slab decoded from a release re-serializes the same bytes.
func TestSlabReleaseRoundTrip(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 31)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var direct bytes.Buffer
		if _, err := p.Release().WriteTo(&direct); err != nil {
			t.Fatal(err)
		}
		var sealed bytes.Buffer
		if _, err := p.Seal().Release().WriteTo(&sealed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), sealed.Bytes()) {
			t.Errorf("%v: sealed slab release differs from PSD release", cfg.Kind)
		}
		slab, err := p.Release().Slab()
		if err != nil {
			t.Fatal(err)
		}
		var reopened bytes.Buffer
		if _, err := slab.Release().WriteTo(&reopened); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), reopened.Bytes()) {
			t.Errorf("%v: release->slab->release round trip differs", cfg.Kind)
		}
	}
}

// TestSlabCountAllDeterministic pins batch answers to the sequential ones
// at every worker count — the parallel-determinism guarantee the build
// already makes, extended to the slab read path.
func TestSlabCountAllDeterministic(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(2048, dom, 41)
	p, err := Build(pts, dom, Config{Kind: Hybrid, Height: 4, Epsilon: 0.5, Seed: 42, PostProcess: true, PruneThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Seal()
	qs := make([]geom.Rect, 0, 64)
	for i := 0; i < 64; i++ {
		base := slabTestQueries(dom)
		qs = append(qs, base[i%len(base)])
	}
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = s.Query(q)
	}
	for _, workers := range []int{1, 2, 3, 8, 0} {
		got := s.CountAllWorkers(qs, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: CountAll[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
	for i, q := range qs {
		if a := (arenaRef{p}).Query(q); a != want[i] {
			t.Fatalf("arena reference [%d] = %v, slab %v", i, a, want[i])
		}
	}
}

// TestSlabConcurrentQueries hammers the pooled-stack path from many
// goroutines (run with -race in CI): answers must stay exact.
func TestSlabConcurrentQueries(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 51)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 4, Epsilon: 1, Seed: 52, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Seal()
	qs := slabTestQueries(dom)
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = s.Query(q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(qs)
				if got := s.Query(qs[i]); got != want[i] {
					errs <- "concurrent slab query diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
