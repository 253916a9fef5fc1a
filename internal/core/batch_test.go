package core

import (
	"math"
	"testing"

	"psd/internal/geom"
)

// testRand returns a cheap deterministic xorshift generator of floats in
// [0, 1), shared by the batch tests and FuzzCountBatch so their query
// distributions stay in sync.
func testRand(seed uint64) func() float64 {
	state := seed*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / (1 << 53)
	}
}

// batchTestQueries is slabTestQueries plus a spread of random rectangles so
// batches mix every traversal outcome, plus degenerate NaN/inf bounds.
func batchTestQueries(dom geom.Rect, n int, seed int64) []geom.Rect {
	qs := append([]geom.Rect{}, slabTestQueries(dom)...)
	qs = append(qs,
		geom.Rect{Lo: geom.Point{X: math.NaN(), Y: 0}, Hi: geom.Point{X: 1, Y: 1}},
		geom.Rect{Lo: geom.Point{X: dom.Lo.X, Y: dom.Lo.Y}, Hi: geom.Point{X: math.Inf(1), Y: math.Inf(1)}},
	)
	next := testRand(uint64(seed))
	for len(qs) < n {
		x0 := dom.Lo.X + next()*dom.Width()
		y0 := dom.Lo.Y + next()*dom.Height()
		w := next() * dom.Width() * 0.6
		h := next() * dom.Height() * 0.6
		qs = append(qs, geom.Rect{Lo: geom.Point{X: x0, Y: y0}, Hi: geom.Point{X: x0 + w, Y: y0 + h}})
	}
	return qs
}

// sumStats answers qs one Query at a time, returning the answers and the
// summed per-query statistics — the reference the batch engine must match
// exactly.
func sumStats(q interface {
	QueryWithStats(geom.Rect) (float64, QueryStats)
}, qs []geom.Rect) ([]float64, QueryStats) {
	out := make([]float64, len(qs))
	var st QueryStats
	for i, r := range qs {
		v, s := q.QueryWithStats(r)
		out[i] = v
		st.NodesAdded += s.NodesAdded
		st.NodesVisited += s.NodesVisited
		st.PartialLeaves += s.PartialLeaves
	}
	return out, st
}

// TestCountBatchMatchesPerQuery pins the tentpole invariant: the node-major
// batch engine answers every query bit-identically to the per-query path —
// answers AND aggregate traversal statistics — across every decomposition
// family, pruning, partial publication, and worker count.
func TestCountBatchMatchesPerQuery(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 7)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		s := p.Seal()
		qs := batchTestQueries(dom, 300, int64(cfg.Seed))
		wantV, wantSt := sumStats(s, qs)

		// The arena reference agrees too (slab is pinned to it, but assert
		// the whole chain here for the batch path).
		arenaV, arenaSt := sumStats(arenaRef{p}, qs)
		for i := range wantV {
			if arenaV[i] != wantV[i] {
				t.Fatalf("%v: arena Query[%d] = %v, slab %v", cfg.Kind, i, arenaV[i], wantV[i])
			}
		}
		if arenaSt != wantSt {
			t.Fatalf("%v: arena stats %+v, slab %+v", cfg.Kind, arenaSt, wantSt)
		}

		for _, workers := range []int{1, 2, 3, 8, 0} {
			out := make([]float64, len(qs))
			st := s.CountBatchInto(out, qs, workers)
			for i := range wantV {
				if out[i] != wantV[i] {
					t.Fatalf("%v workers=%d: CountBatch[%d] = %v, per-query %v (rect %v)",
						cfg.Kind, workers, i, out[i], wantV[i], qs[i])
				}
			}
			if st != wantSt {
				t.Fatalf("%v workers=%d: batch stats %+v, per-query sum %+v",
					cfg.Kind, workers, st, wantSt)
			}
		}

		// The allocating wrapper and the PSD's lazily sealed slab agree.
		for i, v := range s.CountBatch(qs) {
			if v != wantV[i] {
				t.Fatalf("%v: Slab.CountBatch[%d] = %v, want %v", cfg.Kind, i, v, wantV[i])
			}
		}
		for i, v := range p.Sealed().CountBatch(qs) {
			if v != wantV[i] {
				t.Fatalf("%v: PSD.Sealed().CountBatch[%d] = %v, want %v", cfg.Kind, i, v, wantV[i])
			}
		}
		if pst := p.Sealed().CountBatchInto(make([]float64, len(qs)), qs, 2); pst != wantSt {
			t.Fatalf("%v: PSD batch stats %+v, want %+v", cfg.Kind, pst, wantSt)
		}
	}
}

// TestCountBatchMatchesOnRelease pins the batch engine on slabs opened from
// release artifacts (the serving path), where partial publication shows up
// as nil counts rather than Published flags.
func TestCountBatchMatchesOnRelease(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(2048, dom, 21)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slab, err := p.Release().Slab()
		if err != nil {
			t.Fatal(err)
		}
		qs := batchTestQueries(dom, 200, int64(cfg.Seed)+99)
		wantV, wantSt := sumStats(slab, qs)
		for _, workers := range []int{1, 4, 0} {
			out := make([]float64, len(qs))
			st := slab.CountBatchInto(out, qs, workers)
			for i := range wantV {
				if out[i] != wantV[i] {
					t.Fatalf("%v workers=%d: release CountBatch[%d] = %v, want %v",
						cfg.Kind, workers, i, out[i], wantV[i])
				}
			}
			if st != wantSt {
				t.Fatalf("%v workers=%d: release batch stats %+v, want %+v",
					cfg.Kind, workers, st, wantSt)
			}
		}
	}
}

// TestCountBatchEdgeCases covers the empty batch, the single query, the
// duplicate-heavy batch, and mismatched output length.
func TestCountBatchEdgeCases(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 51)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 9, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Seal()

	if got := s.CountBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d answers", len(got))
	}
	var zero QueryStats
	if st := s.CountBatchInto(nil, nil, 0); st != zero {
		t.Fatalf("empty batch stats %+v", st)
	}

	q := slabTestQueries(dom)[2]
	want, wantSt := s.QueryWithStats(q)
	one := make([]float64, 1)
	if st := s.CountBatchInto(one, []geom.Rect{q}, 0); one[0] != want || st != wantSt {
		t.Fatalf("single-query batch = %v/%+v, want %v/%+v", one[0], st, want, wantSt)
	}

	// A batch of 500 copies of the same rect: every answer identical, stats
	// exactly 500x the single query's.
	dup := make([]geom.Rect, 500)
	for i := range dup {
		dup[i] = q
	}
	out := make([]float64, len(dup))
	st := s.CountBatchInto(out, dup, 0)
	for i, v := range out {
		if v != want {
			t.Fatalf("dup batch [%d] = %v, want %v", i, v, want)
		}
	}
	if st.NodesVisited != 500*wantSt.NodesVisited || st.NodesAdded != 500*wantSt.NodesAdded ||
		st.PartialLeaves != 500*wantSt.PartialLeaves {
		t.Fatalf("dup batch stats %+v, want 500x %+v", st, wantSt)
	}

	// CountBatchInto must reject a mismatched output buffer loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched output length did not panic")
		}
	}()
	s.CountBatchInto(make([]float64, 2), dup, 0)
}

// TestCountBatchIntoOverwrites pins that CountBatchInto treats dst as
// output only: stale values must not leak into answers.
func TestCountBatchIntoOverwrites(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(512, dom, 61)
	p, err := Build(pts, dom, Config{Kind: Hybrid, Height: 3, Epsilon: 1, Seed: 13, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Seal()
	qs := batchTestQueries(dom, 130, 5)
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = s.Query(q)
	}
	for _, workers := range []int{1, 3} {
		out := make([]float64, len(qs))
		for i := range out {
			out[i] = math.NaN()
		}
		s.CountBatchInto(out, qs, workers)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: stale dst leaked: [%d] = %v, want %v", workers, i, out[i], want[i])
			}
		}
	}
}

// TestCountBatchAllocs pins the steady-state allocation bar: after warmup,
// a single-worker batch performs zero allocations per call.
func TestCountBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(2048, dom, 71)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 5, Epsilon: 1, Seed: 3, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Seal()
	qs := batchTestQueries(dom, 256, 17)
	out := make([]float64, len(qs))
	s.CountBatchInto(out, qs, 1) // warm the scratch pool
	if avg := testing.AllocsPerRun(20, func() {
		s.CountBatchInto(out, qs, 1)
	}); avg != 0 {
		t.Fatalf("CountBatchInto(workers=1) allocates %.1f/op, want 0", avg)
	}
}

// TestPSDSealedCached pins that the lazy seal materializes once and that
// its batch answers agree with the arena reference on a fresh tree.
func TestPSDSealedCached(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 81)
	p, err := Build(pts, dom, Config{Kind: KD, Height: 3, Epsilon: 1, Seed: 23, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Sealed() != p.Sealed() {
		t.Fatal("Sealed() did not cache the slab")
	}
	qs := slabTestQueries(dom)
	got := p.Sealed().CountBatch(qs)
	for i, q := range qs {
		if want := (arenaRef{p}).Query(q); got[i] != want {
			t.Fatalf("PSD.Sealed().CountBatch[%d] = %v, arena %v", i, got[i], want)
		}
	}
}
