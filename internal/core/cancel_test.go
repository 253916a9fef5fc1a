package core

import (
	"context"
	"sync/atomic"
	"testing"

	"psd/internal/geom"
)

// TestQueryCtxMatchesQuery pins the deadline plumbing's zero-cost contract:
// with a live context — background (nil token fast path) or cancellable but
// not cancelled (token engaged, polls never fire) — QueryCtx answers are
// bit-identical to Query, and a context cancelled up front errors without
// traversing.
func TestQueryCtxMatchesQuery(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(2048, dom, 11)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		s := p.Seal()
		qs := batchTestQueries(dom, 64, int64(cfg.Seed))
		live, cancel := context.WithCancel(context.Background())
		for i, q := range qs {
			want := s.Query(q)
			got, err := s.QueryCtx(context.Background(), q)
			if err != nil || got != want {
				t.Fatalf("%v: QueryCtx(background)[%d] = %v, %v; want %v", cfg.Kind, i, got, err, want)
			}
			got, err = s.QueryCtx(live, q)
			if err != nil || got != want {
				t.Fatalf("%v: QueryCtx(live)[%d] = %v, %v; want %v", cfg.Kind, i, got, err, want)
			}
		}
		cancel()
		if _, err := s.QueryCtx(live, qs[0]); err != context.Canceled {
			t.Fatalf("%v: QueryCtx(cancelled) err = %v, want context.Canceled", cfg.Kind, err)
		}
	}
}

// TestCountBatchIntoCtxMatchesPlain pins the batch-side contract: a live
// context changes nothing — answers and statistics are bit-identical to
// the plain path a never-cancelled context runs, at every worker count —
// and a cancelled context errors.
func TestCountBatchIntoCtxMatchesPlain(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(2048, dom, 13)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		s := p.Seal()
		qs := batchTestQueries(dom, 200, int64(cfg.Seed))
		want := make([]float64, len(qs))
		wantSt := batchInto(t, s, want, qs, 0)
		live, cancel := context.WithCancel(context.Background())
		for _, workers := range []int{1, 2, 0} {
			for _, ctx := range []context.Context{context.Background(), live} {
				out := make([]float64, len(qs))
				st, err := s.CountBatchInto(ctx, out, qs, workers)
				if err != nil {
					t.Fatalf("%v workers=%d: CountBatchInto: %v", cfg.Kind, workers, err)
				}
				if st != wantSt {
					t.Fatalf("%v workers=%d: ctx batch stats %+v, want %+v", cfg.Kind, workers, st, wantSt)
				}
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("%v workers=%d: ctx batch[%d] = %v, want %v", cfg.Kind, workers, i, out[i], want[i])
					}
				}
			}
		}
		cancel()
		if _, err := s.CountBatchInto(live, make([]float64, len(qs)), qs, 0); err != context.Canceled {
			t.Fatalf("%v: CountBatchInto(cancelled) err = %v, want context.Canceled", cfg.Kind, err)
		}
	}
}

// TestCancelUnwindsTraversal proves cancellation actually interrupts work
// in flight, deterministically: a done channel that is already closed when
// the traversal starts must fire at the first exhausted checkpoint interval
// and unwind, latching the shared fired flag. (The ctx entry points check
// ctx.Err() up front, so this drives the internal engines directly — the
// state a concurrent cancel mid-walk produces.)
func TestCancelUnwindsTraversal(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 17)
	cfg := slabTestConfigs()[0]
	p, err := Build(pts, dom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Seal()
	done := make(chan struct{})
	close(done)

	// Per-query walk: a token one tick from polling observes the closed
	// channel on the first pop and unwinds immediately.
	tok := &cancelToken{done: done, remain: 1}
	var st QueryStats
	stack := s.getStack()
	s.queryIter(dom, stack, &st, tok)
	s.putStack(stack)
	if !tok.hit {
		t.Fatal("queryIter did not observe a closed done channel")
	}
	if st.NodesVisited > 1 {
		t.Fatalf("queryIter visited %d nodes after cancellation fired", st.NodesVisited)
	}

	// Batch engine, single worker: 512 queries tick far past one
	// cancelCheckInterval, so the worker's token must poll, fire, and latch
	// the shared flag — regardless of where in the traversal the interval
	// ran out.
	qs := batchTestQueries(dom, 512, 1)
	var fired atomic.Bool
	out := make([]float64, len(qs))
	s.countBatchInto(out, qs, 1, done, &fired)
	if !fired.Load() {
		t.Fatal("countBatchInto did not latch fired on a closed done channel")
	}
}
