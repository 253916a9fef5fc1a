package core

import (
	"context"
	"sync/atomic"

	"psd/internal/geom"
)

// Request-deadline support for the serving tier. Queries over a released
// decomposition are pure post-processing, but they are not free: a large
// batch over a deep slab walks millions of node records, and a serving
// replica that cannot abandon a request past its deadline ties up a core
// that a within-deadline request could have used. The traversal engines
// therefore accept a context (QueryCtx, CountBatchInto) and poll it at
// bounded checkpoints: every cancelCheckInterval node visits, the walk
// checks the context's done channel and unwinds if it fired.
//
// The plain entry points (and a context whose Done() is nil) pass a nil
// token and pay one predictable nil-check branch per checkpoint site —
// nothing else changes on the hot path, and answers remain bit-identical.

// cancelCheckInterval is the number of node visits between deadline polls.
// Polling is a channel select (~tens of ns); at this interval the poll cost
// is noise even on the densest traversals, while the cancellation latency
// stays far below any realistic request deadline (4096 visits is ~a few µs
// of traversal).
const cancelCheckInterval = 4096

// cancelToken carries one goroutine's cancellation state through a
// traversal. It is single-goroutine by design (remain is unsynchronized);
// the sharded batch path gives every worker its own token over the shared
// done channel, and workers report through the shared fired flag.
type cancelToken struct {
	done <-chan struct{}
	// remain counts visits until the next poll.
	remain int
	// hit latches once this token observed cancellation.
	hit bool
	// fired, when non-nil, is the cross-worker latch: any worker observing
	// cancellation sets it, and the call as a whole reports the error.
	fired *atomic.Bool
}

// newCancelToken returns a token polling ctx, or nil when ctx can never be
// cancelled (context.Background and friends) so the traversal runs the
// plain path.
func newCancelToken(ctx context.Context, fired *atomic.Bool) *cancelToken {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return &cancelToken{done: done, remain: cancelCheckInterval, fired: fired}
}

// tick consumes n traversal visits and reports whether the traversal must
// abandon its work. The fast path is a subtraction and a branch; the done
// channel is polled only once the interval is spent.
func (c *cancelToken) tick(n int) bool {
	if c == nil {
		return false
	}
	if c.hit {
		return true
	}
	c.remain -= n
	if c.remain > 0 {
		return false
	}
	return c.poll()
}

// poll is the slow path of tick: reset the interval and check the channel.
func (c *cancelToken) poll() bool {
	c.remain = cancelCheckInterval
	select {
	case <-c.done:
		c.hit = true
		if c.fired != nil {
			c.fired.Store(true)
		}
		return true
	default:
		return false
	}
}

// QueryCtx is Query honoring ctx: the traversal polls for cancellation at
// bounded checkpoints and returns ctx.Err() if the deadline fires mid-walk.
// A partial sum is never returned. With a never-cancellable context this is
// exactly Query.
func (s *Slab) QueryCtx(ctx context.Context, q geom.Rect) (float64, error) {
	s.ensureOpen()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	tok := newCancelToken(ctx, nil)
	var st QueryStats
	stack := s.getStack()
	sum := s.queryIter(q, stack, &st, tok)
	s.putStack(stack)
	if tok != nil && tok.hit {
		return 0, ctx.Err()
	}
	return sum, nil
}
