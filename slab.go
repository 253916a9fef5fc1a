package psd

import (
	"context"
	"io"

	"psd/internal/core"
)

// Slab is the flat, read-only serving form of a decomposition: the released
// rectangles and counts laid out as contiguous columns
// (structure-of-arrays), which is what the query hot path actually reads.
// Build once (or open a published release), then answer unlimited range
// queries — the paper's publish-then-serve split (Section 4.1) with the
// serving side stripped to the minimum bytes per node.
//
// A Slab answers Count, CountBatch and Regions bit-identically to the Tree
// or release it came from, is immutable, and is safe for concurrent use.
// Single queries are allocation-free. Batches go through one engine, the
// node-major pass of CountBatch; CountBatchIntoWorkers and
// CountBatchIntoWorkersCtx are the same pass writing into a caller-owned
// buffer with an explicit worker bound, the latter under a deadline.
type Slab struct {
	inner *core.Slab
}

// Seal materializes the flat read path of a built tree as a new slab the
// caller owns (Close releases it without affecting the tree). The tree
// remains usable; the slab is what a server should hold onto.
func (t *Tree) Seal() *Slab { return &Slab{inner: t.inner.Seal()} }

// Count estimates the number of data points inside q, exactly as
// Tree.Count does on the tree this slab was sealed or opened from.
func (s *Slab) Count(q Rect) float64 { return s.inner.Query(q) }

// QueryStats describes how a batch of queries was answered; it is the sum
// of the per-query traversal statistics.
type QueryStats struct {
	// NodesAdded is the total n(Q): node counts summed into the answers
	// (Section 4.1). Partial leaves count too.
	NodesAdded int `json:"nodes_added"`
	// NodesVisited is the total number of node records the traversals
	// touched.
	NodesVisited int `json:"nodes_visited"`
	// PartialLeaves is the number of leaves answered under the uniformity
	// assumption.
	PartialLeaves int `json:"partial_leaves"`
}

// CountBatch answers a batch of range queries with the node-major batch
// engine: one pass over the slab per batch (sharded across cores for large
// batches) instead of one DFS per query, so node records are loaded once
// per node per batch. Answers come back in input order and are
// bit-identical to calling Count per rectangle.
func (s *Slab) CountBatch(qs []Rect) []float64 { return s.inner.CountBatch(qs) }

// CountBatchIntoWorkers is CountBatch writing into dst (whose length must
// match the batch) with an explicit worker bound (0 = one per core, 1 = a
// single traversal on the caller's goroutine), returning the batch's
// aggregate traversal statistics. Steady-state single-worker calls perform
// no allocations: all traversal state comes from pooled scratch.
func (s *Slab) CountBatchIntoWorkers(dst []float64, qs []Rect, workers int) QueryStats {
	st, _ := s.inner.CountBatchInto(context.Background(), dst, qs, workers) // never cancelled: no error
	return QueryStats(st)
}

// CountCtx is Count honoring ctx: the traversal polls for cancellation at
// bounded checkpoints and returns ctx.Err() if the deadline fires mid-walk,
// never a partial sum. With a never-cancellable context this is exactly
// Count. Serving tiers use this to abandon traversals whose request
// deadline has already passed.
func (s *Slab) CountCtx(ctx context.Context, q Rect) (float64, error) {
	return s.inner.QueryCtx(ctx, q)
}

// CountBatchIntoWorkersCtx is CountBatchIntoWorkers honoring ctx: every
// traversal worker polls for cancellation at bounded checkpoints, and the
// call returns ctx.Err() — with dst undefined — if the deadline fires
// mid-traversal. A batch whose traversal ran to completion is returned even
// if the deadline expires on the way out.
func (s *Slab) CountBatchIntoWorkersCtx(ctx context.Context, dst []float64, qs []Rect, workers int) (QueryStats, error) {
	st, err := s.inner.CountBatchInto(ctx, dst, qs, workers)
	return QueryStats(st), err
}

// Regions returns the effective leaf regions of the release and their
// estimated counts — a flat histogram view of the decomposition.
func (s *Slab) Regions() ([]Rect, []float64) { return s.inner.LeafRegions() }

// NumRegions returns the number of effective leaf regions without
// materializing them.
func (s *Slab) NumRegions() int { return s.inner.NumRegions() }

// PrivacyCost returns the total ε the release consumed.
func (s *Slab) PrivacyCost() float64 { return s.inner.PrivacyCost() }

// Height returns the tree height.
func (s *Slab) Height() int { return s.inner.Height() }

// Kind returns the decomposition family name.
func (s *Slab) Kind() string { return s.inner.Kind().String() }

// Domain returns the released domain.
func (s *Slab) Domain() Rect { return s.inner.Domain() }

// WriteRelease serializes the slab's release as versioned JSON (format 1),
// byte-identical to what the originating tree would write.
func (s *Slab) WriteRelease(w io.Writer) error {
	_, err := s.inner.Release().WriteTo(w)
	return err
}

// WriteBinaryV3Release serializes the slab's release in the record-major
// binary format v3: the node section is byte-for-byte the slab's packed hot
// records, so OpenSlabFile maps the artifact zero-copy instead of decoding
// it. See the README's "Release format v3" section for the layout.
func (s *Slab) WriteBinaryV3Release(w io.Writer) error {
	_, err := s.inner.WriteBinaryV3(w)
	return err
}

// Verify runs the deferred full-body validation on an mmap-opened slab —
// the footer checksum plus the per-node checks a streaming decode performs
// inline — reading every page of the mapping once. On a slab that was
// decoded into heap memory those checks already ran, so Verify returns nil
// without work. Serving tiers call this at load time so a corrupt artifact
// is quarantined instead of answering queries wrong.
func (s *Slab) Verify() error {
	_, err := s.inner.Verify()
	return err
}

// Close releases the slab; for a slab opened zero-copy by OpenSlabFile it
// unmaps the artifact. Any later use panics cleanly ("used after Close").
// Concurrent queries must be drained first. Slabs that are simply dropped
// are unmapped by a GC cleanup instead, so Close is optional — it exists
// for callers that want the mapping (and the file's disk space, if it was
// replaced) released deterministically. Idempotent.
func (s *Slab) Close() error { return s.inner.Close() }
