package core

import (
	"context"
	"sync/atomic"

	"psd/internal/geom"
	"psd/internal/par"
)

// This file implements the node-major batched query engine for the slab —
// the read-path sequel to the slab itself. The paper's economics are
// build-once/query-forever (Section 4.1: queries are free post-processing),
// and decompositions are overwhelmingly queried in batches: error sweeps,
// heatmap tiles, evaluation workloads. Answering a batch as Q independent
// DFS walks re-streams the same hot node records from memory Q times; a
// kd h=8 slab is ~3.5 MB of packed records, so every per-query walk is a
// string of cache misses.
//
// The node-major engine inverts the loops: it traverses the tree ONCE per
// batch, carrying an active-query list per frontier node. At each internal
// node every still-active query is classified against the four children in
// a single pass over the packed 40-byte records — non-intersecting queries
// are dropped, fully-contained ones are retired with a single est load,
// and the rest descend — so bound data is loaded once per node per batch
// instead of once per node per query. The classification work (rect-vs-rect
// tests) is exactly what the per-query walks do; only the memory access
// pattern changes: the four child records stay register/L1-resident while
// the dense query bounds stream past them.
//
// Three schedule-level optimizations ride on top, none of which changes a
// single answered bit:
//
//   - Locality clustering: the batch is processed in Morton order of the
//     query centers (a stable radix sort), so shards land in disjoint
//     subtrees, active lists stay spatially dense, and classification
//     branches flip in long predictable runs.
//   - Leaf-parent fusion: at nodes whose children are leaves — roughly
//     half of all (node, query) pairs — contributions are computed inline
//     during classification, with no lists and all operands in registers
//     (batchLeafParent; the per-query walk fuses leaf parents the same
//     way, one query at a time).
//   - Thin-list handoff: once a subtree's active list has thinned below
//     batchThinList, the remaining queries finish with the per-query walk
//     (walk, the same loop Query runs, entered mid-tree) over the now
//     cache-resident subtree.
//
// Answers and traversal statistics are bit-identical to issuing each Query
// alone. That holds because (a) every query's contributions arrive in the
// same DFS order as its own walk would produce them (children are processed
// in order, and a child's retirements are applied before its subtree
// recursion, exactly mirroring the per-query stack pops), and (b) the
// per-(node, query) visit accounting mirrors the per-query walk event for
// event.

// batchMinShard is the smallest per-worker batch slice worth the fan-out:
// below it, scheduling overhead beats the parallelism.
const batchMinShard = 64

// batchLists holds one internal node's classification output: per child,
// the queries that fully contain it (retire: their contribution is a
// single est load) and the queries that partially intersect it (descend).
// Keeping the two classes in separate lists makes the retire walk a plain
// gather-add and the descend walk a clean recursion input.
type batchLists struct {
	ret  [4][]int32
	desc [4][]int32
}

// batchScratch is the per-worker reusable state of one node-major
// traversal. Borrowed from a pool, so steady-state batches allocate
// nothing once the buffers have grown to the working size.
type batchScratch struct {
	// qb and acc are the dense query bounds and per-query accumulators of
	// the current run — always views into qbuf/abuf holding the shard's
	// clustered copy (the Morton reorder forces the copy). Dense
	// accumulators keep the retirement adds inside the shard's own cache
	// lines instead of false-sharing the caller's output slice across
	// workers.
	qb  []geom.Rect
	acc []float64
	// qbuf and abuf are the pooled backing arrays the sharded path copies
	// its clustered query subset into.
	qbuf []geom.Rect
	abuf []float64
	// active is the root's active-query list.
	active []int32
	// stack is the DFS stack of the thin-list per-query walks.
	stack []int32
	// levels[d] holds the child lists of the internal node currently being
	// processed at depth d. DFS means one node per depth is in flight, so
	// per-depth buffers are all the traversal ever needs.
	levels [maxReleaseHeight + 1]batchLists
	// st accumulates the shard's traversal statistics across the
	// recursion; the caller flushes it once per shard.
	st QueryStats
	// cancel, when non-nil, is this worker's deadline token (cancel.go):
	// the traversal polls it at bounded checkpoints and unwinds when it
	// fires. Cleared before the scratch returns to the pool.
	cancel *cancelToken
}

// batchState is the per-call clustering state: the locality sort keys and
// query order, the radix-sort scratch, and the per-shard statistics.
type batchState struct {
	order []int32
	tmp   []int32
	keys  []uint32
	stats []QueryStats
}

func (s *Slab) getBatchScratch() *batchScratch {
	if v := s.batchScratches.Get(); v != nil {
		return v.(*batchScratch)
	}
	return &batchScratch{}
}

func (s *Slab) putBatchScratch(sc *batchScratch) {
	sc.qb, sc.acc, sc.cancel = nil, nil, nil
	s.batchScratches.Put(sc)
}

func (s *Slab) getBatchState() *batchState {
	if v := s.batchStates.Get(); v != nil {
		return v.(*batchState)
	}
	return &batchState{}
}

func (s *Slab) putBatchState(bs *batchState) { s.batchStates.Put(bs) }

// CountBatch answers a batch of range queries in one node-major pass over
// the slab (sharded across one worker per available core for large
// batches). Answers come back in input order and are bit-identical to
// issuing each Query alone.
func (s *Slab) CountBatch(qs []geom.Rect) []float64 {
	out := make([]float64, len(qs))
	s.ensureOpen()
	s.countBatchInto(out, qs, 0, nil, nil)
	return out
}

// CountBatchInto answers qs into out (whose length must match) and returns
// the batch's aggregate traversal statistics — exactly the sum of the
// QueryStats each individual Query would report. workers bounds the
// traversal goroutines (0 = one per core, 1 = a single traversal on the
// caller's goroutine).
//
// Large batches are sharded across workers after locality clustering:
// queries are pre-grouped by subtree (Morton order of their centers, whose
// leading bits pick the depth-2 subtree), so each shard's active lists
// stay dense and the slab streams near-sequentially. Answers and
// statistics are identical at every worker count.
//
// ctx is polled by every traversal worker at bounded checkpoints, and the
// call returns ctx.Err() — with out undefined — if any worker observed the
// deadline firing mid-traversal. A batch whose traversal ran to completion
// is returned even if the deadline expires on the way out: the answers are
// complete and valid. A context that can never be cancelled (Done() is
// nil) runs the plain path: with workers <= 1 the steady-state call then
// performs no allocations, all traversal state coming from pooled scratch.
func (s *Slab) CountBatchInto(ctx context.Context, out []float64, qs []geom.Rect, workers int) (QueryStats, error) {
	s.ensureOpen()
	if err := ctx.Err(); err != nil {
		return QueryStats{}, err
	}
	done := ctx.Done()
	if done == nil {
		return s.countBatchInto(out, qs, workers, nil, nil), nil
	}
	fired := new(atomic.Bool)
	st := s.countBatchInto(out, qs, workers, done, fired)
	if fired.Load() {
		return QueryStats{}, ctx.Err()
	}
	return st, nil
}

// batchCancelToken builds one worker's deadline token over the batch's
// shared done channel, or nil when the batch runs without a deadline.
func batchCancelToken(done <-chan struct{}, fired *atomic.Bool) *cancelToken {
	if done == nil {
		return nil
	}
	return &cancelToken{done: done, remain: cancelCheckInterval, fired: fired}
}

// countBatchInto is the batch engine proper. done, when non-nil, is the
// caller's cancellation channel (CountBatchInto's ctx): every traversal worker
// polls it at bounded checkpoints through its own cancelToken and unwinds
// when it fires, latching fired so the caller knows the output is partial
// and must be discarded. With done == nil this is exactly the plain path.
func (s *Slab) countBatchInto(out []float64, qs []geom.Rect, workers int, done <-chan struct{}, fired *atomic.Bool) QueryStats {
	if len(out) != len(qs) {
		panic("core: CountBatchInto output length does not match batch length")
	}
	var st QueryStats
	n := len(qs)
	if n == 0 {
		return st
	}
	// A batch at or below the thin-list threshold would immediately hand
	// every query to the per-query walk anyway; answer it directly and
	// skip the clustering machinery (the serving layer hits this on warm
	// caches with a handful of misses).
	if n <= batchThinList {
		tok := batchCancelToken(done, fired)
		stack := s.getStack()
		for i, q := range qs {
			out[i] = s.queryIter(q, stack, &st, tok)
		}
		s.putStack(stack)
		return st
	}

	w := par.Workers(workers)
	if maxW := (n + batchMinShard - 1) / batchMinShard; w > maxW {
		w = maxW
	}

	// Locality clustering: order the batch by the Morton interleave of each
	// query's center. The leading key bits are exactly which depth-2 (then
	// depth-3, ...) subtree the query lands in, so contiguous slices of the
	// order concentrate on the same parts of the slab — shards stay in
	// disjoint subtrees, active lists stay spatially dense, and a node's
	// child classifications flip in long predictable runs instead of
	// per-query coin flips. Clustering only permutes which position in the
	// traversal answers which query — every answer and every stat event is
	// computed identically — so this is pure scheduling, like the
	// build-side worker pools.
	bs := s.getBatchState()
	if cap(bs.order) < n {
		bs.order = make([]int32, n)
		bs.tmp = make([]int32, n)
		bs.keys = make([]uint32, n)
	}
	order, keys := bs.order[:n], bs.keys[:n]
	s.mortonKeys(qs, keys)
	for i := range order {
		order[i] = int32(i)
	}
	radixSortByKey(order, bs.tmp[:n], keys)

	if w <= 1 {
		s.countBatchShardInto(out, qs, order, &st, done, fired)
		s.putBatchState(bs)
		return st
	}

	if cap(bs.stats) < w {
		bs.stats = make([]QueryStats, w)
	}
	stats := bs.stats[:w]
	for k := range stats {
		stats[k] = QueryStats{}
	}
	// A worker's panic is re-raised here once every worker has joined
	// (par.Group), so a fault in a sharded batch reaches the caller's
	// recovery instead of killing the process.
	chunk := (n + w - 1) / w
	var g par.Group
	for k := 0; k < w; k++ {
		lo := k * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		g.Go(func() {
			if h := batchWorkerHook.Load(); h != nil {
				(*h)(k)
			}
			s.countBatchShardInto(out, qs, order[lo:hi], &stats[k], done, fired)
		})
	}
	g.Wait()
	for k := 0; k < w; k++ {
		st.NodesAdded += stats[k].NodesAdded
		st.NodesVisited += stats[k].NodesVisited
		st.PartialLeaves += stats[k].PartialLeaves
	}
	s.putBatchState(bs)
	return st
}

// countBatchShardInto answers the queries ids names (positions in qs, in
// clustered order) into out: it copies them into a pooled scratch, runs one
// node-major traversal over them, and scatters the answers back. The
// single-worker path calls it inline, each shard worker calls it on its own
// disjoint ids, so shards never write the same out slot.
func (s *Slab) countBatchShardInto(out []float64, qs []geom.Rect, ids []int32, st *QueryStats, done <-chan struct{}, fired *atomic.Bool) {
	sc := s.getBatchScratch()
	m := len(ids)
	if cap(sc.qbuf) < m {
		sc.qbuf = make([]geom.Rect, m)
		sc.abuf = make([]float64, m)
	}
	qb, acc := sc.qbuf[:m], sc.abuf[:m]
	for i, qi := range ids {
		qb[i] = qs[qi]
		acc[i] = 0
	}
	sc.qb, sc.acc = qb, acc
	sc.cancel = batchCancelToken(done, fired)
	s.countBatchShard(sc, st)
	for i, qi := range ids {
		out[qi] = acc[i]
	}
	s.putBatchScratch(sc)
}

// batchWorkerHook, when set, runs first in every sharded batch worker with
// the worker's shard index. Fault-injection tests use it to panic inside a
// worker goroutine; production never sets it.
var batchWorkerHook atomic.Pointer[func(shard int)]

// SetBatchWorkerHook installs fn (nil clears it) as the sharded batch
// workers' hook and returns a function restoring the previous one. It
// exists for fault-injection tests.
func SetBatchWorkerHook(fn func(shard int)) (restore func()) {
	var p *func(int)
	if fn != nil {
		p = &fn
	}
	prev := batchWorkerHook.Swap(p)
	return func() { batchWorkerHook.Store(prev) }
}

// mortonKeys computes the locality sort key of each query: the bit
// interleave of its center quantized to 16 bits per axis over the released
// domain. The top key bits are the depth-2 subtree of the center (for the
// midpoint-split families exactly; for median-split families a close
// spatial proxy), deeper bits refine within it. NaN centers clamp to 0 and
// sort together at the front, where the root filter drops them.
func (s *Slab) mortonKeys(qs []geom.Rect, keys []uint32) {
	dom := s.domain
	sx, sy := 0.0, 0.0
	if w := dom.Width(); w > 0 {
		sx = 65535.0 / w
	}
	if h := dom.Height(); h > 0 {
		sy = 65535.0 / h
	}
	for i, q := range qs {
		fx := ((q.Lo.X+q.Hi.X)*0.5 - dom.Lo.X) * sx
		fy := ((q.Lo.Y+q.Hi.Y)*0.5 - dom.Lo.Y) * sy
		var ux, uy uint32
		if fx > 0 { // NaN fails, clamping it to 0
			if fx > 65535 {
				fx = 65535
			}
			ux = uint32(fx)
		}
		if fy > 0 {
			if fy > 65535 {
				fy = 65535
			}
			uy = uint32(fy)
		}
		keys[i] = spreadBits16(ux)<<1 | spreadBits16(uy)
	}
}

// spreadBits16 spaces the low 16 bits of v one position apart (the Morton
// half-interleave).
func spreadBits16(v uint32) uint32 {
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// radixSortByKey sorts order by keys[order[i]] with a stable 4-pass LSD
// byte radix — deterministic (stability fixes the order of equal keys),
// allocation-free, and O(n). tmp must have the same length as order.
func radixSortByKey(order, tmp []int32, keys []uint32) {
	var counts [4][257]int32
	for _, qi := range order {
		k := keys[qi]
		counts[0][(k&0xff)+1]++
		counts[1][(k>>8&0xff)+1]++
		counts[2][(k>>16&0xff)+1]++
		counts[3][(k>>24)+1]++
	}
	src, dst := order, tmp
	for pass := 0; pass < 4; pass++ {
		c := &counts[pass]
		for b := 1; b < 257; b++ {
			c[b] += c[b-1]
		}
		shift := uint(8 * pass)
		for _, qi := range src {
			b := keys[qi] >> shift & 0xff
			dst[c[b]] = qi
			c[b]++
		}
		src, dst = dst, src
	}
	// Four passes land the sorted order back in the original slice.
}

// countBatchShard answers the dense queries sc.qb into sc.acc with one
// node-major traversal. The root is handled exactly as queryIter's
// unclassified-root path: every query visits it, non-intersecting and NaN
// queries answer 0, contained-and-usable queries take the root estimate,
// and the rest form the root's active list.
func (s *Slab) countBatchShard(sc *batchScratch, st *QueryStats) {
	qb, acc := sc.qb, sc.acc
	sc.st = QueryStats{}
	active := sc.active[:0]
	r := &s.nodes[0]
	rootUsable := s.allUsable || s.usable.get(0)
	for i := range qb {
		q := &qb[i]
		if q.Lo.X != q.Lo.X || q.Lo.Y != q.Lo.Y || q.Hi.X != q.Hi.X || q.Hi.Y != q.Hi.Y {
			continue // NaN bound: the visit finds no intersection, answer 0
		}
		if r[0] >= q.Hi.X || q.Lo.X >= r[2] || r[1] >= q.Hi.Y || q.Lo.Y >= r[3] {
			continue
		}
		if q.Lo.X <= r[0] && r[2] <= q.Hi.X && q.Lo.Y <= r[1] && r[3] <= q.Hi.Y && rootUsable {
			sc.st.NodesAdded++
			acc[i] = r[4]
			continue
		}
		active = append(active, int32(i))
	}
	sc.st.NodesVisited += len(qb) // every query pops the root exactly once
	sc.active = active
	if !sc.cancel.tick(len(qb)) {
		s.batchChild(sc, 0, 0, active)
	}
	st.NodesAdded += sc.st.NodesAdded
	st.NodesVisited += sc.st.NodesVisited
	st.PartialLeaves += sc.st.PartialLeaves
}

// batchChild finishes the queries of active below node idx at depth d:
// node-major while the list is dense, per-query walks once it has thinned
// to batchThinList or fewer.
func (s *Slab) batchChild(sc *batchScratch, idx, d int, active []int32) {
	if len(active) > batchThinList {
		s.batchNode(sc, idx, d, active)
		return
	}
	for _, qi := range active {
		sc.acc[qi] = s.walk(sc.qb[qi], idx, d, sc.acc[qi], &sc.stack, &sc.st, sc.cancel)
	}
}

// batchLeafParent processes one internal node whose four children are all
// leaves — the hottest level of the traversal, roughly half of all
// (node, query) pairs. Because every child is terminal, each query's
// contributions at this node are computable in child order within a single
// pass: no lists, no recursion, all child bounds and estimates in
// registers. The arithmetic per contribution is operation-for-operation
// what the per-query pop performs (a retire's single est load, a partial
// leaf's est × overlapFraction — including the +0.0 add of a zero-area
// overlap), so the accumulation order and bits match exactly.
//
// It applies the same per-leaf rule as the per-query walk's addLeaves. The
// two are kept apart on purpose: sharing addLeaves here (one call and four
// record reloads per query) measured ~25% slower on dense lists, and the
// hoisted form below is slower for the walk's single query.
//
//lint:allow ctxpoll -- the visits here are pre-paid: batchNode ticks 4*len(active) before dispatching, covering all four terminal children
func (s *Slab) batchLeafParent(sc *batchScratch, cs int, active []int32) {
	nodes := s.nodes
	c0, c1, c2, c3 := &nodes[cs], &nodes[cs+1], &nodes[cs+2], &nodes[cs+3]
	c0x0, c0y0, c0x1, c0y1, e0 := c0[0], c0[1], c0[2], c0[3], c0[4]
	c1x0, c1y0, c1x1, c1y1, e1 := c1[0], c1[1], c1[2], c1[3], c1[4]
	c2x0, c2y0, c2x1, c2y1, e2 := c2[0], c2[1], c2[2], c2[3], c2[4]
	c3x0, c3y0, c3x1, c3y1, e3 := c3[0], c3[1], c3[2], c3[3], c3[4]
	a0 := (c0x1 - c0x0) * (c0y1 - c0y0)
	a1 := (c1x1 - c1x0) * (c1y1 - c1y0)
	a2 := (c2x1 - c2x0) * (c2y1 - c2y0)
	a3 := (c3x1 - c3x0) * (c3y1 - c3y0)
	allU := s.allUsable
	u0 := allU || s.usable.get(cs)
	u1 := allU || s.usable.get(cs+1)
	u2 := allU || s.usable.get(cs+2)
	u3 := allU || s.usable.get(cs+3)
	added, partials := 0, 0
	qb, acc := sc.qb, sc.acc
	for _, qi := range active {
		q := &qb[qi]
		lox, loy, hix, hiy := q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y
		sum := acc[qi]

		if c0x0 < hix && lox < c0x1 && c0y0 < hiy && loy < c0y1 {
			if lox <= c0x0 && c0x1 <= hix && loy <= c0y0 && c0y1 <= hiy && u0 {
				added++
				sum += e0
			} else if u0 {
				added++
				partials++
				sum += e0 * leafOverlap(a0, max(c0x0, lox), min(c0x1, hix), max(c0y0, loy), min(c0y1, hiy))
			}
		}
		if c1x0 < hix && lox < c1x1 && c1y0 < hiy && loy < c1y1 {
			if lox <= c1x0 && c1x1 <= hix && loy <= c1y0 && c1y1 <= hiy && u1 {
				added++
				sum += e1
			} else if u1 {
				added++
				partials++
				sum += e1 * leafOverlap(a1, max(c1x0, lox), min(c1x1, hix), max(c1y0, loy), min(c1y1, hiy))
			}
		}
		if c2x0 < hix && lox < c2x1 && c2y0 < hiy && loy < c2y1 {
			if lox <= c2x0 && c2x1 <= hix && loy <= c2y0 && c2y1 <= hiy && u2 {
				added++
				sum += e2
			} else if u2 {
				added++
				partials++
				sum += e2 * leafOverlap(a2, max(c2x0, lox), min(c2x1, hix), max(c2y0, loy), min(c2y1, hiy))
			}
		}
		if c3x0 < hix && lox < c3x1 && c3y0 < hiy && loy < c3y1 {
			if lox <= c3x0 && c3x1 <= hix && loy <= c3y0 && c3y1 <= hiy && u3 {
				added++
				sum += e3
			} else if u3 {
				added++
				partials++
				sum += e3 * leafOverlap(a3, max(c3x0, lox), min(c3x1, hix), max(c3y0, loy), min(c3y1, hiy))
			}
		}
		acc[qi] = sum
	}
	sc.st.NodesVisited += 4 * len(active)
	sc.st.NodesAdded += added
	sc.st.PartialLeaves += partials
}

// batchNode processes one node the parent classified as active (it
// intersects every query in the list but is not contained-and-usable for
// any of them), recursing child by child in order so each query's
// floating-point accumulation order matches its own DFS exactly.
func (s *Slab) batchNode(sc *batchScratch, idx, d int, active []int32) {
	if sc.cancel.tick(4 * len(active)) {
		return // deadline fired: the caller discards the partial batch
	}
	nodes := s.nodes
	if d+1 == s.height && !(s.hasPruned && s.pruned.get(idx)) {
		cs := int(s.offsets[d+1]) + (idx-int(s.offsets[d]))*4
		s.batchLeafParent(sc, cs, active)
		return
	}
	if d == s.height || (s.hasPruned && s.pruned.get(idx)) {
		// Terminal node (leaf or pruned root): uniformity assumption.
		if !(s.allUsable || s.usable.get(idx)) {
			return // no released information at or below this node
		}
		nd := &nodes[idx]
		sc.st.NodesAdded += len(active)
		sc.st.PartialLeaves += len(active)
		qb, acc := sc.qb, sc.acc
		for _, qi := range active {
			acc[qi] += nd[4] * overlapFraction(nd, qb[qi])
		}
		return
	}

	// Classify every active query against the four children in one pass:
	// the child bounds are hoisted into locals (registers), so only the
	// query bounds stream. The outcomes mirror the per-query walk's
	// classification exactly — drop, retire, or descend — and each (query, child)
	// pair costs one visit, just as each per-query walk pops or discards
	// that child once. The Morton processing order makes these branches
	// cheap: spatially adjacent queries classify the same way, so each
	// child's outcome flips in long runs the predictor learns instead of
	// per-query coin flips.
	cs := int(s.offsets[d+1]) + (idx-int(s.offsets[d]))*4
	lv := &sc.levels[d]
	na := len(active)
	if cap(lv.desc[0]) < na {
		for j := 0; j < 4; j++ {
			lv.desc[j] = make([]int32, na)
			lv.ret[j] = make([]int32, na)
		}
	}
	l0, l1, l2, l3 := lv.desc[0][:na], lv.desc[1][:na], lv.desc[2][:na], lv.desc[3][:na]
	r0, r1, r2, r3 := lv.ret[0][:na], lv.ret[1][:na], lv.ret[2][:na], lv.ret[3][:na]
	c0, c1, c2, c3 := &nodes[cs], &nodes[cs+1], &nodes[cs+2], &nodes[cs+3]
	c0x0, c0y0, c0x1, c0y1 := c0[0], c0[1], c0[2], c0[3]
	c1x0, c1y0, c1x1, c1y1 := c1[0], c1[1], c1[2], c1[3]
	c2x0, c2y0, c2x1, c2y1 := c2[0], c2[1], c2[2], c2[3]
	c3x0, c3y0, c3x1, c3y1 := c3[0], c3[1], c3[2], c3[3]
	allU := s.allUsable
	u0 := allU || s.usable.get(cs)
	u1 := allU || s.usable.get(cs+1)
	u2 := allU || s.usable.get(cs+2)
	u3 := allU || s.usable.get(cs+3)
	var n0, n1, n2, n3, m0, m1, m2, m3 int
	qb := sc.qb
	for _, qi := range active {
		q := &qb[qi]
		lox, loy, hix, hiy := q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y

		if c0x0 < hix && lox < c0x1 && c0y0 < hiy && loy < c0y1 {
			if lox <= c0x0 && c0x1 <= hix && loy <= c0y0 && c0y1 <= hiy && u0 {
				r0[m0] = qi
				m0++
			} else {
				l0[n0] = qi
				n0++
			}
		}
		if c1x0 < hix && lox < c1x1 && c1y0 < hiy && loy < c1y1 {
			if lox <= c1x0 && c1x1 <= hix && loy <= c1y0 && c1y1 <= hiy && u1 {
				r1[m1] = qi
				m1++
			} else {
				l1[n1] = qi
				n1++
			}
		}
		if c2x0 < hix && lox < c2x1 && c2y0 < hiy && loy < c2y1 {
			if lox <= c2x0 && c2x1 <= hix && loy <= c2y0 && c2y1 <= hiy && u2 {
				r2[m2] = qi
				m2++
			} else {
				l2[n2] = qi
				n2++
			}
		}
		if c3x0 < hix && lox < c3x1 && c3y0 < hiy && loy < c3y1 {
			if lox <= c3x0 && c3x1 <= hix && loy <= c3y0 && c3y1 <= hiy && u3 {
				r3[m3] = qi
				m3++
			} else {
				l3[n3] = qi
				n3++
			}
		}
	}
	sc.st.NodesVisited += 4 * na
	sc.st.NodesAdded += m0 + m1 + m2 + m3
	lv.desc[0], lv.desc[1], lv.desc[2], lv.desc[3] = l0[:n0], l1[:n1], l2[:n2], l3[:n3]
	lv.ret[0], lv.ret[1], lv.ret[2], lv.ret[3] = r0[:m0], r1[:m1], r2[:m2], r3[:m3]

	// Process children in order: walk child j's retire list (each entry a
	// single est load, exactly the per-query pre-classified pop) and then
	// its subtree. Child j's contributions — retirements and subtree alike
	// — land before child j+1's for every query, which is precisely the
	// per-query stack's pop order.
	acc := sc.acc
	for j := 0; j < 4; j++ {
		if rl := lv.ret[j]; len(rl) > 0 {
			est := nodes[cs+j][4]
			for _, qi := range rl {
				acc[qi] += est
			}
		}
		s.batchChild(sc, cs+j, d+1, lv.desc[j])
	}
}

// batchThinList is the active-list length at or below which a subtree is
// finished with per-query walks instead of node-major list processing.
// Once a list has thinned this far the child records are no longer shared
// across enough queries to pay for the list bookkeeping; the walks run
// back to back over the same (now cache-resident) subtree, so locality is
// kept either way. Purely a scheduling choice: answers and statistics are
// identical on both sides of the threshold.
const batchThinList = 3
