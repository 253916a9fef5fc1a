package core

import (
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"psd/internal/geom"
	"psd/internal/tree"
)

// Slab is the flat structure-of-arrays read path of a decomposition: the
// minimum the canonical range query of Section 4.1 needs, laid out as
// contiguous per-field columns instead of an arena of full tree.Node
// structs. A query DFS through the arena drags ~64 bytes of Node (exact and
// noisy counts included) through cache per visited node; the slab touches
// only the rectangle bounds, the released estimate, and one child offset.
//
// A slab is immutable once materialized — by Seal from a built PSD, by
// Release.Slab from a parsed JSON artifact, or by ReadBinary/OpenSlabMmap
// from a binary (v2 or v3) artifact — and is safe for concurrent queries. It
// is the only query engine: built trees answer through PSD.Sealed, and
// internal/serve serves nothing else.
type Slab struct {
	kind    Kind
	height  int
	domain  geom.Rect
	epsilon float64

	// offsets[d] is the index of the first node at depth d; offsets[height+1]
	// is the node count (the breadth-first layout of tree.Tree). A fixed
	// array: entries are L1-resident and the 4-bit stack depth can never
	// index past it, so the hot loop pays no bounds checks.
	offsets [maxReleaseHeight + 4]int32

	// nodes holds the packed per-node hot record [lox, loy, hix, hiy, est],
	// breadth-first — the 40 bytes per node the read path actually needs
	// (versus the ~64-byte arena Node). Profiling drove this layout: scalar
	// per-field columns make every child classification touch independent
	// memory streams (one cache line and TLB entry per field per fanout),
	// where the packed record streams children through 2-3 adjacent lines.
	// The binary release format v2 still stores scalar columns on disk;
	// ReadBinary interleaves while decoding.
	nodes [][5]float64
	// usable marks nodes with released information (Published, or everything
	// on a post-processed tree); pruned marks pruned subtree roots.
	usable bitset
	pruned bitset
	// allUsable and hasPruned summarize the bitsets so the common serving
	// case (post-processed release, no pruning) never touches them in the
	// hot loop. Child offsets need no column at all: the complete-tree
	// layout derives them from the offsets array.
	allUsable bool
	hasPruned bool

	// effLeaves is the number of effective leaf regions; LeafRegions
	// pre-sizes its output with it.
	effLeaves int

	// mapped is non-nil when the columns alias an mmap'd v3 artifact
	// (OpenSlabMmap) instead of heap memory; Close unmaps it, and a GC
	// cleanup unmaps it if the slab is dropped without Close. closed makes
	// use-after-Close a clean panic at the public entry points rather than
	// a SIGBUS from a faulted-out mapping.
	mapped  *slabMapping
	cleanup runtime.Cleanup
	closed  atomic.Bool

	// stacks pools query DFS stacks so single queries are allocation-free.
	stacks sync.Pool
	// batchScratches and batchStates pool the node-major batch engine's
	// per-worker traversal state and per-call clustering state (batch.go),
	// so steady-state CountBatch calls are allocation-free.
	batchScratches sync.Pool
	batchStates    sync.Pool
}

// bitset is a packed bool-per-node column.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// full reports whether all n tracked bits are set.
func (b bitset) full(n int) bool {
	for i, w := range b {
		want := ^uint64(0)
		if rem := n - 64*i; rem < 64 {
			want = 1<<uint(rem) - 1
		}
		if w != want {
			return false
		}
	}
	return true
}

// any reports whether any bit is set.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// newSlab allocates the columns of a fanout-4 complete-tree slab and fills
// in the child offsets. Terminal marking (leaves and pruned roots) is the
// caller's job; children default to the complete-tree layout with leaves -1.
func newSlab(kind Kind, height int, domain geom.Rect, epsilon float64) *Slab {
	s := &Slab{
		kind:    kind,
		height:  height,
		domain:  domain,
		epsilon: epsilon,
	}
	n := s.initShape(height)
	s.nodes = make([][5]float64, n)
	s.usable = newBitset(n)
	s.pruned = newBitset(n)
	return s
}

// initShape fills the depth-offset array of a fanout-4 complete tree and
// returns its node count. Shared by newSlab and the mmap open path, which
// aliases its columns over a mapping instead of allocating them.
func (s *Slab) initShape(height int) int {
	total := int32(0)
	level := int32(1)
	for d := 0; d <= height; d++ {
		s.offsets[d] = total
		total += level
		level *= 4
	}
	for d := height + 1; d < len(s.offsets); d++ {
		s.offsets[d] = total
	}
	return int(total)
}

// Close releases the slab. For an mmap-backed slab (OpenSlabMmap) it
// unmaps the artifact; any later use of the slab panics ("used after
// Close") instead of faulting on unmapped pages. Concurrent queries must
// be drained first — Close is for owners, not for racing with readers (the
// serving registry instead drops its reference and lets the GC cleanup
// unmap once in-flight queries finish). Closing a heap-backed slab just
// marks it unusable. Close is idempotent.
func (s *Slab) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.mapped == nil {
		return nil
	}
	s.cleanup.Stop()
	// Drop the aliased columns so a stale reference that slips past
	// ensureOpen hits a nil-slice panic, not the unmapped pages.
	s.nodes, s.usable, s.pruned = nil, nil, nil
	return s.mapped.unmap()
}

// ensureOpen guards every public entry point: one atomic load on the hot
// path, a clean panic instead of a SIGBUS after Close.
func (s *Slab) ensureOpen() {
	if s.closed.Load() {
		panic("core: Slab used after Close")
	}
}

// setRect fills node i's rectangle entry.
func (s *Slab) setRect(i int, lox, loy, hix, hiy float64) {
	n := &s.nodes[i]
	n[0], n[1], n[2], n[3] = lox, loy, hix, hiy
}

// markPruned records node i as a pruned subtree root: queries treat it as a
// terminal node and its descendants become unreachable.
func (s *Slab) markPruned(i int) {
	s.pruned.set(i)
}

// finish derives the bitset summaries after the columns are filled.
func (s *Slab) finish() {
	s.allUsable = s.usable.full(s.Len())
	s.hasPruned = s.pruned.any()
}

// depth returns the depth of node i (root = 0).
func (s *Slab) depth(i int) int {
	for d := s.height; d >= 0; d-- {
		if int32(i) >= s.offsets[d] {
			return d
		}
	}
	return 0
}

// computeEffLeaves counts the effective leaf regions after pruning, exactly
// as the build tracks them: a pruned depth-d root collapses its 4^(h-d)
// leaves into one region. It iterates the set bits of the
// pruned bitset (O(words + pruned), not a per-node get loop): mmap open
// runs this on every artifact, so it must stay cheap at tens of millions
// of nodes.
func (s *Slab) computeEffLeaves() {
	eff := int(s.offsets[s.height+1] - s.offsets[s.height])
	for wi, w := range s.pruned {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if d := s.depth(i); d < s.height {
				eff -= 1<<(2*(s.height-d)) - 1
			}
		}
	}
	if eff < 1 {
		eff = 1
	}
	s.effLeaves = eff
}

// Seal materializes the flat read path of a built PSD as a fresh slab the
// caller owns (Sealed caches the PSD's own); the PSD itself remains usable
// (Seal copies, it does not steal).
func (p *PSD) Seal() *Slab {
	ar := p.arena
	s := newSlab(p.kind, ar.Height(), p.domain, p.PrivacyCost())
	for i := range ar.Nodes {
		n := &ar.Nodes[i]
		s.setRect(i, n.Rect.Lo.X, n.Rect.Lo.Y, n.Rect.Hi.X, n.Rect.Hi.Y)
		s.nodes[i][4] = n.Est
		if n.Published || p.postProcessed {
			s.usable.set(i)
		}
		if n.Pruned {
			s.markPruned(i)
		}
	}
	s.effLeaves = p.NumRegions()
	s.finish()
	return s
}

// Slab decodes a parsed release straight into the flat read path, skipping
// the arena entirely: no tree.Node structs, no per-node pointer chasing.
// The release is validated first, so the result is structurally sound.
func (r *Release) Slab() (*Slab, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r.slab(), nil
}

// ReadSlab parses, validates and decodes a JSON release into a slab,
// validating exactly once (Release.Slab alone would re-run the per-node
// checks ReadRelease already performed).
func ReadSlab(rd io.Reader) (*Slab, error) {
	rel, err := ReadRelease(rd)
	if err != nil {
		return nil, err
	}
	return rel.slab(), nil
}

// slab builds the flat form of a release that has already passed Validate.
func (r *Release) slab() *Slab {
	s := newSlab(mustParseKind(r.Kind), r.Height, unflattenRect(r.Domain), r.Epsilon)
	for i, fr := range r.Rects {
		s.setRect(i, fr[0], fr[1], fr[2], fr[3])
	}
	for i, c := range r.Counts {
		if c != nil {
			s.nodes[i][4] = *c
			s.usable.set(i)
		}
	}
	for _, i := range r.Pruned {
		s.markPruned(i)
	}
	s.computeEffLeaves()
	s.finish()
	return s
}

// mustParseKind maps a kind name that Validate already accepted.
func mustParseKind(name string) Kind {
	k, err := parseKind(name)
	if err != nil {
		panic(err)
	}
	return k
}

// Release reconstructs the serializable artifact from the slab. A release
// round-tripped through a slab (JSON or binary) re-serializes identically.
func (s *Slab) Release() *Release {
	s.ensureOpen()
	n := s.Len()
	rel := &Release{
		Version: releaseVersion,
		Kind:    s.kind.String(),
		Epsilon: s.epsilon,
		Fanout:  4,
		Height:  s.height,
		Domain:  flattenRect(s.domain),
		Rects:   make([][4]float64, n),
		Counts:  make([]*float64, n),
		Pruned:  s.prunedIndices(),
	}
	for i := 0; i < n; i++ {
		nd := &s.nodes[i]
		rel.Rects[i] = [4]float64{nd[0], nd[1], nd[2], nd[3]}
		if s.usable.get(i) {
			v := nd[4]
			rel.Counts[i] = &v
		}
	}
	return rel
}

// prunedIndices lists the pruned subtree roots in ascending order. The
// output is sized from a popcount over the bitset and filled by iterating
// its set bits, so heavily-pruned releases (adaptive PrivTree shapes can
// prune most of the tree) pay O(words + pruned), not repeated append growth
// over an O(n) scan.
func (s *Slab) prunedIndices() []int {
	count := 0
	for _, w := range s.pruned {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for wi, w := range s.pruned {
		for w != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Kind returns the decomposition family.
func (s *Slab) Kind() Kind { return s.kind }

// Height returns the tree height.
func (s *Slab) Height() int { return s.height }

// Fanout returns the tree fanout (always 4).
func (s *Slab) Fanout() int { return 4 }

// Len returns the number of tree nodes.
func (s *Slab) Len() int { return int(s.offsets[s.height+1]) }

// Domain returns the released domain rectangle.
func (s *Slab) Domain() geom.Rect { return s.domain }

// PrivacyCost returns the total ε the release consumed.
func (s *Slab) PrivacyCost() float64 { return s.epsilon }

// NumRegions returns the number of effective leaf regions without
// materializing them.
func (s *Slab) NumRegions() int { return s.effLeaves }

// rect reassembles node i's rectangle from the packed record.
func (s *Slab) rect(i int) geom.Rect {
	r := &s.nodes[i]
	return geom.Rect{
		Lo: geom.Point{X: r[0], Y: r[1]},
		Hi: geom.Point{X: r[2], Y: r[3]},
	}
}

// getStack borrows a pooled DFS stack; putStack returns it. A complete
// fanout-4 traversal never holds more than 3h+1 pending entries.
func (s *Slab) getStack() *[]int32 {
	if v := s.stacks.Get(); v != nil {
		return v.(*[]int32)
	}
	st := make([]int32, 0, 3*s.height+4)
	return &st
}

func (s *Slab) putStack(st *[]int32) { s.stacks.Put(st) }

// Query estimates the number of data points inside q using the canonical
// range-query method of Section 4.1: starting from the root, nodes fully
// contained in q contribute their released count, partially intersecting
// internal nodes descend, and partially intersecting leaves contribute
// under the uniformity assumption. The test-only arena reference
// (arena_ref_test.go) pins the walk node for node, QueryStats included.
func (s *Slab) Query(q geom.Rect) float64 {
	s.ensureOpen()
	var st QueryStats
	stack := s.getStack()
	sum := s.queryIter(q, stack, &st, nil)
	s.putStack(stack)
	return sum
}

// QueryWithStats is Query plus diagnostics.
func (s *Slab) QueryWithStats(q geom.Rect) (float64, QueryStats) {
	s.ensureOpen()
	var st QueryStats
	stack := s.getStack()
	sum := s.queryIter(q, stack, &st, nil)
	s.putStack(stack)
	return sum, st
}

// Stack entries pack the node's identity into an int32. The low bit is the
// tag: a set bit means the node was already classified as fully contained
// in the query and usable, so the pop adds est[e>>1] with no further loads.
// A clear bit means a full visit: the entry is idx<<5 | depth<<1, carrying
// the depth so the first-child index derives from the L1-resident depth
// offsets instead of a per-node column. tree.MaxNodes < 2^26 and depth < 16,
// so both encodings fit a non-negative int32.
const slabAddWhole = 1

// queryIter answers one query with the canonical method: it visits the
// root — the only node no parent classified — and hands a partially
// intersecting root to walk.
//
// cancel, when non-nil, is polled at bounded checkpoints (see cancel.go);
// when it fires the walk abandons its partial sum, which the *Ctx callers
// discard. The plain callers pass nil and pay one predictable branch per
// checkpoint.
func (s *Slab) queryIter(q geom.Rect, stack *[]int32, st *QueryStats, cancel *cancelToken) float64 {
	if cancel.tick(1) {
		return 0 // deadline fired: the caller discards the answer
	}
	st.NodesVisited++
	// A NaN bound fails every interval test: like a plain DFS, the walk
	// visits the root, finds no intersection, and answers 0.
	r := &s.nodes[0]
	if !(r[0] < q.Hi.X && q.Lo.X < r[2] && r[1] < q.Hi.Y && q.Lo.Y < r[3]) {
		return 0
	}
	var sum float64 // +0, so an estimate of -0 answers +0 as the DFS's running sum does
	if q.Lo.X <= r[0] && r[2] <= q.Hi.X && q.Lo.Y <= r[1] && r[3] <= q.Hi.Y &&
		(s.allUsable || s.usable.get(0)) {
		st.NodesAdded++
		return sum + r[4]
	}
	return s.walk(q, 0, 0, sum, stack, st, cancel)
}

// walk is the one per-query walk of the canonical method, shared by
// queryIter and the batch engine's thin-list tail. It continues q's
// traversal below the entry node (idx at depth d), which the caller has
// already visited and found intersecting q without being (contained and
// usable), adding every later contribution to the running sum in the
// order a plain left-to-right DFS produces them, and returns the sum.
//
// At a partially intersecting internal node it classifies all four
// children in one pass over the contiguous records: children missing the
// query are never pushed (a plain DFS would push and re-pop them), and
// children fully inside it are pushed pre-classified, so their pop is a
// single est load. Pushing in reverse keeps pops — and therefore the
// floating-point accumulation order — in child order. A node whose
// children are leaves is fused: its four leaves contribute right at its
// pop (addLeaves), which is exactly when a plain DFS would pop them next.
// Leaf visits are about half of all visits, so fusion skips half the
// stack round-trips.
func (s *Slab) walk(q geom.Rect, idx, d int, sum float64, stack *[]int32, st *QueryStats, cancel *cancelToken) float64 {
	stk := append((*stack)[:0], int32(idx<<5|d<<1))
	nodes := s.nodes
	height := s.height
	allUsable, hasPruned := s.allUsable, s.hasPruned
	// Counters stay in registers across the loop; st is written once at the
	// end. The entry's visit was counted by the caller, so the first pop
	// does not count.
	visited, added, partials := -1, 0, 0
	for len(stk) > 0 {
		if cancel.tick(1) {
			break // deadline fired: the caller discards the partial sum
		}
		e := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		visited++
		if e&slabAddWhole != 0 {
			added++
			sum += nodes[e>>1][4]
			continue
		}
		i := int(e >> 5)
		dd := int(e>>1) & 0xF
		if dd == height || (hasPruned && s.pruned.get(i)) {
			// Terminal node (leaf or pruned root): uniformity assumption.
			if !(allUsable || s.usable.get(i)) {
				continue // no released information at or below this node
			}
			nd := &nodes[i]
			added++
			partials++
			sum += nd[4] * overlapFraction(nd, q)
			continue
		}
		cs := int(s.offsets[dd+1]) + (i-int(s.offsets[dd]))*4
		if dd+1 == height {
			if cancel.tick(4) {
				break
			}
			var a, p int
			sum, a, p = s.addLeaves(&q, cs, sum)
			visited += 4
			added += a
			partials += p
			continue
		}
		cd := (dd + 1) << 1
		for j := 3; j >= 0; j-- {
			c := cs + j
			cr := &nodes[c]
			if cr[0] >= q.Hi.X || q.Lo.X >= cr[2] || cr[1] >= q.Hi.Y || q.Lo.Y >= cr[3] {
				// A plain DFS would pop it just to discard it; account for
				// the visit without the stack round-trip.
				visited++
				continue
			}
			if q.Lo.X <= cr[0] && cr[2] <= q.Hi.X && q.Lo.Y <= cr[1] && cr[3] <= q.Hi.Y &&
				(allUsable || s.usable.get(c)) {
				stk = append(stk, int32(c<<1|slabAddWhole))
				continue
			}
			stk = append(stk, int32(c<<5|cd))
		}
	}
	*stack = stk
	st.NodesVisited += visited
	st.NodesAdded += added
	st.PartialLeaves += partials
	return sum
}

// addLeaves applies the per-leaf rule to the four leaf children at
// cs..cs+3 of one partially intersecting node, in child order, and returns
// the running sum with their contributions plus the added and partial
// counts. Each leaf is one visit, whatever it contributes:
//
//   - disjoint from q, or without released information: nothing;
//   - contained in q (and usable): +est, one node added;
//   - otherwise: +est × overlapFraction, added and partial — including
//     the +0 of a zero-area leaf or a zero-width query.
//
// It accumulates exactly what popping the four leaves one by one would.
// The batch engine's batchLeafParent applies the same rule to a whole
// query list (see there for why the two stay separate).
func (s *Slab) addLeaves(q *geom.Rect, cs int, sum float64) (float64, int, int) {
	lox, loy, hix, hiy := q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y
	allUsable := s.allUsable
	leaves := (*[4][5]float64)(s.nodes[cs : cs+4])
	added, partials := 0, 0
	for j := range leaves {
		r := &leaves[j]
		if r[0] >= hix || lox >= r[2] || r[1] >= hiy || loy >= r[3] ||
			!(allUsable || s.usable.get(cs+j)) {
			continue
		}
		added++
		if lox <= r[0] && r[2] <= hix && loy <= r[1] && r[3] <= hiy {
			sum += r[4]
			continue
		}
		partials++
		sum += r[4] * overlapFraction(r, *q)
	}
	return sum, added, partials
}

// overlapFraction is geom.Rect.OverlapFraction over a packed node record:
// area(node ∩ q) / area(node), 0 for zero-area nodes. The arithmetic
// matches geom operation-for-operation — the builtin max/min share
// math.Max/math.Min semantics exactly but inline — so slab answers stay
// bit-identical.
func overlapFraction(r *[5]float64, q geom.Rect) float64 {
	return leafOverlap((r[2]-r[0])*(r[3]-r[1]),
		max(r[0], q.Lo.X), min(r[2], q.Hi.X), max(r[1], q.Lo.Y), min(r[3], q.Hi.Y))
}

// leafOverlap is overlapFraction's arithmetic with the node area and the
// clipped interval bounds supplied by the caller (the batch engine hoists
// the areas of a leaf parent's children across its whole query list).
func leafOverlap(a, lo, hi, lo2, hi2 float64) float64 {
	if a <= 0 || lo >= hi || lo2 >= hi2 {
		return 0
	}
	return (hi - lo) * (hi2 - lo2) / a
}

// LeafRegions returns the rectangles and estimated counts of the effective
// leaves of the release (actual leaves plus pruned subtree roots) in
// left-to-right DFS order — the flat view applications like record matching
// block on — with the output pre-sized from the tracked effective-leaf
// count.
func (s *Slab) LeafRegions() ([]geom.Rect, []float64) {
	s.ensureOpen()
	capHint := s.effLeaves
	if capHint < 1 {
		capHint = 1
	}
	rects := make([]geom.Rect, 0, capHint)
	counts := make([]float64, 0, capHint)
	stack := s.getStack()
	stk := append((*stack)[:0], 0) // idx<<4 | depth
	height := s.height
	for len(stk) > 0 {
		e := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		idx := int(e >> 4)
		d := int(e) & 0xF
		if d == height || (s.hasPruned && s.pruned.get(idx)) {
			rects = append(rects, s.rect(idx))
			counts = append(counts, s.nodes[idx][4])
			continue
		}
		cs := int(s.offsets[d+1]) + (idx-int(s.offsets[d]))*4
		// Reverse push keeps the historical left-to-right region order.
		cd := int32(d + 1)
		stk = append(stk, int32(cs+3)<<4|cd, int32(cs+2)<<4|cd, int32(cs+1)<<4|cd, int32(cs)<<4|cd)
	}
	*stack = stk
	s.putStack(stack)
	return rects, counts
}

// maxSlabNodes re-exports the arena bound the slab shares.
const maxSlabNodes = tree.MaxNodes
