package core

import "psd/internal/geom"

// arenaRef is the test-only reference implementation of the canonical
// range query of Section 4.1: a plain DFS over the build arena's tree.Node
// structs, written the way the paper states the method. Production answers
// through the slab (PSD.Sealed); the equivalence suites pin the slab to this
// reference bit for bit, QueryStats included.
type arenaRef struct{ p *PSD }

// Query is QueryWithStats without the statistics.
func (r arenaRef) Query(q geom.Rect) float64 {
	v, _ := r.QueryWithStats(q)
	return v
}

// QueryWithStats walks the arena from the root: nodes fully contained in q
// with released information contribute their estimate, partially
// intersecting internal nodes descend, and partially intersecting terminal
// nodes (leaves and pruned roots) contribute under the uniformity
// assumption. Children are visited in order, so contributions accumulate
// left to right.
func (r arenaRef) QueryWithStats(q geom.Rect) (float64, QueryStats) {
	p := r.p
	var st QueryStats
	var sum float64
	var visit func(idx int)
	visit = func(idx int) {
		n := &p.arena.Nodes[idx]
		st.NodesVisited++
		if !n.Rect.Intersects(q) {
			return
		}
		usable := n.Published || p.postProcessed
		if q.ContainsRect(n.Rect) && usable {
			st.NodesAdded++
			sum += n.Est
			return
		}
		if p.arena.IsLeaf(idx) || n.Pruned {
			if !usable {
				return // no released information at or below this node
			}
			st.NodesAdded++
			st.PartialLeaves++
			sum += n.Est * n.Rect.OverlapFraction(q)
			return
		}
		cs := p.arena.ChildStart(idx)
		for j := 0; j < 4; j++ {
			visit(cs + j)
		}
	}
	visit(0)
	return sum, st
}

// LeafRegions lists the effective leaves (actual leaves plus pruned subtree
// roots) in left-to-right DFS order with their estimates.
func (r arenaRef) LeafRegions() ([]geom.Rect, []float64) {
	p := r.p
	var rects []geom.Rect
	var counts []float64
	var visit func(idx int)
	visit = func(idx int) {
		n := &p.arena.Nodes[idx]
		if p.arena.IsLeaf(idx) || n.Pruned {
			rects = append(rects, n.Rect)
			counts = append(counts, n.Est)
			return
		}
		cs := p.arena.ChildStart(idx)
		for j := 0; j < 4; j++ {
			visit(cs + j)
		}
	}
	visit(0)
	return rects, counts
}
