package core

import "psd/internal/geom"

// QueryStats describes how a query was answered.
type QueryStats struct {
	// NodesAdded is n(Q): the number of node counts summed into the answer
	// (Section 4.1). Partial leaves count too.
	NodesAdded int
	// NodesVisited is the number of nodes the traversal touched.
	NodesVisited int
	// PartialLeaves is the number of leaves answered under the uniformity
	// assumption.
	PartialLeaves int
}

// Sealed returns the PSD's cached flat slab, materializing it on first
// use. The slab is the only query engine: every range query, batch and
// region listing of a built tree answers through it. Build never seals, so
// a tree that is only published pays nothing for it.
func (p *PSD) Sealed() *Slab {
	p.sealOnce.Do(func() { p.sealed = p.Seal() })
	return p.sealed
}

// NumRegions returns the number of effective leaf regions (actual leaves
// plus pruned subtree roots), tracked by the build, so counting them needs
// neither a seal nor a traversal.
func (p *PSD) NumRegions() int { return max(p.effLeaves, 1) }

// TrueAnswer returns the exact count of data points in q, computed from the
// retained exact leaf counts with exact recursion (partial leaves use the
// uniformity assumption over true counts — the same residual error a
// non-private tree of this height has; see the kd-pure baseline). It exists
// for evaluation and is not part of a private release.
func (p *PSD) TrueAnswer(q geom.Rect) float64 {
	return p.trueNode(0, q)
}

func (p *PSD) trueNode(idx int, q geom.Rect) float64 {
	n := &p.arena.Nodes[idx]
	if !n.Rect.Intersects(q) {
		return 0
	}
	if q.ContainsRect(n.Rect) {
		return n.True
	}
	if p.arena.IsLeaf(idx) {
		return n.True * n.Rect.OverlapFraction(q)
	}
	var sum float64
	cs := p.arena.ChildStart(idx)
	for j := 0; j < 4; j++ {
		sum += p.trueNode(cs+j, q)
	}
	return sum
}
