package core

import (
	"math"

	"psd/internal/geom"
	"psd/internal/hilbert"
	"psd/internal/median"
	"psd/internal/rng"
	"psd/internal/tree"
)

// buildHilbertTree constructs the private Hilbert R-tree of Sections
// 3.2-3.3: points are mapped to their Hilbert values, a one-dimensional
// kd-tree over the values is built with private median splits (flattened to
// fanout 4 like the 2-D kd-trees), and each node's rectangle is the exact
// bounding box of its Hilbert index range — a data-independent function of
// the range, so rectangles cost no budget beyond the medians that chose the
// ranges.
//
// Per root-to-leaf path, each flattened level spends two median budgets
// (the value split plus the relevant sub-split), identical to the kd
// accounting. Like the partition-tree builder, subtrees fan out across a
// worker pool with per-node randomness streams, so the parallel build
// releases the same tree as a sequential one.
func buildHilbertTree(arena *tree.Tree, pts []geom.Point, domain geom.Rect, cfg Config, epsStruct float64, p *PSD, workers int) error {
	mapper, err := hilbert.NewMapper(cfg.HilbertOrder, domain)
	if err != nil {
		return err
	}
	vals := make([]float64, len(pts))
	for i, pt := range pts {
		// Hilbert indices up to 4^31 are exactly representable in float64
		// only through order 26; the default order 18 is far inside that.
		vals[i] = float64(mapper.Index(pt))
	}
	hb := &hilbertBuilder{cfg: cfg, psd: p, domain: domain, mapper: mapper}
	if cfg.Height > 0 && epsStruct > 0 {
		hb.epsPer = epsStruct / float64(2*cfg.Height)
		p.structEps = epsStruct
	}
	total := float64(mapper.Curve().NumCells())

	rootRect, err := hb.rect(0, total)
	if err != nil {
		return err
	}
	arena.Nodes[0].Rect = rootRect

	var sc median.Scratch
	if workers <= 1 || arena.Height() == 0 {
		return hb.buildSubtree(arena, 0, vals, 0, total, &sc)
	}
	queue := []hilbertTask{{idx: 0, vals: vals, lo: 0, hi: total}}
	for len(queue) > 0 && len(queue) < 4*workers {
		t := queue[0]
		queue = queue[1:]
		if arena.IsLeaf(t.idx) {
			arena.Nodes[t.idx].True = float64(len(t.vals))
			continue
		}
		kids, err := hb.expandNode(arena, t, &sc)
		if err != nil {
			return err
		}
		queue = append(queue, kids[:]...)
	}
	return runTasks(workers, queue, func(t hilbertTask, wsc *median.Scratch) error {
		return hb.buildSubtree(arena, t.idx, t.vals, t.lo, t.hi, wsc)
	})
}

// hilbertTask is one pending subtree over a Hilbert value range [lo, hi).
type hilbertTask struct {
	idx    int
	vals   []float64
	lo, hi float64
}

type hilbertBuilder struct {
	cfg    Config
	epsPer float64
	psd    *PSD
	domain geom.Rect
	mapper *hilbert.Mapper
}

// rect maps a half-open Hilbert value interval to the bounding box of the
// integer indices it contains.
func (hb *hilbertBuilder) rect(lo, hi float64) (geom.Rect, error) {
	// The node owns integer Hilbert values in [ceil(lo), ceil(hi)-1].
	a := uint64(math.Ceil(lo))
	bf := math.Ceil(hi) - 1
	if bf < float64(a) {
		// No whole index falls in the interval: a degenerate, zero-area
		// rectangle that never matches queries (the node is empty).
		corner := geom.Point{X: hb.domain.Lo.X, Y: hb.domain.Lo.Y}
		return geom.Rect{Lo: corner, Hi: corner}, nil
	}
	return hb.mapper.RangeBounds(a, uint64(bf))
}

func (hb *hilbertBuilder) buildSubtree(arena *tree.Tree, idx int, vals []float64, lo, hi float64, sc *median.Scratch) error {
	if arena.IsLeaf(idx) {
		arena.Nodes[idx].True = float64(len(vals))
		return nil
	}
	kids, err := hb.expandNode(arena, hilbertTask{idx: idx, vals: vals, lo: lo, hi: hi}, sc)
	if err != nil {
		return err
	}
	for _, k := range kids {
		if err := hb.buildSubtree(arena, k.idx, k.vals, k.lo, k.hi, sc); err != nil {
			return err
		}
	}
	return nil
}

// expandNode performs one flattened fanout-4 expansion over a value range:
// m1 over [lo,hi), then m2 over [lo,m1) and m3 over [m1,hi).
func (hb *hilbertBuilder) expandNode(arena *tree.Tree, t hilbertTask, sc *median.Scratch) ([4]hilbertTask, error) {
	var out [4]hilbertTask
	arena.Nodes[t.idx].True = float64(len(t.vals))
	m1, err := hb.splitValue(t.idx, 0, t.vals, t.lo, t.hi, sc)
	if err != nil {
		return out, err
	}
	mid := partitionValues(t.vals, m1)
	left, right := t.vals[:mid], t.vals[mid:]
	m2, err := hb.splitValue(t.idx, 1, left, t.lo, m1, sc)
	if err != nil {
		return out, err
	}
	m3, err := hb.splitValue(t.idx, 2, right, m1, t.hi, sc)
	if err != nil {
		return out, err
	}
	midL := partitionValues(left, m2)
	midR := partitionValues(right, m3)

	bounds := [5]float64{t.lo, m2, m1, m3, t.hi}
	cs := arena.ChildStart(t.idx)
	for j := 0; j < 4; j++ {
		r, rerr := hb.rect(bounds[j], bounds[j+1])
		if rerr != nil {
			return out, rerr
		}
		arena.Nodes[cs+j].Rect = r
	}
	out[0] = hilbertTask{idx: cs + 0, vals: left[:midL], lo: bounds[0], hi: bounds[1]}
	out[1] = hilbertTask{idx: cs + 1, vals: left[midL:], lo: bounds[1], hi: bounds[2]}
	out[2] = hilbertTask{idx: cs + 2, vals: right[:midR], lo: bounds[2], hi: bounds[3]}
	out[3] = hilbertTask{idx: cs + 3, vals: right[midR:], lo: bounds[3], hi: bounds[4]}
	return out, nil
}

// splitValue runs the configured median finder over one-dimensional Hilbert
// values, clamping the result into (lo, hi) so child intervals stay nested.
// The randomness stream is keyed by (node, slot), exactly as in the 2-D
// builder.
func (hb *hilbertBuilder) splitValue(node, slot int, vals []float64, lo, hi float64, sc *median.Scratch) (float64, error) {
	if hi <= lo {
		return lo, nil
	}
	hb.psd.medianCalls.Add(1)
	buf := sc.Coords(len(vals))
	copy(buf, vals)
	m, err := hb.cfg.Median.MedianAt(rng.At(hb.cfg.Seed, medianStream(node, slot), saltMedian), sc, buf, lo, hi, hb.epsPer)
	if err != nil {
		return 0, err
	}
	if m < lo {
		m = lo
	}
	if m > hi {
		m = hi
	}
	return m, nil
}

// partitionValues reorders vals so entries < split come first, returning
// their count.
func partitionValues(vals []float64, split float64) int {
	i, j := 0, len(vals)
	for i < j {
		if vals[i] < split {
			i++
			continue
		}
		j--
		vals[i], vals[j] = vals[j], vals[i]
	}
	return i
}
