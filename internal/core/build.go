package core

import (
	"fmt"
	"math"
	"sync"

	"psd/internal/dp"
	"psd/internal/geom"
	"psd/internal/grid"
	"psd/internal/median"
	"psd/internal/ols"
	"psd/internal/par"
	"psd/internal/rng"
	"psd/internal/tree"
)

// Per-purpose salts for the per-node randomness streams. A node's median
// stream and the count-noise stream of the same arena index must never
// collide even though they share Config.Seed.
const saltMedian = 0x6d656469616e // "median"

// countSeed derives the count-noise seed from Config.Seed.
const countSeed = 0x636f756e74 // "count"

// medianStream maps a (node, slot) split to its RNG stream id. Each fanout-4
// expansion performs three splits — x (slot 0), left y (slot 1), right y
// (slot 2) — so a stride of 4 keeps node streams disjoint.
func medianStream(node, slot int) uint64 { return uint64(node)*4 + uint64(slot) }

// Build constructs a private spatial decomposition over points within
// domain. The input slice is not modified (Build partitions a copy).
// Points outside the domain are clamped onto its boundary so every input
// tuple is represented, matching how the grid baseline treats strays.
//
// Build is parallel by default (Config.Parallelism); for a fixed Seed the
// released tree is byte-identical at every worker count, because all
// randomness is drawn from per-node streams rather than one shared one.
func Build(points []geom.Point, domain geom.Rect, cfg Config) (*PSD, error) {
	cfg, err := cfg.withDefaults(domain)
	if err != nil {
		return nil, err
	}
	workers := par.Workers(cfg.Parallelism)
	arena, err := tree.NewComplete(4, cfg.Height)
	if err != nil {
		return nil, err
	}
	pts, err := clampPoints(points, domain)
	if err != nil {
		return nil, err
	}

	p := &PSD{
		kind:      cfg.Kind,
		arena:     arena,
		domain:    domain,
		epsilon:   cfg.Epsilon,
		pruneAt:   cfg.PruneThreshold,
		effLeaves: arena.NumLeaves(),
	}
	p.stats.Points = len(pts)

	// Split the budget between structure and counts.
	epsCount := cfg.Epsilon * cfg.CountFraction
	epsStruct := cfg.Epsilon - epsCount
	if cfg.NonPrivate {
		epsCount, epsStruct = 0, 0
	}

	// Phase 1: structure. Each builder assigns node rectangles and exact
	// counts, spending epsStruct on private medians (or the kd-cell grid).
	// Independent subtrees build concurrently once the frontier is wide
	// enough to feed the worker pool.
	switch cfg.Kind {
	case Quadtree, KD, Hybrid, KDNoisyMean, PrivTree:
		sp, serr := newSplitPlanner(cfg, epsStruct, p)
		if serr != nil {
			return nil, serr
		}
		if err := buildPartitionTree(arena, pts, domain, sp, workers); err != nil {
			return nil, err
		}
	case KDCell:
		g, gerr := buildCellGrid(pts, domain, cfg, epsStruct)
		if gerr != nil {
			return nil, gerr
		}
		sp := &cellSplitter{grid: g, psd: p}
		if err := buildPartitionTree(arena, pts, domain, sp, workers); err != nil {
			return nil, err
		}
		p.structEps = epsStruct // one grid release covers every split
	case HilbertR:
		if err := buildHilbertTree(arena, pts, domain, cfg, epsStruct, p, workers); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown kind %v", cfg.Kind)
	}

	// Phase 2: noisy counts, one Laplace release per published level
	// (sensitivity 1 per level; levels compose sequentially along paths).
	// Node i draws from noise stream i, so the per-level sweep parallelizes
	// without changing the release.
	noise := dp.NewSeededLaplace(cfg.Seed ^ countSeed)
	var levels []float64
	if cfg.Kind == PrivTree {
		// PrivTree replaces the per-level release entirely: the adaptive
		// splitting rule fixes the published shape, and one epsCount release
		// covers the adaptive leaf partition (privtree.go).
		levels, err = privTreeRelease(arena, cfg, noise, epsStruct, epsCount, p, workers)
		if err != nil {
			return nil, err
		}
	} else if cfg.NonPrivate {
		levels = make([]float64, cfg.Height+1)
		par.For(workers, 0, arena.Len(), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				arena.Nodes[i].Noisy = arena.Nodes[i].True
				arena.Nodes[i].Published = true
			}
		})
	} else {
		levels, err = cfg.Strategy.Levels(cfg.Height, epsCount)
		if err != nil {
			return nil, err
		}
		for d := 0; d <= cfg.Height; d++ {
			level := cfg.Height - d
			eps := levels[level]
			if eps <= 0 {
				continue
			}
			lo, hi := arena.DepthRange(d)
			par.For(workers, lo, hi, 1024, func(a, b int) {
				for i := a; i < b; i++ {
					n := &arena.Nodes[i]
					n.Noisy = noise.AddAt(uint64(i), n.True, 1, eps)
					n.Published = true
				}
			})
		}
	}
	p.countEps = levels

	// Phase 3: post-processing (Section 5) or raw estimates.
	if cfg.PostProcess && !cfg.NonPrivate {
		if err := ols.EstimateWorkers(arena, levels, workers); err != nil {
			return nil, err
		}
		p.postProcessed = true
	} else {
		ols.CopyNoisyToEstWorkers(arena, workers)
	}

	// Phase 4: pruning (Section 7), applied after post-processing.
	if cfg.PruneThreshold > 0 {
		cut, leafLoss := prune(arena, cfg.PruneThreshold, workers)
		p.stats.PrunedSubtrees = cut
		p.effLeaves -= leafLoss
	}

	p.stats.MedianCalls = int(p.medianCalls.Load())
	return p, nil
}

// clampPoints copies points, clamping strays onto the domain boundary
// (just inside the half-open upper edges). Non-finite coordinates are an
// error: silently folding them anywhere would misattribute a tuple.
func clampPoints(points []geom.Point, domain geom.Rect) ([]geom.Point, error) {
	out := make([]geom.Point, len(points))
	for i, p := range points {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("core: point %d has non-finite coordinates %v", i, p)
		}
		if p.X < domain.Lo.X {
			p.X = domain.Lo.X
		}
		if p.Y < domain.Lo.Y {
			p.Y = domain.Lo.Y
		}
		if p.X >= domain.Hi.X {
			p.X = beforeUp(domain.Hi.X)
		}
		if p.Y >= domain.Hi.Y {
			p.Y = beforeUp(domain.Hi.Y)
		}
		out[i] = p
	}
	return out, nil
}

// beforeUp returns the largest float64 strictly below v.
func beforeUp(v float64) float64 {
	return math.Nextafter(v, math.Inf(-1))
}

// splitPlanner chooses split coordinates for the generic fanout-4
// partition-tree builder. node is the arena index of the node being split
// and slot distinguishes the x split (0) from the two y splits (1 left,
// 2 right), giving every split of the tree its own identity — the key to
// order-independent randomness. sc carries the calling worker's scratch
// buffers.
type splitPlanner interface {
	Split(pts []geom.Point, axis geom.Axis, r geom.Rect, depth, node, slot int, sc *median.Scratch) (float64, error)
}

// buildTask is one pending subtree of a parallel build.
type buildTask struct {
	idx   int
	depth int
	pts   []geom.Point
}

// buildPartitionTree assigns rectangles and exact counts to every node of
// the arena by recursively splitting the point set: first along x, then
// each half along y, producing four children per node (the flattened
// fanout-4 layout of Section 6.2).
//
// With workers > 1 the top of the tree is expanded breadth-first until
// there are enough independent subtrees to occupy the pool, then each
// subtree builds depth-first on its own goroutine. Subtrees touch disjoint
// arena ranges and disjoint sub-slices of pts, and every split draws from a
// stream keyed by its node index, so the result is identical to the
// sequential build.
func buildPartitionTree(arena *tree.Tree, pts []geom.Point, domain geom.Rect, sp splitPlanner, workers int) error {
	arena.Nodes[0].Rect = domain
	var sc median.Scratch
	if workers <= 1 || arena.Height() == 0 {
		return buildSubtree(arena, sp, 0, pts, 0, &sc)
	}

	queue := []buildTask{{idx: 0, depth: 0, pts: pts}}
	for len(queue) > 0 && len(queue) < 4*workers {
		t := queue[0]
		queue = queue[1:]
		if arena.IsLeaf(t.idx) {
			arena.Nodes[t.idx].True = float64(len(t.pts))
			continue
		}
		kids, err := expandNode(arena, sp, t.idx, t.pts, t.depth, &sc)
		if err != nil {
			return err
		}
		cs := arena.ChildStart(t.idx)
		for j := 0; j < 4; j++ {
			queue = append(queue, buildTask{idx: cs + j, depth: t.depth + 1, pts: kids[j]})
		}
	}
	return runTasks(workers, queue, func(t buildTask, wsc *median.Scratch) error {
		return buildSubtree(arena, sp, t.idx, t.pts, t.depth, wsc)
	})
}

// runTasks drains tasks on a pool of at most workers goroutines, each with
// its own scratch. The first error aborts remaining work.
func runTasks[T any](workers int, tasks []T, run func(t T, sc *median.Scratch) error) error {
	if len(tasks) == 0 {
		return nil
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	ch := make(chan T, len(tasks))
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	errs := make([]error, workers)
	var g par.Group
	for w := 0; w < workers; w++ {
		g.Go(func() {
			var sc median.Scratch
			for t := range ch {
				if errs[w] != nil {
					continue // drain after a failure
				}
				errs[w] = run(t, &sc)
			}
		})
	}
	g.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildSubtree builds the subtree rooted at idx depth-first.
func buildSubtree(arena *tree.Tree, sp splitPlanner, idx int, pts []geom.Point, depth int, sc *median.Scratch) error {
	if arena.IsLeaf(idx) {
		arena.Nodes[idx].True = float64(len(pts))
		return nil
	}
	kids, err := expandNode(arena, sp, idx, pts, depth, sc)
	if err != nil {
		return err
	}
	cs := arena.ChildStart(idx)
	for j := 0; j < 4; j++ {
		if err := buildSubtree(arena, sp, cs+j, kids[j], depth+1, sc); err != nil {
			return err
		}
	}
	return nil
}

// expandNode performs one fanout-4 expansion: it records the node's exact
// count, chooses the x and two y splits, assigns the child rectangles and
// partitions pts into the four child sub-slices (in place — children own
// disjoint ranges of the parent's slice).
func expandNode(arena *tree.Tree, sp splitPlanner, idx int, pts []geom.Point, depth int, sc *median.Scratch) ([4][]geom.Point, error) {
	n := &arena.Nodes[idx]
	n.True = float64(len(pts))
	xs, err := sp.Split(pts, geom.AxisX, n.Rect, depth, idx, 0, sc)
	if err != nil {
		return [4][]geom.Point{}, err
	}
	rL, rR := n.Rect.SplitX(xs)
	mid := partitionBelow(pts, geom.AxisX, rL.Hi.X)
	ptsL, ptsR := pts[:mid], pts[mid:]

	ysL, err := sp.Split(ptsL, geom.AxisY, rL, depth, idx, 1, sc)
	if err != nil {
		return [4][]geom.Point{}, err
	}
	ysR, err := sp.Split(ptsR, geom.AxisY, rR, depth, idx, 2, sc)
	if err != nil {
		return [4][]geom.Point{}, err
	}
	r0, r1 := rL.SplitY(ysL)
	r2, r3 := rR.SplitY(ysR)
	midL := partitionBelow(ptsL, geom.AxisY, r0.Hi.Y)
	midR := partitionBelow(ptsR, geom.AxisY, r2.Hi.Y)

	cs := arena.ChildStart(idx)
	arena.Nodes[cs+0].Rect = r0
	arena.Nodes[cs+1].Rect = r1
	arena.Nodes[cs+2].Rect = r2
	arena.Nodes[cs+3].Rect = r3
	return [4][]geom.Point{ptsL[:midL], ptsL[midL:], ptsR[:midR], ptsR[midR:]}, nil
}

// partitionBelow reorders pts so entries with coordinate < split along axis
// come first and returns their count.
func partitionBelow(pts []geom.Point, axis geom.Axis, split float64) int {
	i, j := 0, len(pts)
	for i < j {
		if axis.Coord(pts[i]) < split {
			i++
			continue
		}
		j--
		pts[i], pts[j] = pts[j], pts[i]
	}
	return i
}

// newSplitPlanner builds the planner for the partition-tree kinds.
func newSplitPlanner(cfg Config, epsStruct float64, p *PSD) (splitPlanner, error) {
	switch cfg.Kind {
	case Quadtree, PrivTree:
		// PrivTree geometry is a plain midpoint quadtree; its adaptivity —
		// which subtrees publish — is decided at release time (privtree.go).
		return midpointSplitter{}, nil
	case KD, KDNoisyMean:
		return newMedianSplitter(cfg, cfg.Height, epsStruct, p)
	case Hybrid:
		ms, err := newMedianSplitter(cfg, cfg.SwitchLevel, epsStruct, p)
		if err != nil {
			return nil, err
		}
		return &hybridSplitter{median: ms, switchLevel: cfg.SwitchLevel}, nil
	}
	return nil, fmt.Errorf("core: no split planner for %v", cfg.Kind)
}

// midpointSplitter performs data-independent quadtree splits.
type midpointSplitter struct{}

func (midpointSplitter) Split(_ []geom.Point, axis geom.Axis, r geom.Rect, _, _, _ int, _ *median.Scratch) (float64, error) {
	lo, hi := r.Range(axis)
	return (lo + hi) / 2, nil
}

// medianSplitter performs private-median splits. Along any root-to-leaf
// path each flattened level incurs two median computations (x then y), so
// with dataLevels data-dependent levels the per-median budget is
// epsStruct/(2·dataLevels) and the per-path structural spend is epsStruct
// (Section 6.2's uniform median budgeting).
//
// Each split draws from rng.At(seed, medianStream(node, slot)): identical
// splits whatever order — or goroutine — computes them.
type medianSplitter struct {
	f      median.Finder
	seed   int64
	epsPer float64
	psd    *PSD
}

func newMedianSplitter(cfg Config, dataLevels int, epsStruct float64, p *PSD) (*medianSplitter, error) {
	ms := &medianSplitter{f: cfg.Median, seed: cfg.Seed, psd: p}
	if dataLevels > 0 && epsStruct > 0 {
		ms.epsPer = epsStruct / float64(2*dataLevels)
		p.structEps = epsStruct
	}
	return ms, nil
}

func (ms *medianSplitter) Split(pts []geom.Point, axis geom.Axis, r geom.Rect, _, node, slot int, sc *median.Scratch) (float64, error) {
	lo, hi := r.Range(axis)
	if hi <= lo {
		return lo, nil
	}
	ms.psd.medianCalls.Add(1)
	vals := sc.Coords(len(pts))
	for i, p := range pts {
		vals[i] = axis.Coord(p)
	}
	return ms.f.MedianAt(rng.At(ms.seed, medianStream(node, slot), saltMedian), sc, vals, lo, hi, ms.epsPer)
}

// hybridSplitter uses private medians above switchLevel and midpoints below
// (Section 3.2's hybrid tree).
type hybridSplitter struct {
	median      *medianSplitter
	switchLevel int
}

func (h *hybridSplitter) Split(pts []geom.Point, axis geom.Axis, r geom.Rect, depth, node, slot int, sc *median.Scratch) (float64, error) {
	if depth < h.switchLevel {
		return h.median.Split(pts, axis, r, depth, node, slot, sc)
	}
	return midpointSplitter{}.Split(pts, axis, r, depth, node, slot, sc)
}

// buildCellGrid releases the fixed-resolution grid that drives kd-cell
// splits ([26]). The grid release is a single epsStruct-DP publication
// (cells partition the data), after which every median is post-processing.
func buildCellGrid(pts []geom.Point, domain geom.Rect, cfg Config, epsStruct float64) (*grid.Grid, error) {
	nx := int(domain.Width()/cfg.CellSize + 0.5)
	ny := int(domain.Height()/cfg.CellSize + 0.5)
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	for nx*ny > grid.MaxCells {
		nx = (nx + 1) / 2
		ny = (ny + 1) / 2
	}
	//lint:allow determinism -- kd-cell grid draws cells in order until keyed noise moves cell i to stream i
	return grid.Build(pts, domain, nx, ny, epsStruct, rng.New(cfg.Seed^countSeed))
}

// cellSplitter reads kd-cell split points off the noisy grid. The grid is
// immutable once released, so splits are trivially parallel-safe.
type cellSplitter struct {
	grid *grid.Grid
	psd  *PSD
}

func (c *cellSplitter) Split(_ []geom.Point, axis geom.Axis, r geom.Rect, _, _, _ int, sc *median.Scratch) (float64, error) {
	c.psd.medianCalls.Add(1)
	return c.grid.MedianAlongBuf(r, axis, sc.Coords(c.grid.MedianBufLen())), nil
}

// prune implements Section 7: descendants of any node whose estimated count
// falls below threshold are removed (the node becomes an effective leaf).
// It returns the number of subtrees cut and the number of leaf regions the
// cuts removed from the flat view (each pruned depth-d root replaces its
// 4^(h-d) leaves with itself). Children of pruned nodes are not themselves
// marked; queries stop at the first pruned ancestor. Levels prune in
// parallel: a node only consults strictly shallower ancestors, which the
// preceding level pass has already finalized.
func prune(arena *tree.Tree, threshold float64, workers int) (cut, leafLoss int) {
	h := arena.Height()
	for d := 0; d < h; d++ {
		lo, hi := arena.DepthRange(d)
		sub := 1 << (2 * (h - d)) // leaves under a depth-d node
		var mu sync.Mutex
		par.For(workers, lo, hi, 512, func(a, b int) {
			localCut, localLoss := 0, 0
			for i := a; i < b; i++ {
				if arena.Nodes[i].Pruned {
					continue
				}
				// Skip nodes under an already-pruned ancestor.
				if d > 0 && prunedAncestor(arena, i) {
					continue
				}
				if arena.Nodes[i].Est < threshold {
					arena.Nodes[i].Pruned = true
					localCut++
					localLoss += sub - 1
				}
			}
			mu.Lock()
			cut += localCut
			leafLoss += localLoss
			mu.Unlock()
		})
	}
	return cut, leafLoss
}

func prunedAncestor(arena *tree.Tree, i int) bool {
	for p := arena.Parent(i); p >= 0; p = arena.Parent(p) {
		if arena.Nodes[p].Pruned {
			return true
		}
	}
	return false
}
