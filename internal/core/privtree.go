package core

import (
	"sync"

	"psd/internal/dp"
	"psd/internal/par"
	"psd/internal/rng"
	"psd/internal/tree"
)

// saltPrivTree namespaces the per-node splitting-noise streams away from the
// median and count streams sharing Config.Seed.
const saltPrivTree = 0x707674726565 // "pvtree"

// privTreeRelease runs PrivTree's adaptive splitting rule (Zhang et al.,
// SIGMOD 2016) over the complete midpoint quadtree the structure phase built
// and publishes the adaptive leaves. It is the PrivTree replacement for the
// generic per-level count release of Build's phase 2.
//
// Top-down from the root, a visited node v at depth d computes the biased
// score b(v) = max(c(v) − d·δ, θ − δ) + Lap(λ) and splits — its children
// become visited — while b(v) > θ and v is not at the depth cap. A visited
// node that stops is an adaptive leaf: internal ones are marked Pruned
// (queries treat them as terminal, exactly like Section 7 pruning), and the
// subtree below stays structurally present but unpublished. Every split
// decision draws from rng.At(seed, node, saltPrivTree), so the decomposition
// is byte-identical at every worker count.
//
// The adaptive leaves partition the domain, so their noisy counts are one
// Laplace release of sensitivity 1 funded by the whole epsCount — unlike the
// fixed-height kinds, no per-level division — drawn from the node's count
// stream. Interior and unvisited nodes release nothing.
//
// It returns the per-level count budgets recorded for the PSD: epsCount in
// the leaf-level slot (one release covering the partition), zero elsewhere.
func privTreeRelease(arena *tree.Tree, cfg Config, noise *dp.SeededLaplace, epsStruct, epsCount float64, p *PSD, workers int) ([]float64, error) {
	h := arena.Height()
	noiseless := cfg.NonPrivate || cfg.TrueMedians
	lambda := cfg.Lambda
	if noiseless {
		lambda = 0
	} else if lambda == 0 {
		var err error
		lambda, err = dp.PrivTreeLambda(4, epsStruct)
		if err != nil {
			return nil, err
		}
	}
	delta := dp.PrivTreeDelta(lambda, 4)
	theta := cfg.Theta
	if !noiseless {
		// The splitting rule's actual spend: equals epsStruct when λ came
		// from the calibration, and stays honest under an explicit Lambda.
		p.structEps = dp.PrivTreeEpsilon(4, lambda)
	}

	// Phase A: top-down split decisions, one level at a time. A node's
	// decision depends only on its exact count, its depth and its own noise
	// stream, so each level sweeps in parallel once the previous level has
	// settled which nodes are visited.
	visited := make([]bool, arena.Len())
	visited[0] = true
	cut, leafLoss := 0, 0
	for d := 0; d < h; d++ {
		lo, hi := arena.DepthRange(d)
		sub := 1 << (2 * (h - d)) // leaves under a depth-d node
		var mu sync.Mutex
		par.For(workers, lo, hi, 512, func(a, b int) {
			localCut, localLoss := 0, 0
			for i := a; i < b; i++ {
				if !visited[i] {
					continue
				}
				n := &arena.Nodes[i]
				score := n.True - float64(d)*delta
				if floor := theta - delta; score < floor {
					score = floor
				}
				if lambda > 0 {
					src := rng.At(cfg.Seed, uint64(i), saltPrivTree)
					score += src.Laplace(lambda)
				}
				if score > theta {
					cs := arena.ChildStart(i)
					visited[cs], visited[cs+1], visited[cs+2], visited[cs+3] = true, true, true, true
				} else {
					n.Pruned = true
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
	p.stats.PrunedSubtrees = cut
	p.effLeaves -= leafLoss

	// Phase B: publish the adaptive leaves. Node i draws from noise stream
	// i, so the sweep parallelizes without changing the release.
	par.For(workers, 0, arena.Len(), 1024, func(a, b int) {
		for i := a; i < b; i++ {
			n := &arena.Nodes[i]
			if !visited[i] || !(arena.IsLeaf(i) || n.Pruned) {
				continue
			}
			n.Noisy = noise.AddAt(uint64(i), n.True, 1, epsCount)
			n.Published = true
		}
	})

	levels := make([]float64, h+1)
	levels[0] = epsCount
	return levels, nil
}
