// Package matching implements the private record matching application of
// Section 8.3, following Inan et al. [12]: party A holds a private point
// set and publishes a differentially private spatial decomposition of it;
// party B uses the release to decide where expensive secure multiparty
// computation (SMC) is worth running. As in the paper's configuration, the
// blocking trees carry leaf-only counts ("all count budget is allocated to
// leaves and thus post-processing does not apply").
//
// B assigns its own records (which it knows exactly) to A's released
// regions. For every region with a positive released count, SMC compares
// B's local records against A's encrypted records for that region — padded
// to the released noisy count, which is what keeps A's true cardinalities
// private and why noise costs work. The SMC cost is therefore
//
//	Σ_regions  max(0, round(noisyA)) · |B ∩ region|
//
// and the quality metric is the reduction ratio 1 − cost/(|A|·|B|) — the
// fraction of the no-elimination baseline saved; bigger is better
// (Figure 7(b)). Balanced private splits (kd with good medians) localize
// A's mass into small per-region counts and win; a data-independent
// quadtree wastes budget on empty cells and concentrates hotspots into few
// heavy cells; noisy-mean splits unbalance the tree.
package matching

import (
	"fmt"
	"math"

	"psd/internal/budget"
	"psd/internal/core"
	"psd/internal/geom"
)

// Method selects the blocking structure, mirroring the Figure 7(b) lines.
type Method int

// The three blocking structures Figure 7(b) compares.
const (
	// QuadBaseline is a quadtree with leaf-only counts.
	QuadBaseline Method = iota
	// KDNoisyMean is the original scheme of [12]: noisy-mean splits.
	KDNoisyMean
	// KDStandard is the paper's improvement: exponential-mechanism medians.
	KDStandard
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case QuadBaseline:
		return "quad-baseline"
	case KDNoisyMean:
		return "kd-noisymean"
	case KDStandard:
		return "kd-standard"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config parameterizes a matching run.
type Config struct {
	// Method selects the blocking tree.
	Method Method
	// Height is the tree height (default 5: 1024 regions).
	Height int
	// Epsilon is party A's privacy budget for its release.
	Epsilon float64
	// Seed fixes randomness.
	Seed int64
}

// Result reports one matching run.
type Result struct {
	Method Method
	// ReductionRatio is 1 − (SMC pairs after filtering)/(|A|·|B|).
	ReductionRatio float64
	// Recall is the fraction of truly co-located cross pairs that SMC still
	// compares; a region whose padded count truncates to zero loses its
	// pairs.
	Recall float64
	// Pairs is the number of padded comparisons SMC must perform.
	Pairs float64
	// Regions is the number of blocking regions A released.
	Regions int
}

// Run builds party A's private tree and computes the SMC cost of matching
// party B against it. Both point sets must lie in domain.
func Run(partyA, partyB []geom.Point, domain geom.Rect, cfg Config) (Result, error) {
	if cfg.Height == 0 {
		cfg.Height = 5
	}
	if len(partyA) == 0 || len(partyB) == 0 {
		return Result{}, fmt.Errorf("matching: empty party (|A|=%d, |B|=%d)", len(partyA), len(partyB))
	}
	tc := core.Config{
		Height:   cfg.Height,
		Epsilon:  cfg.Epsilon,
		Seed:     cfg.Seed ^ 0x626c6f636b,
		Strategy: budget.LeafOnly{},
	}
	switch cfg.Method {
	case QuadBaseline:
		tc.Kind = core.Quadtree
	case KDNoisyMean:
		tc.Kind = core.KDNoisyMean
	case KDStandard:
		tc.Kind = core.KD
	default:
		return Result{}, fmt.Errorf("matching: unknown method %v", cfg.Method)
	}
	p, err := core.Build(partyA, domain, tc)
	if err != nil {
		return Result{}, err
	}
	regions, noisy := p.Sealed().LeafRegions()
	trueA := trueLeafCounts(p)

	// B assigns its own records locally — the regions are public once
	// released, so this costs no budget. Partition-tree regions tile the
	// domain; locate each point through the released tree geometry.
	bCounts := assign(partyB, regions)

	var pairs, truePairs, keptTruePairs float64
	for i := range regions {
		padded := math.Max(0, math.Round(noisy[i]))
		nb := float64(bCounts[i])
		pairs += padded * nb
		tp := trueA[i] * nb
		truePairs += tp
		if padded > 0 {
			keptTruePairs += tp
		}
	}
	total := float64(len(partyA)) * float64(len(partyB))
	recall := 1.0
	if truePairs > 0 {
		recall = keptTruePairs / truePairs
	}
	return Result{
		Method:         cfg.Method,
		ReductionRatio: 1 - pairs/total,
		Recall:         recall,
		Pairs:          pairs,
		Regions:        len(regions),
	}, nil
}

// assign counts party B's records per region. Regions from a partition
// tree tile the domain, so each point lands in exactly one; points on
// shared boundaries go to the first region containing them.
func assign(pts []geom.Point, regions []geom.Rect) []int {
	counts := make([]int, len(regions))
	for _, p := range pts {
		for i, r := range regions {
			if r.Contains(p) {
				counts[i]++
				break
			}
		}
	}
	return counts
}

// trueLeafCounts reads the exact per-leaf populations off the arena (used
// only to compute recall — it is never part of the release).
func trueLeafCounts(p *core.PSD) []float64 {
	ar := p.Arena()
	var out []float64
	var rec func(i int)
	rec = func(i int) {
		n := &ar.Nodes[i]
		if ar.IsLeaf(i) || n.Pruned {
			out = append(out, n.True)
			return
		}
		cs := ar.ChildStart(i)
		for j := 0; j < 4; j++ {
			rec(cs + j)
		}
	}
	rec(0)
	return out
}
