// Package psd builds differentially private spatial decompositions (PSDs):
// hierarchical summaries of two-dimensional point data that answer
// rectangular range-count queries under ε-differential privacy.
//
// It is a from-scratch Go implementation of
//
//	Cormode, Procopiuc, Srivastava, Shen, Yu.
//	"Differentially Private Spatial Decompositions." ICDE 2012.
//
// including the paper's two core techniques — geometric budget allocation
// across tree levels (Section 4) and linear-time ordinary-least-squares
// post-processing of the noisy counts (Section 5) — and every
// decomposition in its design space: quadtrees, (flattened) kd-trees with
// private medians, hybrid trees, Hilbert R-trees, and the comparison
// baselines kd-cell [26] and kd-noisymean [12].
//
// # Quickstart
//
//	domain := psd.NewRect(-124.82, 31.33, -103.00, 49.00)
//	points := []psd.Point{{X: -122.33, Y: 47.60}, /* ... */}
//
//	tree, err := psd.Build(points, domain, psd.Options{
//		Kind:    psd.KDHybrid,
//		Height:  8,
//		Epsilon: 0.5,
//		Seed:    1,
//	})
//	if err != nil { /* ... */ }
//
//	// How many individuals in this rectangle? (ε-DP answer.)
//	got := tree.Count(psd.NewRect(-123, 47, -122, 48))
//
// The release consists of the node rectangles and the noisy counts; with
// the default options the whole tree satisfies Epsilon-differential privacy
// under the add/remove-one-tuple neighborhood of the paper.
//
// The README's Layout section maps the packages; its Benchmarks section
// covers the reproduction of the paper's evaluation (cmd/psdbench).
package psd

import (
	"fmt"
	"time"

	"psd/internal/budget"
	"psd/internal/core"
	"psd/internal/geom"
	"psd/internal/median"
	"psd/internal/rng"
)

// Point is a location in the plane.
type Point = geom.Point

// Rect is a half-open axis-aligned rectangle [Lo.X, Hi.X) × [Lo.Y, Hi.Y).
type Rect = geom.Rect

// NewRect returns the rectangle with the given bounds; it panics on
// inverted bounds.
func NewRect(loX, loY, hiX, hiY float64) Rect {
	return geom.NewRect(loX, loY, hiX, hiY)
}

// BoundingBox returns the smallest rectangle containing all points, with
// the upper edge nudged so every point is inside under the half-open
// convention. Note: deriving the domain from private data leaks the
// extremes; production deployments should use a fixed public domain.
func BoundingBox(points []Point) Rect { return geom.BoundingBox(points) }

// Kind selects a decomposition family.
type Kind int

// The decomposition families of the paper.
const (
	// QuadtreeKind recursively halves the domain at midpoints
	// (data-independent); the full budget funds counts. With geometric
	// budgets and post-processing this is the paper's quad-opt, its best
	// all-round method.
	QuadtreeKind Kind = iota
	// KDTree splits at private medians of the data (exponential mechanism
	// by default), flattened to fanout 4.
	KDTree
	// KDHybrid uses private-median splits for the top half of the tree and
	// midpoint splits below — the most reliably accurate kd variant in the
	// paper.
	KDHybrid
	// HilbertRTree builds a one-dimensional kd-tree over Hilbert curve
	// values; node rectangles are bounding boxes of Hilbert ranges.
	HilbertRTree
	// KDCellTree is the baseline of Xiao et al. [26]: splits are medians of
	// a fixed-resolution noisy grid.
	KDCellTree
	// KDNoisyMeanTree is the baseline of Inan et al. [12]: splits are noisy
	// means standing in for medians.
	KDNoisyMeanTree
	// PrivTreeKind is the adaptive decomposition of Zhang et al. (SIGMOD
	// 2016): quadtree (midpoint) geometry whose recursion depth adapts to
	// the data — a node splits while its depth-decayed noisy count exceeds
	// a threshold — at a privacy cost independent of the depth, removing
	// the Height hyperparameter the paper's decompositions fix up front.
	// Configure it with Lambda, Theta and MaxDepth.
	PrivTreeKind
)

// String returns the family name, or "unknown" for out-of-range values
// (which would otherwise leak through as a bogus core kind).
func (k Kind) String() string {
	ck, err := k.toCore()
	if err != nil {
		return "unknown"
	}
	return ck.String()
}

// toCore maps the public Kind onto the core enumeration, rejecting
// out-of-range values with a descriptive error instead of letting a bogus
// kind leak downstream.
func (k Kind) toCore() (core.Kind, error) {
	switch k {
	case QuadtreeKind:
		return core.Quadtree, nil
	case KDTree:
		return core.KD, nil
	case KDHybrid:
		return core.Hybrid, nil
	case HilbertRTree:
		return core.HilbertR, nil
	case KDCellTree:
		return core.KDCell, nil
	case KDNoisyMeanTree:
		return core.KDNoisyMean, nil
	case PrivTreeKind:
		return core.PrivTree, nil
	default:
		return 0, fmt.Errorf("psd: unknown kind %d (valid kinds are QuadtreeKind (%d) through PrivTreeKind (%d))",
			k, QuadtreeKind, PrivTreeKind)
	}
}

// BudgetStrategy selects how the count budget is divided across tree
// levels (Section 4).
type BudgetStrategy int

// The budget strategies of Section 4.2.
const (
	// GeometricBudget allocates ε_i ∝ 2^((h-i)/3), increasing from root to
	// leaves — the paper's optimal strategy (Lemma 3) and the default.
	GeometricBudget BudgetStrategy = iota
	// UniformBudget allocates ε/(h+1) per level, the prior-work baseline.
	UniformBudget
	// LeafOnlyBudget gives the leaves everything, as in [12].
	LeafOnlyBudget
)

func (b BudgetStrategy) toStrategy() (budget.Strategy, error) {
	switch b {
	case GeometricBudget:
		return budget.Geometric{}, nil
	case UniformBudget:
		return budget.Uniform{}, nil
	case LeafOnlyBudget:
		return budget.LeafOnly{}, nil
	default:
		return nil, fmt.Errorf("psd: unknown budget strategy %d (valid strategies are GeometricBudget (%d) through LeafOnlyBudget (%d))",
			b, GeometricBudget, LeafOnlyBudget)
	}
}

// MedianMethod selects the private median mechanism for data-dependent
// trees (Section 6.1).
type MedianMethod int

// The private median methods of Section 6.1.
const (
	// ExponentialMedian is the exponential mechanism over ranks — the most
	// accurate method in the paper's study and the default.
	ExponentialMedian MedianMethod = iota
	// SmoothMedian calibrates Laplace noise to the smooth sensitivity of
	// the median; (ε, δ)-DP with δ = 1e-4.
	SmoothMedian
	// SampledExponentialMedian runs the exponential mechanism on a 1%
	// Bernoulli sample with an amplification-adjusted budget (Section 7) —
	// an order of magnitude faster on large inputs.
	SampledExponentialMedian
)

// Options configures Build. Height and Epsilon are required; zero values
// elsewhere select the paper's recommended defaults (geometric budget, OLS
// post-processing on, exponential-mechanism medians, εcount = 0.7ε for
// data-dependent kinds, pruning off).
type Options struct {
	// Kind selects the decomposition family (default QuadtreeKind).
	Kind Kind

	// Height is the tree height h; the tree has 4^h leaf regions.
	Height int

	// Epsilon is the total differential privacy budget of the release.
	Epsilon float64

	// Budget selects the per-level count allocation (default
	// GeometricBudget).
	Budget BudgetStrategy

	// Median selects the private median mechanism for data-dependent kinds
	// (default ExponentialMedian).
	Median MedianMethod

	// CountFraction is the share of Epsilon spent on counts (the rest
	// funds structure). Zero selects the paper's defaults: 1.0 for
	// quadtrees, 0.7 otherwise.
	CountFraction float64

	// SwitchLevel is the number of data-dependent levels of a KDHybrid
	// tree (zero selects Height/2, the paper's recommendation).
	SwitchLevel int

	// DisablePostProcess turns off the OLS post-processing of Section 5.
	// The default (false) runs it: it costs no privacy and only helps.
	// PrivTreeKind has no OLS step (it publishes a single release over the
	// adaptive leaf partition, not one per level), so the flag is ignored.
	DisablePostProcess bool

	// PruneThreshold enables Section 7 pruning: subtrees under nodes whose
	// estimated count falls below the threshold are cut. Zero disables.
	PruneThreshold float64

	// HilbertOrder is the curve order for HilbertRTree (default 18).
	HilbertOrder uint

	// Lambda is the PrivTree splitting-noise scale λ (PrivTreeKind only).
	// Zero selects the paper-faithful calibration λ = (2β−1)/((β−1)·ε_struct)
	// with β = 4, the smallest scale for which the decomposition is
	// ε_struct-DP (Zhang et al. 2016, Theorem 1), where ε_struct is the
	// structure share of Epsilon (see CountFraction). Setting it explicitly
	// overrides the calibration; PrivacyCost then reports the ε the chosen
	// scale actually consumes.
	Lambda float64

	// Theta is the PrivTree split threshold θ (PrivTreeKind only): a node
	// keeps splitting while its depth-decayed noisy count exceeds it. It
	// spends no privacy budget; the default 0 is the paper's choice, and
	// raising it stops the recursion earlier (coarser, smaller releases).
	Theta float64

	// MaxDepth caps the PrivTree adaptive recursion (PrivTreeKind only);
	// it plays Height's role for the adaptive tree — PrivTree's budget is
	// depth-independent, so the cap only bounds the released artifact's
	// size. When set it overrides Height; zero falls back to Height.
	MaxDepth int

	// TuneToWorkload, when non-empty, overrides Budget with the
	// workload-aware allocation Section 4.2 sketches: the per-level budget
	// is proportional to the cube root of the level's average contribution
	// to the given anticipated queries (the same optimization as Lemma 3,
	// with the workload's node profile in place of the worst-case bound).
	// The workload must be public knowledge — it shapes the release.
	TuneToWorkload []Rect

	// Seed makes the build reproducible. Fixing the seed does not weaken
	// the DP guarantee against observers who don't know the seed, but a
	// production release should use a fresh unpredictable seed.
	Seed int64

	// Parallelism bounds the worker goroutines Build uses (structure,
	// noisy-count release, post-processing and pruning all fan out). Zero
	// uses one worker per available core; 1 forces a sequential build. All
	// randomness is drawn from per-node streams, so for a fixed Seed the
	// released tree is byte-identical at every parallelism level.
	Parallelism int
}

// Tree is a built private spatial decomposition. The private release
// consists of its region rectangles and noisy counts; Count answers
// arbitrary rectangular range queries from it. Queries run on the tree's
// flat serving form (see Slab), materialized once on the first query, so
// building and writing a release never pay for it.
type Tree struct {
	inner *core.PSD
}

// Build constructs a PSD over points within domain. The input slice is not
// modified. Points outside the domain are clamped onto its boundary.
func Build(points []Point, domain Rect, opts Options) (*Tree, error) {
	strategy, err := opts.Budget.toStrategy()
	if err != nil {
		return nil, err
	}
	if len(opts.TuneToWorkload) > 0 {
		// A tiny relative floor keeps every level minimally funded (~1% of
		// the peak level each) so queries outside the anticipated workload
		// still get answers.
		strategy = budget.Tuned{
			Domain:  domain,
			Queries: opts.TuneToWorkload,
			Floor:   1e-6,
		}
	}
	k, err := opts.Kind.toCore()
	if err != nil {
		return nil, err
	}
	height := opts.Height
	if opts.Kind == PrivTreeKind && opts.MaxDepth != 0 {
		height = opts.MaxDepth
	}
	if opts.Kind != PrivTreeKind && (opts.Lambda != 0 || opts.Theta != 0 || opts.MaxDepth != 0) {
		return nil, fmt.Errorf("psd: Lambda/Theta/MaxDepth apply only to PrivTreeKind (got kind %v)", opts.Kind)
	}
	cfg := core.Config{
		Kind:           k,
		Height:         height,
		Epsilon:        opts.Epsilon,
		Strategy:       strategy,
		CountFraction:  opts.CountFraction,
		SwitchLevel:    opts.SwitchLevel,
		PostProcess:    !opts.DisablePostProcess,
		PruneThreshold: opts.PruneThreshold,
		Seed:           opts.Seed,
		HilbertOrder:   opts.HilbertOrder,
		Lambda:         opts.Lambda,
		Theta:          opts.Theta,
		Parallelism:    opts.Parallelism,
	}
	switch opts.Median {
	case ExponentialMedian:
		// core's default.
	case SmoothMedian:
		cfg.Median = &median.SS{Src: rng.New(opts.Seed ^ 0x7373), Delta: 1e-4}
	case SampledExponentialMedian:
		src := rng.New(opts.Seed ^ 0x656d73)
		cfg.Median = &median.Sampled{
			Inner: &median.EM{Src: src.Split()},
			Src:   src.Split(),
			Rate:  0.01,
		}
	default:
		return nil, fmt.Errorf("psd: unknown median method %d", opts.Median)
	}
	// Timing is observed here, outside core: core.Build reads no clock, so
	// a rebuild from the same seed is byte-identical (psdlint: determinism).
	start := time.Now()
	p, err := core.Build(points, domain, cfg)
	if err != nil {
		return nil, err
	}
	p.SetBuildDuration(time.Since(start))
	return &Tree{inner: p}, nil
}

// Count estimates the number of data points inside q using the canonical
// range-query method of Section 4.1. The estimate is unbiased; repeated
// calls are deterministic (the noise was fixed at build time — queries are
// post-processing and consume no budget).
func (t *Tree) Count(q Rect) float64 { return t.inner.Sealed().Query(q) }

// CountBatch answers a batch of range queries with the node-major batch
// engine: the tree's flat serving form is traversed one time per batch,
// classifying every still-active query at each node, instead of walking the
// tree once per query. Each answer is exactly what Count would return for
// that rectangle; only the work schedule changes.
func (t *Tree) CountBatch(qs []Rect) []float64 { return t.inner.Sealed().CountBatch(qs) }

// Regions returns the effective leaf regions of the release and their
// estimated counts — a flat histogram view of the decomposition.
func (t *Tree) Regions() ([]Rect, []float64) { return t.inner.Sealed().LeafRegions() }

// PrivacyCost returns the total ε the release consumed (at most the
// configured Epsilon; equal to it for the standard configurations).
func (t *Tree) PrivacyCost() float64 { return t.inner.PrivacyCost() }

// Height returns the tree height.
func (t *Tree) Height() int { return t.inner.Height() }

// Kind returns the decomposition family name.
func (t *Tree) Kind() string { return t.inner.Kind().String() }

// Domain returns the indexed domain.
func (t *Tree) Domain() Rect { return t.inner.Domain() }

// BuildTime returns how long construction took.
func (t *Tree) BuildTime() string { return t.inner.Stats().Duration.String() }

// NumRegions returns the number of effective leaf regions — len of
// Regions' output — from the count the build tracks, without materializing
// the regions.
func (t *Tree) NumRegions() int { return t.inner.NumRegions() }
