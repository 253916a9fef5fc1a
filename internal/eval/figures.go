package eval

import (
	"fmt"
	"time"

	"psd/internal/budget"
	"psd/internal/core"
	"psd/internal/workload"
)

// Figure3Row is one bar group of Figure 3: quadtree optimizations at one
// (ε, query shape) cell. Values are median relative errors in %.
type Figure3Row struct {
	Eps      float64
	Shape    workload.QueryShape
	Baseline float64 // uniform budget, no post-processing
	Geo      float64 // geometric budget (Section 4)
	Post     float64 // uniform budget + OLS (Section 5)
	Opt      float64 // geometric + OLS combined
}

// Figure3 reproduces Figure 3(a-c): the effect of the paper's two
// optimizations on quadtrees of the given height across ε values and the
// four paper query shapes.
func Figure3(env *Env, height int, epss []float64, shapes []workload.QueryShape) ([]Figure3Row, error) {
	var rows []Figure3Row
	for _, eps := range epss {
		specs := []RunSpec{
			{"quad-baseline", core.Config{Kind: core.Quadtree, Height: height, Epsilon: eps,
				Strategy: budget.Uniform{}}},
			{"quad-geo", core.Config{Kind: core.Quadtree, Height: height, Epsilon: eps,
				Strategy: budget.Geometric{}}},
			{"quad-post", core.Config{Kind: core.Quadtree, Height: height, Epsilon: eps,
				Strategy: budget.Uniform{}, PostProcess: true}},
			{"quad-opt", core.Config{Kind: core.Quadtree, Height: height, Epsilon: eps,
				Strategy: budget.Geometric{}, PostProcess: true}},
		}
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			row := Figure3Row{Eps: eps, Shape: shape}
			dst := []*float64{&row.Baseline, &row.Geo, &row.Post, &row.Opt}
			for i, spec := range specs {
				v, err := env.medianErrorOver(spec, qs)
				if err != nil {
					return nil, err
				}
				*dst[i] = v
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// KDVariantSpecs returns the six kd-tree family members of Figure 5 at the
// given height, ε and pruning threshold (the paper uses h=8, m=32,
// εcount = 0.7ε). All private variants use geometric budgets and OLS
// ("all subsequent results are presented with both optimizations").
func KDVariantSpecs(height int, eps, pruneAt float64) []RunSpec {
	common := func(kind core.Kind) core.Config {
		return core.Config{
			Kind: kind, Height: height, Epsilon: eps,
			Strategy: budget.Geometric{}, PostProcess: true,
			PruneThreshold: pruneAt,
		}
	}
	pure := core.Config{Kind: core.KD, Height: height, NonPrivate: true}
	tru := common(core.KD)
	tru.TrueMedians = true
	return []RunSpec{
		{"kd-pure", pure},
		{"kd-true", tru},
		{"kd-standard", common(core.KD)},
		{"kd-hybrid", common(core.Hybrid)},
		{"kd-cell", common(core.KDCell)},
		{"kd-noisymean", common(core.KDNoisyMean)},
	}
}

// Figure5Row is one (ε, shape) cell of Figure 5: median relative error (%)
// for each kd-tree variant, keyed by variant name.
type Figure5Row struct {
	Eps    float64
	Shape  workload.QueryShape
	Errors map[string]float64
}

// Figure5 reproduces Figure 5(a-c): the kd-tree family comparison at h=8
// with pruning threshold 32.
func Figure5(env *Env, height int, epss []float64, shapes []workload.QueryShape) ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, eps := range epss {
		specs := KDVariantSpecs(height, eps, 32)
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			row := Figure5Row{Eps: eps, Shape: shape, Errors: map[string]float64{}}
			for _, spec := range specs {
				v, err := env.medianErrorOver(spec, qs)
				if err != nil {
					return nil, err
				}
				row.Errors[spec.Name] = v
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure6Methods lists the best-of-family methods Figure 6 sweeps over
// heights: optimized quadtree, hybrid kd-tree, cell kd-tree and the Hilbert
// R-tree.
func Figure6Methods(height int, eps float64) []RunSpec {
	common := func(kind core.Kind) core.Config {
		return core.Config{
			Kind: kind, Height: height, Epsilon: eps,
			Strategy: budget.Geometric{}, PostProcess: true,
			PruneThreshold: 32,
		}
	}
	quad := common(core.Quadtree)
	return []RunSpec{
		{"quad-opt", quad},
		{"kd-hybrid", common(core.Hybrid)},
		{"kd-cell", common(core.KDCell)},
		{"hilbert-r", common(core.HilbertR)},
	}
}

// Figure6Row is one (height, shape) cell of Figure 6.
type Figure6Row struct {
	Height int
	Shape  workload.QueryShape
	Errors map[string]float64
}

// Figure6 reproduces Figure 6(a-c): query accuracy versus tree height at
// fixed ε for the representative methods.
func Figure6(env *Env, heights []int, eps float64, shapes []workload.QueryShape) ([]Figure6Row, error) {
	var rows []Figure6Row
	for _, h := range heights {
		specs := Figure6Methods(h, eps)
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			row := Figure6Row{Height: h, Shape: shape, Errors: map[string]float64{}}
			for _, spec := range specs {
				v, err := env.medianErrorOver(spec, qs)
				if err != nil {
					return nil, err
				}
				row.Errors[spec.Name] = v
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure7aRow is one bar of Figure 7(a): construction time per method.
type Figure7aRow struct {
	Method string
	Build  time.Duration
	Nodes  int
}

// Figure7a reproduces Figure 7(a): the time to build each representative
// decomposition. kdHeight is the kd-family height (paper: 8) and quadHeight
// the quadtree height (paper: 10).
func Figure7a(env *Env, kdHeight, quadHeight int, eps float64) ([]Figure7aRow, error) {
	specs := []RunSpec{
		{"kd-hybrid", core.Config{Kind: core.Hybrid, Height: kdHeight, Epsilon: eps,
			Strategy: budget.Geometric{}, PostProcess: true}},
		{"kd-cell", core.Config{Kind: core.KDCell, Height: kdHeight, Epsilon: eps,
			Strategy: budget.Geometric{}, PostProcess: true}},
		{"quadtree", core.Config{Kind: core.Quadtree, Height: quadHeight, Epsilon: eps,
			Strategy: budget.Geometric{}, PostProcess: true}},
		{"hilbert-r", core.Config{Kind: core.HilbertR, Height: kdHeight, Epsilon: eps,
			Strategy: budget.Geometric{}, PostProcess: true}},
	}
	var rows []Figure7aRow
	for _, spec := range specs {
		cfg := spec.Cfg
		cfg.Seed = env.Scale.Seed
		start := time.Now()
		p, err := core.Build(env.Data.Points, env.Data.Domain, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rows = append(rows, Figure7aRow{
			Method: spec.Name,
			Build:  time.Since(start),
			Nodes:  p.Len(),
		})
	}
	return rows, nil
}

// GridBaselineRow compares the Section 1 flat-grid baseline [6] against the
// optimized quadtree on one query shape.
type GridBaselineRow struct {
	Shape    workload.QueryShape
	GridErr  float64 // median relative error (%), fine grid
	QuadErr  float64 // median relative error (%), quad-opt
	GridDims string
}

// GridBaseline quantifies the paper's motivating observation: a flat fine
// grid's noise accumulates over large queries while the hierarchical PSD
// stays accurate. gridSide is the per-axis resolution of the flat grid.
func GridBaseline(env *Env, gridSide, quadHeight int, eps float64, shapes []workload.QueryShape) ([]GridBaselineRow, error) {
	gridSpec := core.Config{Kind: core.Quadtree, Height: quadHeight, Epsilon: eps,
		Strategy: budget.Geometric{}, PostProcess: true, Seed: env.Scale.Seed}
	p, err := core.Build(env.Data.Points, env.Data.Domain, gridSpec)
	if err != nil {
		return nil, err
	}
	quad := p.Sealed()
	flat, err := buildFlatGrid(env, gridSide, eps)
	if err != nil {
		return nil, err
	}
	var rows []GridBaselineRow
	for _, shape := range shapes {
		qs, err := env.Queries(shape)
		if err != nil {
			return nil, err
		}
		var gridErrs, quadErrs []float64
		for i, q := range qs.Rects {
			truth := qs.Answers[i]
			gridErrs = append(gridErrs, 100*abs(flat.Query(q)-truth)/truth)
			quadErrs = append(quadErrs, 100*abs(quad.Query(q)-truth)/truth)
		}
		rows = append(rows, GridBaselineRow{
			Shape:    shape,
			GridErr:  workload.Median(gridErrs),
			QuadErr:  workload.Median(quadErrs),
			GridDims: fmt.Sprintf("%dx%d", gridSide, gridSide),
		})
	}
	return rows, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
