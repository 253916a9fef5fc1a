package eval

import (
	"psd/internal/budget"
	"psd/internal/core"
	"psd/internal/workload"
)

// This file reproduces the "other parameter settings" sweeps that
// Section 8.2 summarizes without plots, plus ablations of the design
// choices the paper fixes (geometric budget ratio, Hilbert curve order,
// pruning threshold).

// SweepRow is one point of a one-dimensional parameter sweep: median
// relative error (%) per query shape at one parameter value.
type SweepRow struct {
	Param  float64
	Errors map[string]float64 // keyed by shape string
}

// SwitchLevelSweep varies the hybrid tree's switch level ℓ from fully
// data-independent (0) to fully data-dependent (height). The paper found
// switching about half-way down gives the best results.
func SwitchLevelSweep(env *Env, height int, eps float64, shapes []workload.QueryShape) ([]SweepRow, error) {
	var rows []SweepRow
	for l := 0; l <= height; l++ {
		row := SweepRow{Param: float64(l), Errors: map[string]float64{}}
		spec := RunSpec{
			Name: "hybrid",
			Cfg: core.Config{
				Kind: core.Hybrid, Height: height, Epsilon: eps,
				// SwitchLevel 0 must mean "0 levels", not "use the default",
				// so route it through KD=0 ≡ quadtree via explicit config.
				SwitchLevel: l,
				Strategy:    budget.Geometric{}, PostProcess: true,
			},
		}
		if l == 0 {
			spec.Cfg.Kind = core.Quadtree // ℓ=0 hybrid is exactly a quadtree
			spec.Cfg.SwitchLevel = 0
		}
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			v, err := env.medianErrorOver(spec, qs)
			if err != nil {
				return nil, err
			}
			row.Errors[shape.String()] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CountFractionSweep varies the εcount/ε split for kd-trees. The paper
// settles on εcount = 0.7ε.
func CountFractionSweep(env *Env, height int, eps float64, fracs []float64, shapes []workload.QueryShape) ([]SweepRow, error) {
	var rows []SweepRow
	for _, f := range fracs {
		row := SweepRow{Param: f, Errors: map[string]float64{}}
		spec := RunSpec{
			Name: "kd",
			Cfg: core.Config{
				Kind: core.KD, Height: height, Epsilon: eps,
				CountFraction: f,
				Strategy:      budget.Geometric{}, PostProcess: true,
			},
		}
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			v, err := env.medianErrorOver(spec, qs)
			if err != nil {
				return nil, err
			}
			row.Errors[shape.String()] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HilbertOrderSweep varies the Hilbert curve order. The paper found
// accuracy stable across orders 16-24 and used 18.
func HilbertOrderSweep(env *Env, height int, eps float64, orders []uint, shapes []workload.QueryShape) ([]SweepRow, error) {
	var rows []SweepRow
	for _, ord := range orders {
		row := SweepRow{Param: float64(ord), Errors: map[string]float64{}}
		spec := RunSpec{
			Name: "hilbert-r",
			Cfg: core.Config{
				Kind: core.HilbertR, Height: height, Epsilon: eps,
				HilbertOrder: ord,
				Strategy:     budget.Geometric{}, PostProcess: true,
			},
		}
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			v, err := env.medianErrorOver(spec, qs)
			if err != nil {
				return nil, err
			}
			row.Errors[shape.String()] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GeometricRatioSweep varies the geometric budget ratio around the Lemma 3
// optimum 2^(1/3) ≈ 1.26 on quadtrees (ratio 1 is the uniform strategy).
func GeometricRatioSweep(env *Env, height int, eps float64, ratios []float64, shapes []workload.QueryShape) ([]SweepRow, error) {
	var rows []SweepRow
	for _, r := range ratios {
		row := SweepRow{Param: r, Errors: map[string]float64{}}
		spec := RunSpec{
			Name: "quad",
			Cfg: core.Config{
				Kind: core.Quadtree, Height: height, Epsilon: eps,
				Strategy: budget.Geometric{Ratio: r}, PostProcess: true,
			},
		}
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			v, err := env.medianErrorOver(spec, qs)
			if err != nil {
				return nil, err
			}
			row.Errors[shape.String()] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PruneThresholdSweep varies the Section 7 pruning threshold m on the
// hybrid tree (m = 0 disables pruning; the paper uses m = 32).
func PruneThresholdSweep(env *Env, height int, eps float64, thresholds []float64, shapes []workload.QueryShape) ([]SweepRow, error) {
	var rows []SweepRow
	for _, m := range thresholds {
		row := SweepRow{Param: m, Errors: map[string]float64{}}
		spec := RunSpec{
			Name: "hybrid",
			Cfg: core.Config{
				Kind: core.Hybrid, Height: height, Epsilon: eps,
				Strategy: budget.Geometric{}, PostProcess: true,
				PruneThreshold: m,
			},
		}
		for _, shape := range shapes {
			qs, err := env.Queries(shape)
			if err != nil {
				return nil, err
			}
			v, err := env.medianErrorOver(spec, qs)
			if err != nil {
				return nil, err
			}
			row.Errors[shape.String()] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}
