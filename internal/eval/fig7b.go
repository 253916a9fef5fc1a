package eval

import (
	"psd/internal/geom"
	"psd/internal/matching"
	"psd/internal/rng"
)

// Figure7bRow is one point of Figure 7(b): reduction ratio per method at
// one privacy budget.
type Figure7bRow struct {
	Eps    float64
	Ratios map[string]float64 // keyed by matching.Method String()
	Recall map[string]float64
}

// Figure7bConfig sizes the record-matching experiment.
type Figure7bConfig struct {
	// PartySize is each party's record count (default 5000).
	PartySize int
	// Height is the blocking-tree height (default 5).
	Height int
	// Reps averages the ratio over independent releases (default 3).
	Reps int
	Seed int64
}

// Figure7b reproduces Figure 7(b): the reduction ratio of private record
// matching as the privacy budget grows, for the three blocking methods.
// The two parties are synthetic point sets with partially overlapping
// hotspots: the records [12] matched are not public, and the reduction
// ratio depends only on how the two parties' densities overlap.
func Figure7b(cfg Figure7bConfig, epss []float64) ([]Figure7bRow, error) {
	if cfg.PartySize == 0 {
		cfg.PartySize = 12000
	}
	if cfg.Height == 0 {
		cfg.Height = 5
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	dom := geom.NewRect(0, 0, 100, 100)
	partyA, partyB := matchingParties(cfg.PartySize, dom, cfg.Seed)

	methods := []matching.Method{
		matching.QuadBaseline, matching.KDNoisyMean, matching.KDStandard,
	}
	var rows []Figure7bRow
	for _, eps := range epss {
		row := Figure7bRow{
			Eps:    eps,
			Ratios: map[string]float64{},
			Recall: map[string]float64{},
		}
		for _, m := range methods {
			var rr, rec float64
			for rep := 0; rep < cfg.Reps; rep++ {
				res, err := matching.Run(partyA, partyB, dom, matching.Config{
					Method:  m,
					Height:  cfg.Height,
					Epsilon: eps,
					Seed:    cfg.Seed + int64(rep)*131 + int64(m),
				})
				if err != nil {
					return nil, err
				}
				rr += res.ReductionRatio
				rec += res.Recall
			}
			row.Ratios[m.String()] = rr / float64(cfg.Reps)
			row.Recall[m.String()] = rec / float64(cfg.Reps)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// matchingParties builds two clustered point sets with partially
// overlapping hotspots, the workload shape that makes blocking worthwhile.
func matchingParties(n int, dom geom.Rect, seed int64) (a, b []geom.Point) {
	src := rng.New(seed ^ 0x7061727479)
	cities := make([]geom.Point, 8)
	for i := range cities {
		cities[i] = geom.Point{
			X: src.UniformIn(dom.Lo.X, dom.Hi.X),
			Y: src.UniformIn(dom.Lo.Y, dom.Hi.Y),
		}
	}
	// Tight hotspots (σ = 1% of the domain) put the data in the skew regime
	// of real address data, where adaptive splits pay off.
	gen := func(n, lo, hi int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			c := cities[lo+src.Intn(hi-lo)]
			pts[i] = geom.Point{
				X: clampF(c.X+src.Gaussian(0, dom.Width()/100), dom.Lo.X, dom.Hi.X),
				Y: clampF(c.Y+src.Gaussian(0, dom.Height()/100), dom.Lo.Y, dom.Hi.Y),
			}
		}
		return pts
	}
	return gen(n, 0, 6), gen(n, 3, 8)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v >= hi {
		return hi - 1e-9
	}
	return v
}
