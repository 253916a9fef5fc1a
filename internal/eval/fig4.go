package eval

import (
	"fmt"
	"time"

	"psd/internal/grid"
	"psd/internal/median"
	"psd/internal/rng"
)

func buildFlatGrid(env *Env, side int, eps float64) (*grid.Grid, error) {
	return grid.Build(env.Data.Points, env.Data.Domain, side, side, eps, rng.New(env.Scale.Seed^0x67726964))
}

// Figure4Row is one (method, depth) cell of Figure 4: the average
// normalized rank error (in %) and the total time spent by one private
// median method at one depth of a binary tree built over 2^20 uniform
// values in [0, 2^26].
type Figure4Row struct {
	Method string
	Depth  int
	// RankErr is the average normalized rank error in % (100 = median fell
	// outside the data range).
	RankErr float64
	// Time is the total time spent computing this level's medians.
	Time time.Duration
}

// Figure4Config parameterizes the median study.
type Figure4Config struct {
	// Values is the input size (paper: 2^20).
	Values int
	// Domain is the value domain [0, Domain] (paper: 2^26).
	Domain float64
	// Depths is the number of tree levels (paper: 10).
	Depths int
	// Eps is the per-level budget (paper: 0.01).
	Eps float64
	// Delta is the smooth-sensitivity δ (paper: 1e-4).
	Delta float64
	// SampleRate is the EMs/SSs sampling rate (paper: 1%).
	SampleRate float64
	// CellWidth is the cell method's fixed cell length (paper: 2^10).
	CellWidth float64
	Seed      int64
}

// PaperFigure4 is the configuration of Section 8.2's median study.
var PaperFigure4 = Figure4Config{
	Values:     1 << 20,
	Domain:     1 << 26,
	Depths:     10,
	Eps:        0.01,
	Delta:      1e-4,
	SampleRate: 0.01,
	CellWidth:  1 << 10,
	Seed:       41,
}

// figure4Method is one of the six methods the figure compares: the
// paper's label, the finder, and the source each of its medians splits a
// stream off.
type figure4Method struct {
	name   string
	finder median.Finder
	src    *rng.Source
}

// figure4Methods returns the figure's methods in the paper's order. The
// sources split off cfg.Seed in the order that keeps every published row:
// the two skipped splits once seeded the sampled methods' inner finders,
// whose draws the wrapper's stream has always supplied.
func figure4Methods(cfg Figure4Config) []figure4Method {
	seed := rng.New(cfg.Seed)
	em, ss := seed.Split(), seed.Split()
	seed.Split()
	ems := seed.Split()
	seed.Split()
	sss := seed.Split()
	nm, cell := seed.Split(), seed.Split()
	return []figure4Method{
		{"EM", &median.EM{}, em},
		{"SS", &median.SS{Delta: cfg.Delta}, ss},
		{"EMs", &median.Sampled{Inner: &median.EM{}, Rate: cfg.SampleRate}, ems},
		{"SSs", &median.Sampled{Inner: &median.SS{Delta: cfg.Delta}, Rate: cfg.SampleRate}, sss},
		{"NM", &median.NM{}, nm},
		{"cell", &median.Cell{Cells: int(cfg.Domain / cfg.CellWidth)}, cell},
	}
}

// Figure4 reproduces Figure 4(a) and (b): for each private median method, a
// binary tree is built over uniform one-dimensional data with the splits
// found by the mechanism itself, recording per-depth average rank error and
// time. Depth 0 is the root (the full data), as in the paper's x-axis.
func Figure4(cfg Figure4Config) ([]Figure4Row, error) {
	if cfg.Values <= 0 || cfg.Depths <= 0 || cfg.Domain <= 0 {
		return nil, fmt.Errorf("eval: invalid Figure 4 config %+v", cfg)
	}
	src := rng.New(cfg.Seed ^ 0x66696734)
	base := make([]float64, cfg.Values)
	for i := range base {
		base[i] = src.UniformIn(0, cfg.Domain)
	}
	var rows []Figure4Row
	var sc median.Scratch
	for _, method := range figure4Methods(cfg) {
		values := make([]float64, len(base))
		copy(values, base)
		// Active segments of the binary tree at the current depth.
		type segment struct {
			vals   []float64
			lo, hi float64
		}
		segs := []segment{{values, 0, cfg.Domain}}
		for depth := 0; depth < cfg.Depths; depth++ {
			var errSum float64
			var evals int
			start := time.Now()
			var next []segment
			for _, s := range segs {
				if s.hi <= s.lo {
					// A previous private median collapsed this range (it
					// landed on a boundary). The subtree is degenerate:
					// carry it down without further splits or evaluation.
					next = append(next, s, segment{nil, s.lo, s.hi})
					continue
				}
				m, err := method.finder.MedianAt(*method.src.Split(), &sc, s.vals, s.lo, s.hi, cfg.Eps)
				if err != nil {
					return nil, fmt.Errorf("%s depth %d: %w", method.name, depth, err)
				}
				if len(s.vals) > 0 {
					errSum += median.RankError(s.vals, m)
					evals++
				}
				mid := partition(s.vals, m)
				next = append(next,
					segment{s.vals[:mid], s.lo, m},
					segment{s.vals[mid:], m, s.hi})
			}
			elapsed := time.Since(start)
			avg := 0.0
			if evals > 0 {
				avg = 100 * errSum / float64(evals)
			}
			rows = append(rows, Figure4Row{
				Method:  method.name,
				Depth:   depth,
				RankErr: avg,
				Time:    elapsed,
			})
			segs = next
		}
	}
	return rows, nil
}

// partition reorders vals so entries < split come first, returning their
// count.
func partition(vals []float64, split float64) int {
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
