// Package eval is the experiment harness behind Section 8: it builds the
// datasets and query workloads, runs every PSD configuration the paper
// compares, and produces the rows/series of each figure. The cmd/psdbench
// tool and the repository's bench_test.go are thin wrappers around this
// package.
//
// Experiments run at two scales: Paper (the full 1.63M-point dataset and
// 600 queries per shape, as in Section 8.1) and Quick (a 10× smaller
// dataset and 60 queries per shape) so `go test -bench` finishes in
// minutes. The *shapes* of the results — who wins, by what factor — hold at
// both scales; pass -paper to cmd/psdbench for the paper-scale numbers (see
// the README's Benchmarks section).
package eval

import (
	"fmt"
	"math"

	"psd/internal/core"
	"psd/internal/workload"
)

// Scale sizes an experimental run.
type Scale struct {
	// Name labels output tables.
	Name string
	// Points is the dataset cardinality.
	Points int
	// QueriesPerShape is the number of random non-empty queries per shape.
	QueriesPerShape int
	// Reps is the number of independent trees built per configuration;
	// reported errors pool queries across reps (smaller workloads need more
	// reps for stable medians).
	Reps int
	// MedianValues is the input size for the Figure 4 one-dimensional
	// median study.
	MedianValues int
	// Seed fixes all randomness.
	Seed int64
}

// PaperScale reproduces Section 8.1 exactly.
var PaperScale = Scale{
	Name:            "paper",
	Points:          workload.TigerPoints,
	QueriesPerShape: 600,
	Reps:            1,
	MedianValues:    1 << 20,
	Seed:            20120403,
}

// QuickScale is a 10× reduced configuration for CI and benchmarks.
var QuickScale = Scale{
	Name:            "quick",
	Points:          163_000,
	QueriesPerShape: 60,
	Reps:            3,
	MedianValues:    1 << 17,
	Seed:            20120403,
}

// Env bundles the dataset, its exact-count index and cached query
// workloads. Build it once per experimental session.
type Env struct {
	Scale Scale
	Data  workload.Dataset
	Index *workload.CountIndex

	queries map[workload.QueryShape]*workload.Queries
}

// NewEnv generates the synthetic road dataset at the given scale and
// indexes it.
func NewEnv(scale Scale) (*Env, error) {
	if scale.Points <= 0 || scale.QueriesPerShape <= 0 {
		return nil, fmt.Errorf("eval: invalid scale %+v", scale)
	}
	if scale.Reps <= 0 {
		scale.Reps = 1
	}
	data := workload.RoadNetwork(workload.RoadNetworkConfig{
		N:    scale.Points,
		Seed: scale.Seed,
	})
	idx, err := workload.NewCountIndex(data.Points, data.Domain, 1024)
	if err != nil {
		return nil, err
	}
	return &Env{
		Scale:   scale,
		Data:    data,
		Index:   idx,
		queries: make(map[workload.QueryShape]*workload.Queries),
	}, nil
}

// Queries returns (and caches) the workload for one query shape.
func (e *Env) Queries(shape workload.QueryShape) (*workload.Queries, error) {
	if qs, ok := e.queries[shape]; ok {
		return qs, nil
	}
	qs, err := workload.GenQueries(e.Index, shape, e.Scale.QueriesPerShape,
		e.Scale.Seed^int64(shape.W*1000)^int64(shape.H*7000))
	if err != nil {
		return nil, err
	}
	e.queries[shape] = qs
	return qs, nil
}

// RelativeErrors returns the per-query relative errors (in %) of a PSD on a
// workload: 100·|estimate − truth|/truth. GenQueries guarantees truth ≥ 1.
// The whole workload is answered through the node-major batch engine — one
// pass over the PSD's sealed slab per workload — so figure regeneration
// scales with the machine; answers are bit-identical to querying one
// rectangle at a time.
func RelativeErrors(p *core.PSD, qs *workload.Queries) []float64 {
	out := p.Sealed().CountBatch(qs.Rects)
	for i, est := range out {
		out[i] = 100 * math.Abs(est-qs.Answers[i]) / qs.Answers[i]
	}
	return out
}

// MedianRelativeError returns the workload's median relative error in %,
// the paper's headline metric (Section 8.1).
func MedianRelativeError(p *core.PSD, qs *workload.Queries) float64 {
	return workload.Median(RelativeErrors(p, qs))
}

// RunSpec is one named tree configuration in a comparison.
type RunSpec struct {
	Name string
	Cfg  core.Config
}

// medianErrorOver builds spec.Reps trees (varying the seed) and pools the
// per-query relative errors before taking the median, stabilizing small
// workloads.
func (e *Env) medianErrorOver(spec RunSpec, qs *workload.Queries) (float64, error) {
	var pooled []float64
	for rep := 0; rep < e.Scale.Reps; rep++ {
		cfg := spec.Cfg
		cfg.Seed = e.Scale.Seed + int64(rep)*7919 + int64(len(spec.Name))
		p, err := core.Build(e.Data.Points, e.Data.Domain, cfg)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", spec.Name, err)
		}
		pooled = append(pooled, RelativeErrors(p, qs)...)
	}
	return workload.Median(pooled), nil
}
