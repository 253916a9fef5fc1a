package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"psd/internal/geom"
	"psd/internal/tree"
)

// Release is the serializable private artifact of a PSD: the tree geometry
// plus the released counts, and nothing derived from the raw data beyond
// them. This is what a curator actually publishes; Release.Slab decodes it
// into a query-only slab with no access to the original points.
//
// The format is versioned JSON. Counts are the post-processed estimates
// when post-processing ran (they are a deterministic function of the noisy
// counts, so publishing them is free), otherwise the raw noisy counts.
type Release struct {
	// Version identifies the format.
	Version int `json:"version"`
	// Kind names the decomposition family.
	Kind string `json:"kind"`
	// Epsilon is the total privacy budget the release consumed.
	Epsilon float64 `json:"epsilon"`
	// Fanout and Height describe the complete tree.
	Fanout int `json:"fanout"`
	Height int `json:"height"`
	// Domain is the released domain rectangle [lox,loy,hix,hiy].
	Domain [4]float64 `json:"domain"`
	// Rects holds every node rectangle in breadth-first order, flattened as
	// [lox,loy,hix,hiy].
	Rects [][4]float64 `json:"rects"`
	// Counts holds the released estimate per node; NaN marks unpublished
	// nodes (serialized as null).
	Counts []*float64 `json:"counts"`
	// Pruned holds the indices of pruned subtree roots.
	Pruned []int `json:"pruned,omitempty"`
}

// releaseVersion is the current serialization version.
const releaseVersion = 1

// Release extracts the publishable artifact from a built PSD.
func (p *PSD) Release() *Release {
	ar := p.arena
	rel := &Release{
		Version: releaseVersion,
		Kind:    p.kind.String(),
		Epsilon: p.PrivacyCost(),
		Fanout:  ar.Fanout(),
		Height:  ar.Height(),
		Domain:  flattenRect(p.domain),
		Rects:   make([][4]float64, ar.Len()),
		Counts:  make([]*float64, ar.Len()),
	}
	for i := range ar.Nodes {
		n := &ar.Nodes[i]
		rel.Rects[i] = flattenRect(n.Rect)
		if n.Published || p.postProcessed {
			v := n.Est
			rel.Counts[i] = &v
		}
		if n.Pruned {
			rel.Pruned = append(rel.Pruned, i)
		}
	}
	return rel
}

// WriteTo serializes the release as JSON.
func (r *Release) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := json.NewEncoder(cw).Encode(r); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadRelease parses and validates a JSON release. The input is treated as
// untrusted: a successfully parsed release is structurally sound (see
// Validate), which ReadSlab relies on to decode without re-checking.
func ReadRelease(r io.Reader) (*Release, error) {
	var rel Release
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rel); err != nil {
		return nil, fmt.Errorf("core: parsing release: %w", err)
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	return &rel, nil
}

// maxReleaseHeight bounds the tree height a release may declare. It matches
// the build-side cap in Config.withDefaults; together with the fanout check
// it keeps a malicious artifact from forcing a huge slab allocation before
// the length checks run.
const maxReleaseHeight = 13

// Validate checks a release for structural soundness without allocating
// node storage: version and kind are known, the fanout/height product is sane and
// matches the rects/counts lengths, every rectangle is finite and ordered,
// every published count is finite, epsilon is a finite non-negative budget,
// the domain is a finite non-empty rectangle, and pruned indices are
// in-range and distinct. Release.Slab validates automatically; ReadRelease
// rejects artifacts that fail these checks at parse time.
func (r *Release) Validate() error {
	if r.Version != releaseVersion {
		return fmt.Errorf("core: unsupported release version %d", r.Version)
	}
	if _, err := parseKind(r.Kind); err != nil {
		return err
	}
	nodes, err := checkShape(r.Fanout, r.Height)
	if err != nil {
		return err
	}
	if len(r.Rects) != nodes || len(r.Counts) != nodes {
		return fmt.Errorf("core: release has %d rects / %d counts for a %d-node tree",
			len(r.Rects), len(r.Counts), nodes)
	}
	if err := checkEpsilon(r.Epsilon); err != nil {
		return err
	}
	if err := checkDomain(r.Domain); err != nil {
		return err
	}
	for i, fr := range r.Rects {
		if !finiteRect(fr) {
			return fmt.Errorf("core: release node %d has non-finite rect", i)
		}
		if !unflattenRect(fr).Valid() {
			return fmt.Errorf("core: release node %d has inverted rect", i)
		}
	}
	for i, c := range r.Counts {
		if c != nil && !finite(*c) {
			return fmt.Errorf("core: release node %d has non-finite count", i)
		}
	}
	if len(r.Pruned) > 0 {
		seen := make(map[int]bool, len(r.Pruned))
		for _, i := range r.Pruned {
			if i < 0 || i >= nodes {
				return fmt.Errorf("core: pruned index %d out of range", i)
			}
			if seen[i] {
				return fmt.Errorf("core: duplicate pruned index %d", i)
			}
			seen[i] = true
		}
	}
	return nil
}

func finiteRect(v [4]float64) bool {
	return finite(v[0]) && finite(v[1]) && finite(v[2]) && finite(v[3])
}

// finite reports whether f is neither NaN nor infinite, in one comparison
// (NaN fails every comparison).
func finite(f float64) bool { return math.Abs(f) <= math.MaxFloat64 }

// checkShape validates the declared fanout/height and returns the node
// count of the complete tree. Shared by the JSON and binary (format v2)
// decoders; the checks run before any node-sized allocation.
func checkShape(fanout, height int) (int, error) {
	if fanout != 4 {
		return 0, fmt.Errorf("core: unsupported fanout %d", fanout)
	}
	if height < 0 || height > maxReleaseHeight {
		return 0, fmt.Errorf("core: release height %d outside [0,%d]", height, maxReleaseHeight)
	}
	nodes := 0
	for d, level := 0, 1; d <= height; d, level = d+1, level*fanout {
		nodes += level
		if nodes > tree.MaxNodes {
			return 0, fmt.Errorf("core: fanout %d height %d exceeds %d nodes", fanout, height, tree.MaxNodes)
		}
	}
	return nodes, nil
}

// checkEpsilon validates a declared privacy budget.
func checkEpsilon(eps float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return fmt.Errorf("core: invalid release epsilon %v", eps)
	}
	return nil
}

// checkDomain validates a declared domain rectangle.
func checkDomain(v [4]float64) error {
	if !finiteRect(v) {
		return fmt.Errorf("core: release domain %v is not finite", v)
	}
	if d := unflattenRect(v); !d.Valid() || d.Empty() {
		return fmt.Errorf("core: release domain %v is inverted or empty", v)
	}
	return nil
}

func parseKind(s string) (Kind, error) {
	for _, k := range []Kind{Quadtree, KD, Hybrid, HilbertR, KDCell, KDNoisyMean, PrivTree} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown kind %q in release", s)
}

func flattenRect(r geom.Rect) [4]float64 {
	return [4]float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y}
}

func unflattenRect(v [4]float64) geom.Rect {
	return geom.Rect{
		Lo: geom.Point{X: v[0], Y: v[1]},
		Hi: geom.Point{X: v[2], Y: v[3]},
	}
}
