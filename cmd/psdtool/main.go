// Command psdtool builds a private spatial decomposition from a CSV point
// file and answers range queries, dumps the released regions, or writes the
// release artifact; its convert subcommand translates artifacts between the
// JSON and binary release formats.
//
// Usage:
//
//	psdtool -data points.csv -kind kd-hybrid -height 6 -eps 0.5 \
//	        -query "-123,46,-120,48" -query "-110,32,-104,36"
//
//	psdtool -data points.csv -kind quadtree -height 5 -eps 1 -regions
//
//	psdtool -data points.csv -kind quadtree -height 8 -eps 0.5 -out roads.bin
//
//	psdtool convert -in release.json -out release.bin
//
// The input CSV has one "x,y" row per point; lines starting with '#' are
// skipped. The domain defaults to the data's bounding box (see the
// BoundingBox caveat in the library docs: fixing a public domain is the
// right call for a real release) and can be overridden with -domain.
//
// -out and convert's -out choose the release encoding by file extension:
// ".bin" writes the record-major binary format v3, which psdserve opens
// zero-copy via mmap, and anything else writes the versioned JSON format 1.
// convert reads any format (JSON, the read-only legacy v2, v3), sniffing
// the leading bytes, so upgrading a v2 artifact is `convert -out x.bin`;
// v2 read support is permanent.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"psd"
	"psd/internal/atomicfile"
)

// rectFlag accumulates repeated -query flags.
type rectFlag []psd.Rect

func (r *rectFlag) String() string { return fmt.Sprint(*r) }

func (r *rectFlag) Set(s string) error {
	rect, err := parseRect(s)
	if err != nil {
		return err
	}
	*r = append(*r, rect)
	return nil
}

func parseRect(s string) (psd.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return psd.Rect{}, fmt.Errorf("want x1,y1,x2,y2, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return psd.Rect{}, fmt.Errorf("bad coordinate %q: %v", p, err)
		}
		v[i] = f
	}
	if v[2] < v[0] {
		v[0], v[2] = v[2], v[0]
	}
	if v[3] < v[1] {
		v[1], v[3] = v[3], v[1]
	}
	return psd.NewRect(v[0], v[1], v[2], v[3]), nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		runConvert(os.Args[2:])
		return
	}
	data := flag.String("data", "", "CSV point file (required)")
	kindName := flag.String("kind", "quadtree",
		"tree kind: quadtree, kd, kd-hybrid, hilbert-r, kd-cell, kd-noisymean, privtree")
	theta := flag.Float64("theta", 0, "privtree split threshold θ (privtree only)")
	height := flag.Int("height", 6, "tree height")
	eps := flag.Float64("eps", 0.5, "privacy budget")
	seed := flag.Int64("seed", 1, "build seed")
	domainSpec := flag.String("domain", "", "domain as x1,y1,x2,y2 (default: data bounding box)")
	regions := flag.Bool("regions", false, "dump released regions as CSV")
	out := flag.String("out", "", "write the release artifact to this file (.bin = binary v3, else JSON)")
	var queries rectFlag
	flag.Var(&queries, "query", "range query as x1,y1,x2,y2 (repeatable)")
	flag.Parse()

	if *data == "" {
		fmt.Fprintln(os.Stderr, "psdtool: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	points, err := readPoints(*data)
	if err != nil {
		fatal(err)
	}
	if len(points) == 0 {
		fatal(fmt.Errorf("no points in %s", *data))
	}

	kinds := map[string]psd.Kind{
		"quadtree": psd.QuadtreeKind, "kd": psd.KDTree, "kd-hybrid": psd.KDHybrid,
		"hilbert-r": psd.HilbertRTree, "kd-cell": psd.KDCellTree,
		"kd-noisymean": psd.KDNoisyMeanTree, "privtree": psd.PrivTreeKind,
	}
	kind, ok := kinds[*kindName]
	if !ok {
		fatal(fmt.Errorf("unknown kind %q", *kindName))
	}

	domain := psd.BoundingBox(points)
	if *domainSpec != "" {
		domain, err = parseRect(*domainSpec)
		if err != nil {
			fatal(err)
		}
	}

	if *theta != 0 && kind != psd.PrivTreeKind {
		fatal(fmt.Errorf("-theta applies only to -kind privtree"))
	}
	tree, err := psd.Build(points, domain, psd.Options{
		Kind: kind, Height: *height, Epsilon: *eps, Seed: *seed, Theta: *theta,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s h=%d eps=%g over %d points, built in %s, %d regions\n",
		tree.Kind(), tree.Height(), tree.PrivacyCost(), len(points),
		tree.BuildTime(), tree.NumRegions())

	for _, q := range queries {
		fmt.Printf("count %v = %.1f\n", q, tree.Count(q))
	}
	if *out != "" {
		n, err := writeRelease(tree, *out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote %s release to %s (%d bytes)\n", formatOf(*out), *out, n)
	}
	if *regions {
		rects, counts := tree.Regions()
		fmt.Println("lox,loy,hix,hiy,count")
		for i, r := range rects {
			fmt.Printf("%g,%g,%g,%g,%.2f\n", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y, counts[i])
		}
	}
}

func readPoints(path string) ([]psd.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []psd.Point
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		parts := strings.Split(txt, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: want x,y", path, line)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		pts = append(pts, psd.Point{X: x, Y: y})
	}
	return pts, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psdtool:", err)
	os.Exit(1)
}

// formatOf names the release encoding a path's extension selects.
func formatOf(path string) string {
	if strings.EqualFold(filepath.Ext(path), ".bin") {
		return "binary"
	}
	return "json"
}

// writeArtifact publishes write's output at path crash-safely — temp file,
// fsync, atomic rename — returning the byte count. A psdserve watch-dir
// rescan (or any reader) racing the write sees either the previous complete
// artifact or the new one, never a prefix.
func writeArtifact(path string, write func(io.Writer) error) (int64, error) {
	return atomicfile.Write(path, write)
}

// writeRelease serializes the tree's release to path in the
// extension-selected format, returning the byte count.
func writeRelease(tree *psd.Tree, path string) (int64, error) {
	if formatOf(path) == "binary" {
		return writeArtifact(path, tree.WriteBinaryV3Release)
	}
	return writeArtifact(path, tree.WriteRelease)
}

// runConvert implements `psdtool convert`: translate a release artifact
// between the JSON and binary encodings. The input format is sniffed from
// the leading bytes; the output format follows the -out extension. Every
// encoding carries the same artifact, so converting is lossless: a release
// round-tripped either way re-serializes byte-identically.
func runConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input release artifact, JSON or binary v2/v3 (required)")
	out := fs.String("out", "", "output path; .bin writes binary v3, anything else JSON (required)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdtool convert -in release.json -out release.bin")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *in == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	slab, n, err := convert(*in, *out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# converted %s (%s h=%d eps=%g, %d regions) -> %s %s (%d bytes)\n",
		*in, slab.Kind(), slab.Height(), slab.PrivacyCost(), slab.NumRegions(),
		formatOf(*out), *out, n)
	slab.Close()
}

// convert opens the release at in (any format, sniffed; a v3 artifact is
// mmap'd and fully verified rather than decoded) and writes it to out in
// the selected format, returning the opened slab and the output size. Every
// encoding carries the same artifact, so every conversion is lossless and
// round trips re-serialize byte-identically.
func convert(in, out string) (*psd.Slab, int64, error) {
	slab, err := psd.OpenSlabFile(in)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", in, err)
	}
	// A zero-copy open skips the body checks a decode runs inline; verify
	// before re-encoding so a corrupt input fails loudly instead of being
	// laundered into a fresh checksummed artifact.
	if err := slab.Verify(); err != nil {
		slab.Close()
		return nil, 0, fmt.Errorf("%s: %w", in, err)
	}
	write := slab.WriteRelease
	if formatOf(out) == "binary" {
		write = slab.WriteBinaryV3Release
	}
	n, err := writeArtifact(out, write)
	if err != nil {
		slab.Close()
		return nil, 0, err
	}
	return slab, n, nil
}
