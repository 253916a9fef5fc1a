// Command datagen emits synthetic point datasets as CSV (one "x,y" row per
// point), for use with psdtool or external analysis — or, with -release,
// builds a private release from the generated points directly and writes
// the artifact, which is how multi-hundred-MB scale-test releases are
// produced without a CSV detour.
//
// Usage:
//
//	datagen -kind road -n 100000 -seed 1 > points.csv
//
//	datagen -kind road -n 1630000 -seed 1 \
//	        -release roads.bin -height 12 -eps 0.5
//
// Kinds:
//
//	road     TIGER-like skewed road-intersection data over the paper's
//	         western-US bounding box (the default)
//	uniform  uniform points over the unit square
//	gauss    5 Gaussian clusters over the unit square
//
// -release writes the artifact crash-safely (temp file + atomic rename) in
// the format the extension selects: ".bin" is the mmap-ready record-major
// binary format v3, anything else JSON. An h=12 release is ~22.4M nodes,
// ~900MB as v3; psdserve opens it zero-copy.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"psd"
	"psd/internal/atomicfile"
	"psd/internal/geom"
	"psd/internal/workload"
)

func main() {
	kind := flag.String("kind", "road", "dataset kind: road, uniform, gauss")
	n := flag.Int("n", 100000, "number of points")
	seed := flag.Int64("seed", 1, "generator seed")
	release := flag.String("release", "", "build a release from the points and write it here instead of emitting CSV (.bin = binary, else JSON)")
	relKind := flag.String("release-kind", "quadtree",
		"decomposition kind for -release: quadtree, kd, kd-hybrid, hilbert-r, kd-cell, kd-noisymean, privtree")
	height := flag.Int("height", 10, "tree height for -release (12 yields a multi-hundred-MB artifact)")
	eps := flag.Float64("eps", 0.5, "privacy budget for -release")
	flag.Parse()

	var ds workload.Dataset
	unit := geom.NewRect(0, 0, 1, 1)
	switch *kind {
	case "road":
		ds = workload.RoadNetwork(workload.RoadNetworkConfig{N: *n, Seed: *seed})
	case "uniform":
		ds = workload.Uniform(*n, unit, *seed)
	case "gauss":
		ds = workload.GaussianClusters(*n, 5, 0.05, unit, *seed)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	if *release != "" {
		if err := emitRelease(ds, *release, *relKind, *height, *eps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# %s domain=%v n=%d seed=%d\n", ds.Name, ds.Domain, len(ds.Points), *seed)
	for _, p := range ds.Points {
		fmt.Fprintf(w, "%g,%g\n", p.X, p.Y)
	}
	// A deferred Flush would drop its error and silently truncate the
	// dataset when stdout is a nearly-full pipe or disk.
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// emitRelease builds a decomposition over the dataset and publishes the
// release artifact crash-safely at path. This is the scale-up path: the
// points never touch disk, so an h=12 (22.4M-node) artifact costs one
// build plus one sequential write.
func emitRelease(ds workload.Dataset, path, kindName string, height int, eps float64, seed int64) error {
	kinds := map[string]psd.Kind{
		"quadtree": psd.QuadtreeKind, "kd": psd.KDTree, "kd-hybrid": psd.KDHybrid,
		"hilbert-r": psd.HilbertRTree, "kd-cell": psd.KDCellTree,
		"kd-noisymean": psd.KDNoisyMeanTree, "privtree": psd.PrivTreeKind,
	}
	kind, ok := kinds[kindName]
	if !ok {
		return fmt.Errorf("unknown release kind %q", kindName)
	}
	tree, err := psd.Build(ds.Points, ds.Domain, psd.Options{
		Kind: kind, Height: height, Epsilon: eps, Seed: seed,
	})
	if err != nil {
		return err
	}
	write := tree.WriteRelease
	format := "json"
	if strings.EqualFold(filepath.Ext(path), ".bin") {
		write, format = tree.WriteBinaryV3Release, "binary-v3"
	}
	n, err := atomicfile.Write(path, func(w io.Writer) error { return write(w) })
	if err != nil {
		return err
	}
	fmt.Printf("# %s h=%d eps=%g over %d points (%s), built in %s: wrote %s release to %s (%d bytes)\n",
		tree.Kind(), tree.Height(), tree.PrivacyCost(), len(ds.Points), ds.Name,
		tree.BuildTime(), format, path, n)
	return nil
}
