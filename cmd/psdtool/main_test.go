package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psd"
)

// TestParseRect pins what -query accepts: inverted corners are swapped and
// whitespace is tolerated, while malformed or non-finite input is an error
// the flag package reports, never a panic.
func TestParseRect(t *testing.T) {
	var rf rectFlag
	for _, s := range []string{"1,2,3,4", "3,4,1,2", " 1 , 2 , 3 , 4 "} {
		if err := rf.Set(s); err != nil {
			t.Fatalf("Set(%q): %v", s, err)
		}
	}
	for i, r := range rf {
		if r != psd.NewRect(1, 2, 3, 4) {
			t.Errorf("rect %d = %v, want [1,3)x[2,4)", i, r)
		}
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,4,5", "a,b,c,d", "NaN,0,1,1", "0,0,1,Inf"} {
		if err := rf.Set(bad); err == nil {
			t.Errorf("Set(%q) should error", bad)
		}
	}
}

func TestRectFlagAccumulates(t *testing.T) {
	var rf rectFlag
	if err := rf.Set("0,0,1,1"); err != nil {
		t.Fatal(err)
	}
	if err := rf.Set("2,2,3,3"); err != nil {
		t.Fatal(err)
	}
	if len(rf) != 2 {
		t.Errorf("len = %d, want 2", len(rf))
	}
	if rf.String() == "" {
		t.Error("String should format")
	}
	if err := rf.Set("junk"); err == nil {
		t.Error("bad rect should error")
	}
}

func TestFormatOf(t *testing.T) {
	for path, want := range map[string]string{
		"x.bin": "binary", "x.BIN": "binary", "dir/y.bin": "binary",
		"x.json": "json", "x": "json", "x.bin.json": "json",
	} {
		if got := formatOf(path); got != want {
			t.Errorf("formatOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestConvertRoundTrip drives the convert subcommand's core both ways
// against the committed golden quadtree fixture: json -> bin -> json must
// reproduce the input byte-identically, and the intermediate binary must
// answer queries like the original.
func TestConvertRoundTrip(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "release_quadtree.json")
	dir := t.TempDir()
	binPath := filepath.Join(dir, "r.bin")
	jsonPath := filepath.Join(dir, "r.json")

	slab1, n, err := convert(src, binPath)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("convert wrote %d bytes", n)
	}
	slab2, _, err := convert(binPath, jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("json -> bin -> json round trip is not byte-identical")
	}
	for _, q := range []psd.Rect{
		psd.NewRect(0, 0, 100, 100),
		psd.NewRect(25, 25, 75, 75),
		psd.NewRect(47, 47, 53, 53),
	} {
		if a, b := slab1.Count(q), slab2.Count(q); a != b {
			t.Errorf("converted releases disagree on %v: %v vs %v", q, a, b)
		}
	}

	if _, _, err := convert(filepath.Join(dir, "missing.json"), binPath); err == nil {
		t.Error("convert of a missing file should error")
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := convert(junk, binPath); err == nil {
		t.Error("convert of a junk artifact should error")
	}
}

// TestConvertV3RoundTrip drives the converter through the mmap-ready v3
// encoding: json -> v3 -> json must reproduce the input byte-identically
// (the v3 leg is opened zero-copy by OpenSlabFile), and both slabs must
// answer identically.
func TestConvertV3RoundTrip(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "release_quadtree.json")
	dir := t.TempDir()
	v3Path := filepath.Join(dir, "r3.bin")
	jsonPath := filepath.Join(dir, "r.json")

	slabV3, n, err := convert(src, v3Path)
	if err != nil {
		t.Fatal(err)
	}
	if n%64 != 16 { // sections are 64-aligned; the 16-byte footer ends the file
		t.Errorf("v3 artifact is %d bytes; want 64-aligned body + 16-byte footer", n)
	}
	back, _, err := convert(v3Path, jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("json -> v3 -> json round trip is not byte-identical")
	}
	for _, q := range []psd.Rect{
		psd.NewRect(0, 0, 100, 100),
		psd.NewRect(25, 25, 75, 75),
		psd.NewRect(47, 47, 53, 53),
	} {
		if a, b := slabV3.Count(q), back.Count(q); a != b {
			t.Errorf("v3 and round-tripped slabs disagree on %v: %v vs %v", q, a, b)
		}
	}
	if err := slabV3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConvertV2Goldens pins the upgrade path for legacy artifacts: convert
// on every committed v2 golden (release_<kind>.bin) must write exactly the
// committed v3 golden of the same release.
func TestConvertV2Goldens(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "release_*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	converted := 0
	for _, src := range srcs {
		if strings.HasSuffix(src, ".v3.bin") {
			continue
		}
		out := filepath.Join(dir, filepath.Base(src))
		slab, _, err := convert(src, out)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		slab.Close()
		want, err := os.ReadFile(strings.TrimSuffix(src, ".bin") + ".v3.bin")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: converted v3 differs from the committed v3 golden", filepath.Base(src))
		}
		converted++
	}
	if converted != 7 {
		t.Errorf("converted %d v2 goldens, want one per kind (7)", converted)
	}
}

// TestConvertPrivTreeGolden runs the converter over the adaptive-kind
// golden fixture: the committed JSON and v3 artifacts must be exact
// conversions of each other, the legacy v2 artifact must convert back to
// the same JSON, and the reopened slab keeps the partial publication
// (pruned adaptive leaves reported as regions).
func TestConvertPrivTreeGolden(t *testing.T) {
	srcJSON := filepath.Join("..", "..", "testdata", "release_privtree.json")
	srcV2 := filepath.Join("..", "..", "testdata", "release_privtree.bin")
	srcBin := filepath.Join("..", "..", "testdata", "release_privtree.v3.bin")
	dir := t.TempDir()

	slab, _, err := convert(srcJSON, filepath.Join(dir, "p.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if slab.Kind() != "privtree" {
		t.Fatalf("kind %q", slab.Kind())
	}
	want, err := os.ReadFile(srcBin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "p.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("converted binary differs from the committed privtree fixture")
	}
	back, _, err := convert(srcV2, filepath.Join(dir, "p.json"))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := slab.NumRegions(), back.NumRegions(); a != b || a == 0 {
		t.Errorf("regions %d vs %d", a, b)
	}
	wantJSON, err := os.ReadFile(srcJSON)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := os.ReadFile(filepath.Join(dir, "p.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("converted JSON differs from the committed privtree fixture")
	}
}

// TestBuildPrivTreeFromCSV drives the tool's build path end-to-end for the
// adaptive kind: skewed CSV points in, a binary release out, reopened and
// queried. This is the datagen -> psdtool -> psdserve artifact shape.
func TestBuildPrivTreeFromCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "pts.csv")
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic skewed cloud: most mass near the origin.
	s := uint64(9)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / float64(1<<53)
	}
	for i := 0; i < 4000; i++ {
		x, y := next()*100, next()*100
		if i%2 == 0 {
			x, y = x*0.1, y*0.1
		}
		fmt.Fprintf(f, "%g,%g\n", x, y)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pts, err := readPoints(csv)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := psd.Build(pts, psd.NewRect(0, 0, 100, 100), psd.Options{
		Kind: psd.PrivTreeKind, MaxDepth: 5, Epsilon: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "roads.bin")
	if _, err := writeRelease(tree, out); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := psd.OpenSlab(g)
	g.Close()
	if err != nil {
		t.Fatal(err)
	}
	q := psd.NewRect(0, 0, 10, 10)
	if got, want := slab.Count(q), tree.Count(q); got != want {
		t.Errorf("reopened count %v, want %v", got, want)
	}
}

// TestWriteRelease pins the -out flag's writer: both encodings (JSON and
// binary v3) open again and answer like the built tree.
func TestWriteRelease(t *testing.T) {
	dom := psd.NewRect(0, 0, 10, 10)
	pts := []psd.Point{{X: 1, Y: 1}, {X: 2, Y: 7}, {X: 8, Y: 3}, {X: 9, Y: 9}}
	tree, err := psd.Build(pts, dom, psd.Options{Height: 2, Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"r.json", "r.bin"} {
		path := filepath.Join(dir, name)
		n, err := writeRelease(tree, path)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("%s: wrote %d bytes", name, n)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		slab, err := psd.OpenSlab(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q := psd.NewRect(0, 0, 5, 5)
		if got, want := slab.Count(q), tree.Count(q); got != want {
			t.Errorf("%s: reopened count %v, want %v", name, got, want)
		}
	}
}

func TestReadPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	content := "# header comment\n1.5,2.5\n\n -3 , 4 \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	pts, err := readPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("read %d points, want 2", len(pts))
	}
	if pts[0] != (psd.Point{X: 1.5, Y: 2.5}) || pts[1] != (psd.Point{X: -3, Y: 4}) {
		t.Errorf("points = %v", pts)
	}

	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(bad); err == nil {
		t.Error("malformed row should error")
	}
	bad2 := filepath.Join(dir, "bad2.csv")
	if err := os.WriteFile(bad2, []byte("x,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(bad2); err == nil {
		t.Error("non-numeric coordinate should error")
	}
	if _, err := readPoints(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}
