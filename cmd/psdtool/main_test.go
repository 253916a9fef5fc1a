package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"psd"
	"psd/internal/checksum"
	"psd/internal/ingest"
	"psd/internal/serve"
	"psd/internal/serve/faultfs"
)

// TestMain lets a test run the psdtool binary itself: with
// PSDTOOL_RUN_MAIN=1 the test binary is psdtool (see runTool).
func TestMain(m *testing.M) {
	if os.Getenv("PSDTOOL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTool runs psdtool with args and returns what it printed.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PSDTOOL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("psdtool %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// appliesUnder reports whether a manifest pinning path to fingerprint fp
// applies on a fresh replica over fsys (nil: the real filesystem, where a
// v3 artifact is mapped; faultfs: the reader path).
func appliesUnder(fsys serve.FS, path, fp string) error {
	reg := serve.NewRegistry(0)
	if fsys != nil {
		reg.SetFS(fsys)
	}
	return reg.ApplyManifest(serve.Manifest{Version: "m", Releases: []serve.ManifestEntry{
		{Name: "r", Path: path, Fingerprint: fp}}})
}

var printedFingerprint = regexp.MustCompile(`\(\d+ bytes\) fingerprint ([0-9a-f]{16})\n$`)

// TestPrintedFingerprintApplies drives the real command: the fingerprint
// that -out and convert print at the end of their summary line is the pin
// a rollout manifest needs — ApplyManifest accepts it for that file on
// both load paths.
func TestPrintedFingerprintApplies(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "pts.csv")
	if err := os.WriteFile(csv, []byte("1,1\n2,7\n8,3\n9,9\n5,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		out  string
		args []string
	}{
		{"built.bin", []string{"-data", csv, "-kind", "kd", "-height", "3"}},
		{"built.json", []string{"-data", csv, "-kind", "kd", "-height", "3"}},
		{"priv.bin", []string{"convert", "-in", filepath.Join("..", "..", "testdata", "release_privtree.v3.bin")}},
		{"quad.bin", []string{"convert", "-in", filepath.Join("..", "..", "testdata", "release_quadtree.json")}},
	} {
		path := filepath.Join(dir, tc.out)
		printed := runTool(t, append(tc.args, "-out", path)...)
		m := printedFingerprint.FindStringSubmatch(printed)
		if m == nil {
			t.Fatalf("%s: no trailing fingerprint in %q", tc.out, printed)
		}
		for _, fsys := range []serve.FS{nil, faultfs.New()} {
			if err := appliesUnder(fsys, path, m[1]); err != nil {
				t.Errorf("%s: manifest pinning the printed %s refused: %v", tc.out, m[1], err)
			}
		}
	}
}

// TestFingerprintOneIdentity pins the artifact identity across every path
// that computes it. Over 7 kinds × heights {0, 2, 4} × {JSON, v3}, every
// artifact gets a distinct fingerprint, and one artifact gets the same
// fingerprint from psdtool's writer, the definition over the file's bytes,
// the mmap Verify pass, the serving registry's mmap and reader load paths
// (a manifest pinning it applies), and — for the v3 artifact the ingest
// tier publishes, checked on two kinds — ingest publish and
// Ingester.Verify.
func TestFingerprintOneIdentity(t *testing.T) {
	kinds := []psd.Kind{psd.QuadtreeKind, psd.KDTree, psd.KDHybrid, psd.HilbertRTree,
		psd.KDCellTree, psd.KDNoisyMeanTree, psd.PrivTreeKind}
	dom := psd.NewRect(0, 0, 1, 1)
	pts := make([]psd.Point, 400)
	for i := range pts {
		pts[i] = psd.Point{X: float64(i*37%100)/100 + 0.005, Y: float64(i*61%100)/100 + 0.0025}
	}
	dir := t.TempDir()
	seen := make(map[uint64]string)
	for _, kind := range kinds {
		for _, height := range []int{0, 2, 4} {
			name := fmt.Sprintf("%v-h%d", kind, height)
			tree, err := psd.Build(pts, dom, psd.Options{Kind: kind, Height: height, Seed: 7, Epsilon: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, ext := range []string{".json", ".bin"} {
				path := filepath.Join(dir, name+ext)
				_, fp, err := writeRelease(tree, path)
				if err != nil {
					t.Fatal(err)
				}
				if other, dup := seen[fp]; dup {
					t.Fatalf("%s%s and %s share fingerprint %016x", name, ext, other, fp)
				}
				seen[fp] = name + ext
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := checksum.Checksum(data, checksum.Fingerprint); got != fp {
					t.Errorf("%s%s: psdtool printed %016x, the bytes fingerprint %016x", name, ext, fp, got)
				}
				for _, fsys := range []serve.FS{nil, faultfs.New()} {
					if err := appliesUnder(fsys, path, checksum.FormatFingerprint(fp)); err != nil {
						t.Errorf("%s%s: %v", name, ext, err)
					}
				}
				if ext != ".bin" {
					continue
				}
				slab, mfp, size, err := psd.MapSlabFile(path)
				if err != nil {
					t.Fatalf("%s: MapSlabFile: %v", name, err)
				}
				slab.Close()
				if mfp != fp || size != int64(len(data)) {
					t.Errorf("%s: mmap Verify fingerprint %016x (%d B), want %016x (%d B)", name, mfp, size, fp, len(data))
				}
			}
		}
	}
	if len(seen) != 42 {
		t.Fatalf("%d distinct fingerprints, want 42", len(seen))
	}

	// Ingest publish and Ingester.Verify give the same value as psdtool,
	// and the /publish value goes into a manifest as it is. Two kinds
	// cover the path; every kind shares the writer checked above.
	for _, opts := range []psd.Options{{Kind: psd.QuadtreeKind, Height: 4}, {Kind: psd.PrivTreeKind, Height: 2}} {
		name := fmt.Sprintf("ingest-%v", opts.Kind)
		in, err := ingest.Open(ingest.Config{
			Name: "t", StateDir: filepath.Join(dir, name, "state"), PublishDir: filepath.Join(dir, name, "pub"),
			Domain: dom, Build: opts, EpochEpsilon: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Ingest(pts); err != nil {
			t.Fatal(err)
		}
		pub, err := in.Publish(ingest.TriggerManual)
		if err != nil {
			t.Fatalf("%s: publish: %v", name, err)
		}
		checks, err := in.Verify()
		in.Close()
		if err != nil || len(checks) != 1 || !checks[0].OK {
			t.Fatalf("%s: ingest verify %+v, %v", name, checks, err)
		}
		for _, fsys := range []serve.FS{nil, faultfs.New()} {
			if err := appliesUnder(fsys, pub.Path, pub.CRC64); err != nil {
				t.Errorf("%s: manifest pinning the published crc64: %v", name, err)
			}
		}
		opts.Seed, opts.Epsilon = pub.Seed, pub.Eps
		tree, err := psd.Build(pts, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, fp, err := writeRelease(tree, filepath.Join(dir, name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if hex := checksum.FormatFingerprint(fp); pub.CRC64 != hex || checks[0].ArtifactCRC != hex || checks[0].RebuiltCRC != hex {
			t.Errorf("%s: publish %s, verify artifact %s / rebuilt %s; psdtool %s",
				name, pub.CRC64, checks[0].ArtifactCRC, checks[0].RebuiltCRC, hex)
		}
	}
}

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

	slab1, n, _, err := convert(src, binPath)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("convert wrote %d bytes", n)
	}
	slab2, _, _, err := convert(binPath, jsonPath)
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

	if _, _, _, err := convert(filepath.Join(dir, "missing.json"), binPath); err == nil {
		t.Error("convert of a missing file should error")
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := convert(junk, binPath); err == nil {
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

	slabV3, n, _, err := convert(src, v3Path)
	if err != nil {
		t.Fatal(err)
	}
	if n%64 != 16 { // sections are 64-aligned; the 16-byte footer ends the file
		t.Errorf("v3 artifact is %d bytes; want 64-aligned body + 16-byte footer", n)
	}
	back, _, _, err := convert(v3Path, jsonPath)
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
		slab, _, _, err := convert(src, out)
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

	slab, _, _, err := convert(srcJSON, filepath.Join(dir, "p.bin"))
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
	back, _, _, err := convert(srcV2, filepath.Join(dir, "p.json"))
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
	if _, _, err := writeRelease(tree, out); err != nil {
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
		n, _, err := writeRelease(tree, path)
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
