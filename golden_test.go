package psd

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"psd/internal/checksum"
)

// Golden release fixtures: one serialized release per Kind at a fixed seed,
// checked byte-for-byte. They pin the on-disk artifact format — a release
// written by an old commit must keep opening (and answering) identically —
// and give cmd/psdserve and CI a stable artifact to serve end-to-end.
// Regenerate the written formats (JSON and v3) with:
//
//	go test . -run TestGolden -update
//
// The v2 fixtures (release_<kind>.bin) are never rewritten: v2 is read-only,
// and those committed bytes are what keeps its reader honest.

var updateGolden = flag.Bool("update", false, "rewrite the JSON and v3 golden release fixtures under testdata/")

// goldenKinds lists every decomposition family with its fixture file name.
var goldenKinds = []struct {
	kind Kind
	name string
}{
	{QuadtreeKind, "quadtree"},
	{KDTree, "kd"},
	{KDHybrid, "kd-hybrid"},
	{HilbertRTree, "hilbert-r"},
	{KDCellTree, "kd-cell"},
	{KDNoisyMeanTree, "kd-noisymean"},
	{PrivTreeKind, "privtree"},
}

// goldenDomain and goldenSeed fix the fixture build inputs.
var goldenDomain = NewRect(0, 0, 100, 100)

const goldenSeed = 4242

func goldenBuild(t *testing.T, kind Kind) *Tree {
	t.Helper()
	pts := clusteredPoints(5000, goldenDomain, 99)
	opts := Options{Kind: kind, Height: 3, Epsilon: 1, Seed: goldenSeed}
	if kind == PrivTreeKind {
		// Deep enough that the adaptive recursion actually stops early in
		// the sparse half, so the fixture pins the pruned + partially
		// published artifact shape, not just a fully split quadtree.
		opts.Height, opts.MaxDepth = 0, 5
	}
	tree, err := Build(pts, goldenDomain, opts)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return tree
}

// goldenQueries is the fixed query set every fixture must answer
// identically through a reopened release.
func goldenQueries() []Rect {
	return []Rect{
		goldenDomain,
		NewRect(0, 0, 50, 50),
		NewRect(25, 25, 75, 75),
		NewRect(10, 60, 90, 95),
		NewRect(47, 47, 53, 53),
		NewRect(0, 0, 12.5, 100),
	}
}

func TestGoldenReleases(t *testing.T) {
	for _, g := range goldenKinds {
		t.Run(g.name, func(t *testing.T) {
			tree := goldenBuild(t, g.kind)
			var buf bytes.Buffer
			if err := tree.WriteRelease(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "release_"+g.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("serialized release differs from %s (%d vs %d bytes); "+
					"if the format change is intentional, regenerate with -update",
					path, buf.Len(), len(golden))
			}

			// The reopened fixture answers the fixed query set exactly as the
			// builder's tree does, and re-serializes byte-identically.
			reopened, err := OpenSlab(bytes.NewReader(golden))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range goldenQueries() {
				if a, b := tree.Count(q), reopened.Count(q); a != b {
					t.Errorf("query %v: built %v, reopened %v", q, a, b)
				}
			}
			var again bytes.Buffer
			if err := reopened.WriteRelease(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), golden) {
				t.Error("reopened release does not re-serialize identically")
			}
		})
	}
}

// TestGoldenBinaryReleases keeps the read-only format v2 honest: every
// committed release_<kind>.bin must decode and answer the golden_queries.json
// rectangles bit-identically — values and CountBatchIntoWorkers statistics — to the
// JSON and v3 fixtures and to the builder's tree, list the same Regions, and
// convert losslessly to both written formats.
func TestGoldenBinaryReleases(t *testing.T) {
	qs := goldenQueryRects(t)
	for _, g := range goldenKinds {
		t.Run(g.name, func(t *testing.T) {
			open := func(suffix string) (*Slab, []byte) {
				t.Helper()
				data, err := os.ReadFile(filepath.Join("testdata", "release_"+g.name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				s, err := OpenSlab(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("%s: %v", suffix, err)
				}
				return s, data
			}
			v2, _ := open(".bin")
			jsonSlab, jsonBytes := open(".json")
			v3, v3Bytes := open(".v3.bin")
			tree := goldenBuild(t, g.kind)

			want := make([]float64, len(qs))
			wantSt := jsonSlab.CountBatchIntoWorkers(want, qs, 0)
			for name, s := range map[string]*Slab{"v2": v2, "v3": v3} {
				got := make([]float64, len(qs))
				if st := s.CountBatchIntoWorkers(got, qs, 0); st != wantSt {
					t.Errorf("%s: batch stats %+v, JSON fixture %+v", name, st, wantSt)
				}
				for i, q := range qs {
					if got[i] != want[i] || s.Count(q) != want[i] {
						t.Errorf("%s: query %v = %v / %v, JSON fixture %v", name, q, got[i], s.Count(q), want[i])
					}
				}
			}
			for i, q := range qs {
				if got := tree.Count(q); got != want[i] {
					t.Errorf("query %v: built %v, JSON fixture %v", q, got, want[i])
				}
			}
			gotR, gotC := v2.Regions()
			for name, s := range map[string]*Slab{"json": jsonSlab, "v3": v3} {
				wantR, wantC := s.Regions()
				if len(gotR) != len(wantR) {
					t.Fatalf("v2 has %d regions, %s fixture %d", len(gotR), name, len(wantR))
				}
				for i := range gotR {
					if gotR[i] != wantR[i] || gotC[i] != wantC[i] {
						t.Fatalf("v2 region %d differs from the %s fixture's", i, name)
					}
				}
			}

			// v2 converts to both written formats byte-identically.
			var toJSON, toV3 bytes.Buffer
			if err := v2.WriteRelease(&toJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(toJSON.Bytes(), jsonBytes) {
				t.Error("v2 fixture does not convert to the JSON fixture byte-identically")
			}
			if err := v2.WriteBinaryV3Release(&toV3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(toV3.Bytes(), v3Bytes) {
				t.Error("v2 fixture does not convert to the v3 fixture byte-identically")
			}
		})
	}
}

// TestGoldenV3Releases pins the record-major binary format v3 the same way:
// one release_<kind>.v3.bin per family, checked byte-for-byte, required to
// answer the fixed query set bit-identically through both read paths — the
// streaming decoder and the zero-copy mmap open — and to convert losslessly
// from the JSON fixture. Regenerate with -update alongside the JSON ones.
func TestGoldenV3Releases(t *testing.T) {
	for _, g := range goldenKinds {
		t.Run(g.name, func(t *testing.T) {
			tree := goldenBuild(t, g.kind)
			var buf bytes.Buffer
			if err := tree.WriteBinaryV3Release(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "release_"+g.name+".v3.bin")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("v3 release differs from %s (%d vs %d bytes); "+
					"if the format change is intentional, regenerate with -update",
					path, buf.Len(), len(golden))
			}

			// Both v3 read paths answer exactly as the builder's tree: the
			// streaming decoder and the mmap open OpenSlabFile prefers.
			decoded, err := OpenSlab(bytes.NewReader(golden))
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenSlabFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if err := mapped.Verify(); err != nil {
				t.Fatalf("Verify on the golden fixture: %v", err)
			}
			// MapSlabFile runs the same pass and fingerprints every byte.
			verified, fp, size, err := MapSlabFile(path)
			if err != nil {
				t.Fatal(err)
			}
			verified.Close()
			if want := checksum.Checksum(golden, checksum.Fingerprint); fp != want || size != int64(len(golden)) {
				t.Errorf("MapSlabFile: fingerprint %016x (%d B), want %016x (%d B)", fp, size, want, len(golden))
			}
			for _, q := range goldenQueries() {
				want := tree.Count(q)
				if got := decoded.Count(q); got != want {
					t.Errorf("query %v: v3 decoded slab %v, built %v", q, got, want)
				}
				if got := mapped.Count(q); got != want {
					t.Errorf("query %v: v3 mmap slab %v, built %v", q, got, want)
				}
			}

			// The JSON fixture converts to this one byte-identically.
			jsonBytes, err := os.ReadFile(filepath.Join("testdata", "release_"+g.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			jsonSlab, err := OpenSlab(bytes.NewReader(jsonBytes))
			if err != nil {
				t.Fatal(err)
			}
			var toV3 bytes.Buffer
			if err := jsonSlab.WriteBinaryV3Release(&toV3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(toV3.Bytes(), golden) {
				t.Error("JSON fixture does not convert to the v3 fixture byte-identically")
			}
		})
	}
}

// goldenQueryFile is the schema of testdata/golden_queries.json: the
// quadtree fixture's fixed queries with their expected answers, consumed by
// the cmd/psdserve end-to-end test and the CI curl check.
type goldenQueryFile struct {
	Release string `json:"release"`
	Queries []struct {
		Rect  [4]float64 `json:"rect"`
		Count float64    `json:"count"`
	} `json:"queries"`
}

// goldenQueryRects reads the query rectangles of testdata/golden_queries.json.
func goldenQueryRects(t *testing.T) []Rect {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_queries.json"))
	if err != nil {
		t.Fatal(err)
	}
	var in goldenQueryFile
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	qs := make([]Rect, len(in.Queries))
	for i, q := range in.Queries {
		qs[i] = NewRect(q.Rect[0], q.Rect[1], q.Rect[2], q.Rect[3])
	}
	return qs
}

func TestGoldenQueryAnswers(t *testing.T) {
	path := filepath.Join("testdata", "golden_queries.json")
	tree := goldenBuild(t, QuadtreeKind)
	if *updateGolden {
		var out goldenQueryFile
		out.Release = "quadtree"
		for _, q := range goldenQueries() {
			out.Queries = append(out.Queries, struct {
				Rect  [4]float64 `json:"rect"`
				Count float64    `json:"count"`
			}{
				Rect:  [4]float64{q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y},
				Count: tree.Count(q),
			})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	var in goldenQueryFile
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	if in.Release != "quadtree" || len(in.Queries) != len(goldenQueries()) {
		t.Fatalf("unexpected fixture shape: %q, %d queries", in.Release, len(in.Queries))
	}
	for i, q := range in.Queries {
		r := NewRect(q.Rect[0], q.Rect[1], q.Rect[2], q.Rect[3])
		if got := tree.Count(r); got != q.Count {
			t.Errorf("query %d %v: count %v, fixture %v", i, r, got, q.Count)
		}
	}
}

// TestMapSlabFileErrors pins MapSlabFile's three outcomes besides success:
// an artifact it cannot map (JSON) gives a nil slab and no error, so the
// caller decodes it instead; a missing file is an *os.PathError; a mapped
// v3 artifact with a corrupt body is a verification error.
func TestMapSlabFileErrors(t *testing.T) {
	dir := t.TempDir()
	if s, _, _, err := MapSlabFile(filepath.Join("testdata", "release_quadtree.json")); s != nil || err != nil {
		t.Errorf("JSON artifact: slab %v, err %v; want neither", s, err)
	}
	var pe *os.PathError
	if _, _, _, err := MapSlabFile(filepath.Join(dir, "missing.bin")); !errors.As(err, &pe) {
		t.Errorf("missing file: err = %v, want an *os.PathError", err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "release_quadtree.v3.bin"))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-32] ^= 1 // a byte under the footer checksum
	corrupt := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, _, err := MapSlabFile(corrupt); s != nil || err == nil || errors.As(err, &pe) {
		t.Errorf("corrupt v3 body: slab %v, err %v; want a verification error", s, err)
	}
}
