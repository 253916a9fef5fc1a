package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"psd"
)

// binaryReleaseBytes serializes a tree's release in binary format v3.
func binaryReleaseBytes(t *testing.T, tree *psd.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.WriteBinaryV3Release(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenFile reads a committed golden release fixture.
func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRegisterBinaryArtifact pins content negotiation on the upload path:
// binary bodies — a v3 artifact written now and the committed v2 golden,
// which nothing writes any more — register exactly like the JSON body of
// the same release, and the served releases answer identically.
func TestRegisterBinaryArtifact(t *testing.T) {
	tree := buildTree(t, 31)
	reg := NewRegistry(64)
	if _, err := reg.Register("json", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	binRel, err := reg.Register("bin", "test", bytes.NewReader(binaryReleaseBytes(t, tree)))
	if err != nil {
		t.Fatalf("registering binary artifact: %v", err)
	}
	goldJSON, err := reg.Register("gold-json", "test", bytes.NewReader(goldenFile(t, "release_quadtree.json")))
	if err != nil {
		t.Fatal(err)
	}
	goldV2, err := reg.Register("gold-v2", "test", bytes.NewReader(goldenFile(t, "release_quadtree.bin")))
	if err != nil {
		t.Fatalf("registering the v2 golden: %v", err)
	}
	if binRel.Slab.Kind() != tree.Kind() || binRel.Slab.Height() != tree.Height() {
		t.Fatalf("binary release metadata = %s h=%d", binRel.Slab.Kind(), binRel.Slab.Height())
	}
	jsonRel, _ := reg.Get("json")
	for _, q := range []psd.Rect{
		psd.NewRect(0, 0, 100, 100),
		psd.NewRect(10, 20, 55, 70),
		psd.NewRect(47, 47, 53, 53),
	} {
		want := tree.Count(q)
		if got, _ := countOf(t, binRel, q); got != want {
			t.Errorf("binary release Count(%v) = %v, want %v", q, got, want)
		}
		if got, _ := countOf(t, jsonRel, q); got != want {
			t.Errorf("json release Count(%v) = %v, want %v", q, got, want)
		}
		gotV2, _ := countOf(t, goldV2, q)
		if wantV2, _ := countOf(t, goldJSON, q); gotV2 != wantV2 {
			t.Errorf("v2 golden Count(%v) = %v, JSON golden %v", q, gotV2, wantV2)
		}
	}

	// Over HTTP too: POST the binary bodies, query them back.
	api := &API{Registry: NewRegistry(64)}
	srv := newTestServer(t, api)
	var info releaseInfo
	postJSON(t, srv.URL+"/v1/releases/roads", binaryReleaseBytes(t, tree), http.StatusCreated, &info)
	if info.Kind != "quadtree" || info.Height != tree.Height() {
		t.Fatalf("binary register info = %+v", info)
	}
	q := psd.NewRect(10, 20, 55, 70)
	var single struct {
		Count float64 `json:"count"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/releases/roads/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &single)
	if want := tree.Count(q); single.Count != want {
		t.Fatalf("served binary count %v, want %v", single.Count, want)
	}
	postJSON(t, srv.URL+"/v1/releases/gold", goldenFile(t, "release_quadtree.bin"), http.StatusCreated, &info)
	getJSON(t, fmt.Sprintf("%s/v1/releases/gold/count?rect=%g,%g,%g,%g",
		srv.URL, q.Lo.X, q.Lo.Y, q.Hi.X, q.Hi.Y), http.StatusOK, &single)
	if want, _ := countOf(t, goldJSON, q); single.Count != want {
		t.Fatalf("served v2 golden count %v, want %v", single.Count, want)
	}

	// Truncated binary bodies must not register, in either binary format.
	for _, bin := range [][]byte{binaryReleaseBytes(t, tree), goldenFile(t, "release_quadtree.bin")} {
		if _, err := api.Registry.Register("trunc", "test", bytes.NewReader(bin[:len(bin)/2])); err == nil {
			t.Fatal("truncated binary artifact registered")
		}
	}
}

// TestScanDirBinary pins watch-directory support for *.bin artifacts
// alongside *.json ones; alpha.bin is the committed v2 golden, so the
// read-only format keeps loading from a watch directory.
func TestScanDirBinary(t *testing.T) {
	dir := t.TempDir()
	treeB := buildTree(t, 34)
	goldJSON, err := psd.OpenSlab(bytes.NewReader(goldenFile(t, "release_quadtree.json")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "alpha.bin"), goldenFile(t, "release_quadtree.bin"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "beta.json"), releaseBytes(t, treeB), 0o644); err != nil {
		t.Fatal(err)
	}
	// Settle the mtimes so the rescan-skip assertions below are about the
	// steady state, not the deliberately-rescanned fresh-mtime window.
	ageFile(t, filepath.Join(dir, "alpha.bin"))
	ageFile(t, filepath.Join(dir, "beta.json"))
	reg := NewRegistry(64)
	loaded, _, err := reg.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("scan loaded %v, want alpha+beta", loaded)
	}
	alpha, ok := reg.Get("alpha")
	if !ok {
		t.Fatal("alpha.bin not registered under its stem")
	}
	q := psd.NewRect(5, 5, 80, 80)
	if got, _ := countOf(t, alpha, q); got != goldJSON.Count(q) {
		t.Fatalf("alpha Count = %v, want %v", got, goldJSON.Count(q))
	}

	// Unchanged .bin files are skipped on rescan, like .json ones.
	_, skipped, err := reg.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 2 {
		t.Fatalf("rescan skipped %v, want both", skipped)
	}

	// A stem collision (alpha.json next to alpha.bin) resolves to the JSON
	// file — and stays stable: the next rescan skips it instead of
	// ping-ponging between the two encodings and wiping the warm cache.
	if err := os.WriteFile(filepath.Join(dir, "alpha.json"), releaseBytes(t, treeB), 0o644); err != nil {
		t.Fatal(err)
	}
	ageFile(t, filepath.Join(dir, "alpha.json"))
	if _, _, err := reg.ScanDir(dir); err != nil {
		t.Fatal(err)
	}
	alpha, _ = reg.Get("alpha")
	if got, _ := countOf(t, alpha, q); got != treeB.Count(q) {
		t.Fatalf("collision winner answered %v, want the JSON artifact's %v", got, treeB.Count(q))
	}
	winner := alpha
	_, skipped, err = reg.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 2 {
		t.Fatalf("collision rescan skipped %v, want both names", skipped)
	}
	if again, _ := reg.Get("alpha"); again != winner {
		t.Fatal("unchanged collision winner was re-registered on rescan")
	}
}

// TestServedFormatsAgree serves the same release once from JSON and once
// from binary and requires bit-identical answers over the full HTTP stack.
func TestServedFormatsAgree(t *testing.T) {
	tree := buildTree(t, 35)
	reg := NewRegistry(0) // cache off: every answer recomputed
	if _, err := reg.Register("j", "test", bytes.NewReader(releaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("b", "test", bytes.NewReader(binaryReleaseBytes(t, tree))); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, &API{Registry: reg})
	rects := [][4]float64{
		{0, 0, 100, 100}, {25, 25, 75, 75}, {10, 60, 90, 95}, {47, 47, 53, 53},
	}
	body, _ := json.Marshal(map[string]any{"rects": rects})
	answers := map[string][]float64{}
	for _, name := range []string{"j", "b"} {
		var out struct {
			Counts []float64 `json:"counts"`
		}
		postJSON(t, srv.URL+"/v1/releases/"+name+"/batch", body, http.StatusOK, &out)
		answers[name] = out.Counts
	}
	for i := range rects {
		if answers["j"][i] != answers["b"][i] {
			t.Fatalf("rect %d: json-served %v, binary-served %v", i, answers["j"][i], answers["b"][i])
		}
	}
}
