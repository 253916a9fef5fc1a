package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psd/internal/budget"
	"psd/internal/geom"
)

// v3Bytes serializes a built PSD's release in format v3.
func v3Bytes(t *testing.T, p *PSD) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.Release().WriteBinaryV3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteBinaryV3 reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// writeTempArtifact puts raw bytes on disk for the mmap open path.
func writeTempArtifact(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "release.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBinaryV3RoundTrip pins the canonical-encoding property for format v3
// across every family: decode(encode(release)) re-encodes byte-identically,
// answers exactly as the source tree, and converts to the v2 and JSON
// encodings identically to a direct serialization.
func TestBinaryV3RoundTrip(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 61)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw := v3Bytes(t, p)
		if len(raw)%v3Align != v3FooterSize {
			t.Errorf("%v: v3 artifact is %d bytes; sections are 64-aligned so size mod 64 must be the footer", cfg.Kind, len(raw))
		}
		slab, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%v: ReadBinary(v3): %v", cfg.Kind, err)
		}
		var again bytes.Buffer
		if _, err := slab.WriteBinaryV3(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again.Bytes()) {
			t.Errorf("%v: v3 round trip differs (%d vs %d bytes)", cfg.Kind, len(raw), again.Len())
		}
		for _, q := range slabTestQueries(dom) {
			if got, want := slab.Query(q), p.Sealed().Query(q); got != want {
				t.Errorf("%v: v3 slab Query(%v) = %v, want %v", cfg.Kind, q, got, want)
			}
		}
		// The v2 and v3 encodings carry the same artifact: the v3-decoded
		// slab re-encodes as v2 exactly like the source tree.
		if !bytes.Equal(encodeV2(p.Sealed()), encodeV2(slab)) {
			t.Errorf("%v: v3->v2 conversion differs from direct v2 encoding", cfg.Kind)
		}
	}
}

// TestReadBinaryRejectsTrailingGarbage pins the satellite bugfix: a valid
// artifact followed by extra bytes is not a valid artifact. Both binary
// decoders must read one byte past their end and require io.EOF.
func TestReadBinaryRejectsTrailingGarbage(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 81)
	p, err := Build(pts, dom, Config{Kind: Hybrid, Height: 3, Epsilon: 1, Seed: 82, PostProcess: true, PruneThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"v2": encodeV2(p.Sealed()), "v3": v3Bytes(t, p)} {
		if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: clean artifact must decode: %v", name, err)
		}
		for _, trailer := range [][]byte{{0}, {0xff}, []byte("PSD2"), bytes.Repeat([]byte{7}, 1024)} {
			tainted := append(append([]byte{}, raw...), trailer...)
			_, err := ReadBinary(bytes.NewReader(tainted))
			if err == nil {
				t.Fatalf("%s: ReadBinary accepted %d trailing bytes", name, len(trailer))
			}
			if !strings.Contains(err.Error(), "trailing") {
				t.Errorf("%s: trailing-garbage error %q does not name the cause", name, err)
			}
		}
	}
}

// errInjected is the destination failure the failing-writer tests inject.
var errInjected = errors.New("injected write failure")

// failAfterWriter accepts exactly limit bytes, then fails — the
// faultfs-style error-after-N-bytes destination. n is ground truth for how
// many bytes actually arrived.
type failAfterWriter struct {
	limit int
	n     int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n >= w.limit {
		return 0, errInjected
	}
	k := min(len(p), w.limit-w.n)
	w.n += k
	if k < len(p) {
		return k, errInjected
	}
	return k, nil
}

// shortWriter accepts one byte less than offered and reports no error — the
// io.Writer contract violation bufio silently tolerates mid-stream.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:len(p)-1]
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteBinaryCountsDestinationBytes pins the satellite bugfix: the n the
// binary encoder returns is exactly the bytes the destination accepted —
// never inflated by bytes parked in an intermediate buffer — across fault
// offsets landing inside every section and on chunk boundaries.
func TestWriteBinaryCountsDestinationBytes(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(4096, dom, 83)
	// Height 6 is ~5.5k nodes, ~220KB per artifact: several 64KB chunks, so
	// faults land both inside and between destination writes.
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 6, Epsilon: 0.5, Seed: 84, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	encode := p.Sealed().WriteBinaryV3
	var ref bytes.Buffer
	n, err := encode(&ref)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Len()
	if n != int64(total) {
		t.Fatalf("clean encode reported %d bytes, wrote %d", n, total)
	}
	limits := []int{
		0, 1, 55, 56, 1000,
		artifactChunk - 1, artifactChunk, artifactChunk + 1,
		2 * artifactChunk, 3*artifactChunk + 7,
		total / 2, total - 1,
	}
	for _, limit := range limits {
		fw := &failAfterWriter{limit: limit}
		n, err := encode(fw)
		if err == nil {
			t.Fatalf("limit %d of %d: encoder reported success against a failing destination", limit, total)
		}
		if !errors.Is(err, errInjected) {
			t.Errorf("limit %d: error %v does not wrap the destination failure", limit, err)
		}
		if n != int64(fw.n) {
			t.Errorf("limit %d: encoder reported %d bytes, destination accepted %d", limit, n, fw.n)
		}
		if fw.n > limit {
			t.Errorf("limit %d: destination accepted %d bytes past its limit?", limit, fw.n)
		}
	}
	// A destination that under-accepts without erroring must surface as
	// io.ErrShortWrite with the true delivered count, not spin or succeed.
	sw := &shortWriter{}
	n, err = encode(sw)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("short-writing destination: got error %v, want io.ErrShortWrite", err)
	}
	if n != int64(sw.n) {
		t.Errorf("short write: encoder reported %d bytes, destination accepted %d", n, sw.n)
	}
}

// prunedSlab builds a heavily-pruned adaptive release for the prunedIndices
// guards: PrivTree over clustered-ish data prunes most of a deep arena.
func prunedSlab(tb testing.TB, height int) *Slab {
	tb.Helper()
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(2048, dom, 91)
	p, err := Build(pts, dom, Config{Kind: PrivTree, Height: height, Epsilon: 0.5, Seed: 92})
	if err != nil {
		tb.Fatal(err)
	}
	return p.Sealed()
}

// TestPrunedIndicesAllocs pins the satellite fix: the pruned list is sized
// from a popcount up front, so building it costs exactly one allocation (or
// none when nothing is pruned), however many subtrees were pruned.
func TestPrunedIndicesAllocs(t *testing.T) {
	s := prunedSlab(t, 6)
	idx := s.prunedIndices()
	if len(idx) == 0 {
		t.Fatal("fixture pruned nothing; pick a prunier config")
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("pruned indices not strictly ascending at %d: %d then %d", i, idx[i-1], idx[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() { s.prunedIndices() })
	if allocs > 1 {
		t.Errorf("prunedIndices cost %.1f allocs per run, want at most 1 (pre-sized from popcount)", allocs)
	}
}

// BenchmarkPrunedIndices guards the popcount-presized bit iteration on a
// deep, mostly-pruned adaptive slab — the shape Slab.Release hits on every
// JSON write of a PrivTree release.
func BenchmarkPrunedIndices(b *testing.B) {
	s := prunedSlab(b, 8)
	idx := s.prunedIndices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.prunedIndices(); len(got) != len(idx) {
			b.Fatalf("pruned count changed: %d vs %d", len(got), len(idx))
		}
	}
}

// TestCrossFormatEquivalence is the three-way read-path pin: the same
// release decoded from v2, decoded from v3, and mmap'd from v3 must be
// bit-identical under Query, QueryWithStats, CountBatchInto (answers AND
// traversal statistics), and LeafRegions.
func TestCrossFormatEquivalence(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 71)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slabs := map[string]*Slab{}
		v2, err := ReadBinary(bytes.NewReader(encodeV2(p.Sealed())))
		if err != nil {
			t.Fatalf("%v: v2 decode: %v", cfg.Kind, err)
		}
		slabs["v2-decode"] = v2
		raw3 := v3Bytes(t, p)
		v3, err := ReadBinary(bytes.NewReader(raw3))
		if err != nil {
			t.Fatalf("%v: v3 decode: %v", cfg.Kind, err)
		}
		slabs["v3-decode"] = v3
		if mmapSupported && hostLittleEndian() {
			mm, err := OpenSlabMmap(writeTempArtifact(t, raw3))
			if err != nil {
				t.Fatalf("%v: OpenSlabMmap: %v", cfg.Kind, err)
			}
			defer mm.Close()
			if err := mm.Verify(); err != nil {
				t.Fatalf("%v: Verify on a clean mapping: %v", cfg.Kind, err)
			}
			slabs["v3-mmap"] = mm
		}

		ref := p.Sealed()
		qs := slabTestQueries(dom)
		wantOut := make([]float64, len(qs))
		wantSt := ref.CountBatchInto(wantOut, qs, 1)
		wantRects, wantCounts := ref.LeafRegions()
		for name, s := range slabs {
			for _, q := range qs {
				wv, wst := ref.QueryWithStats(q)
				gv, gst := s.QueryWithStats(q)
				if gv != wv || gst != wst {
					t.Errorf("%v/%s: QueryWithStats(%v) = (%v, %+v), want (%v, %+v)",
						cfg.Kind, name, q, gv, gst, wv, wst)
				}
			}
			for _, workers := range []int{1, 3} {
				out := make([]float64, len(qs))
				st := s.CountBatchInto(out, qs, workers)
				if st != wantSt {
					t.Errorf("%v/%s: batch stats %+v, want %+v", cfg.Kind, name, st, wantSt)
				}
				for i := range out {
					if out[i] != wantOut[i] {
						t.Errorf("%v/%s: CountBatch[%d] = %v, want %v", cfg.Kind, name, i, out[i], wantOut[i])
					}
				}
			}
			rects, counts := s.LeafRegions()
			if len(rects) != len(wantRects) {
				t.Errorf("%v/%s: %d leaf regions, want %d", cfg.Kind, name, len(rects), len(wantRects))
				continue
			}
			for i := range rects {
				if rects[i] != wantRects[i] || counts[i] != wantCounts[i] {
					t.Errorf("%v/%s: leaf region %d = (%v, %v), want (%v, %v)",
						cfg.Kind, name, i, rects[i], counts[i], wantRects[i], wantCounts[i])
				}
			}
		}
	}
}

// TestSlabClose pins the lifecycle contract for both construction paths:
// Close is idempotent, and any use after Close panics with a clear message
// — never a SIGBUS against unmapped pages or a nil-slice misanswer.
func TestSlabClose(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 41)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 42, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	raw := v3Bytes(t, p)

	open := map[string]func(t *testing.T) *Slab{
		"decoded": func(t *testing.T) *Slab {
			s, err := ReadBinary(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	if mmapSupported && hostLittleEndian() {
		open["mmap"] = func(t *testing.T) *Slab {
			s, err := OpenSlabMmap(writeTempArtifact(t, raw))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	q := geom.NewRect(10, 10, 50, 50)
	for name, openSlab := range open {
		t.Run(name, func(t *testing.T) {
			s := openSlab(t)
			want := p.Sealed().Query(q)
			if got := s.Query(q); got != want {
				t.Fatalf("pre-Close Query = %v, want %v", got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			uses := map[string]func(){
				"Query":          func() { s.Query(q) },
				"QueryWithStats": func() { s.QueryWithStats(q) },
				"CountBatchInto": func() { s.CountBatchInto(make([]float64, 1), []geom.Rect{q}, 1) },
				"LeafRegions":    func() { s.LeafRegions() },
				"Verify":         func() { s.Verify() },
				"WriteBinaryV3":  func() { s.WriteBinaryV3(io.Discard) },
			}
			for use, call := range uses {
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Errorf("%s after Close did not panic", use)
							return
						}
						if !strings.Contains(fmt.Sprint(r), "after Close") {
							t.Errorf("%s after Close panicked with %v, want a use-after-Close message", use, r)
						}
					}()
					call()
				}()
			}
		})
	}
}

// patchV3CRC recomputes the footer checksum over a (deliberately mutated)
// v3 body, so corruption tests reach the check they target instead of
// tripping the checksum first.
func patchV3CRC(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	body := out[:len(out)-v3FooterSize]
	binary.LittleEndian.PutUint64(out[len(body):], crc64.Checksum(body, v3CRCTable))
	return out
}

// TestReadBinaryV3RejectsMalformed drives the v3 decoder through the
// corruption classes the format claims to catch — and pins which of them the
// instant mmap open defers to Verify.
func TestReadBinaryV3RejectsMalformed(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(512, dom, 91)
	// Leaf-only budget: unpublished interior nodes, so the canonical
	// zero-count rule has teeth.
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, Epsilon: 1, Seed: 92, Strategy: budget.LeafOnly{}})
	if err != nil {
		t.Fatal(err)
	}
	raw := v3Bytes(t, p)
	const nodes = 21 // (4^3-1)/3 for height 2
	lay := v3LayoutFor(nodes)

	cases := map[string][]byte{
		"empty":               {},
		"magic only":          raw[:4],
		"truncated header":    raw[:v3HeaderSize-1],
		"bad version":         corrupt(raw, 4, 9),
		"bad kind":            corrupt(raw, 5, 200),
		"bad fanout":          corrupt(raw, 6, 3),
		"huge height":         corrupt(raw, 7, 99),
		"negative epsilon":    putF64(raw, 8, -1),
		"NaN domain":          putF64(raw, 16, math.NaN()),
		"node count mismatch": corrupt(raw, 48, 1, 0, 0, 0),
		"pruned overflow":     corrupt(raw, 52, 0xff, 0xff, 0xff, 0x7f),
		"reserved header":     corrupt(raw, 56, 1),
		"flipped record bit":  corrupt(raw, int(lay.recordsOff)+3, raw[lay.recordsOff+3]^0x40),
		"flipped bitset bit":  corrupt(raw, int(lay.usableOff), raw[lay.usableOff]^0x02),
		"corrupt checksum":    corrupt(raw, int(lay.footerOff), raw[lay.footerOff]^1),
		"bad footer magic":    corrupt(raw, int(lay.footerOff)+8, 'X'),
		"trailing byte":       append(append([]byte{}, raw...), 0),
		// CRC-consistent mutations: the checksum is honest but the canonical
		// encoding is violated, so the structural checks must fire.
		"nonzero pad":              patchV3CRC(corrupt(raw, int(lay.recordsEnd), 1)),
		"published tail bits":      patchV3CRC(corrupt(raw, int(lay.usableOff)+8*(nodes/64), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)),
		"pruned popcount mismatch": patchV3CRC(corrupt(raw, int(lay.prunedOff), raw[lay.prunedOff]^0x01)),
		"poisoned unpublished count": patchV3CRC(
			putF64(raw, int(lay.recordsOff)+4*8, 12345)), // root count slot; root unpublished under leaf-only
		"NaN rect": patchV3CRC(putF64(raw, int(lay.recordsOff), math.NaN())),
	}
	// Truncations at (and one byte into) every section boundary.
	for name, cut := range map[string]int64{
		"records": lay.recordsEnd, "published": lay.usableOff + lay.bitsetLen,
		"pruned": lay.prunedOff + lay.bitsetLen, "footer": lay.footerOff,
	} {
		cases["truncated at "+name] = raw[:cut]
		cases["truncated inside "+name] = raw[:cut-1]
	}
	cases["one byte shy"] = raw[:len(raw)-1]

	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: streaming v3 decoder accepted malformed input", name)
		}
	}
	if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
		t.Fatalf("clean fixture must decode: %v", err)
	}

	if !mmapSupported || !hostLittleEndian() {
		t.Skip("no mmap on this platform; deferred-verify split not applicable")
	}
	// The mmap open validates shape instantly and defers body checks: a
	// flipped record byte opens fine but must be caught by Verify.
	for name, data := range map[string][]byte{
		"flipped record bit":         cases["flipped record bit"],
		"flipped bitset bit":         cases["flipped bitset bit"],
		"nonzero pad":                cases["nonzero pad"],
		"bad footer magic":           cases["bad footer magic"],
		"poisoned unpublished count": cases["poisoned unpublished count"],
	} {
		s, err := OpenSlabMmap(writeTempArtifact(t, data))
		if err != nil {
			t.Errorf("%s: mmap open is shape-only and should defer this to Verify: %v", name, err)
			continue
		}
		if err := s.Verify(); err == nil {
			t.Errorf("%s: Verify accepted a corrupt mapping", name)
		}
		s.Close()
	}
	// Shape-level corruption fails at open, before any deferred pass.
	for name, data := range map[string][]byte{
		"bad kind":            cases["bad kind"],
		"node count mismatch": cases["node count mismatch"],
		"trailing byte":       cases["trailing byte"],
		"one byte shy":        cases["one byte shy"],
	} {
		if s, err := OpenSlabMmap(writeTempArtifact(t, data)); err == nil {
			s.Close()
			t.Errorf("%s: OpenSlabMmap accepted malformed input", name)
		}
	}
}
