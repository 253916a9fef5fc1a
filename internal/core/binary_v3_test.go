package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"psd/internal/budget"
	"psd/internal/checksum"
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
	// faults land both inside and between destination writes, and the
	// writer runs its pipeline on more than one core.
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
	// The header is one destination write, then each chunk of records.
	chunk := v3HeaderSize + v3ChunkBytes
	limits := []int{
		0, 1, 55, 56, 63, 64, 65, 1000,
		chunk - 1, chunk, chunk + 1,
		chunk + v3ChunkBytes, 3*v3ChunkBytes + 7,
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
			if _, err := mm.Verify(); err != nil {
				t.Fatalf("%v: Verify on a clean mapping: %v", cfg.Kind, err)
			}
			slabs["v3-mmap"] = mm
		}

		ref := p.Sealed()
		qs := slabTestQueries(dom)
		wantOut := make([]float64, len(qs))
		wantSt := batchInto(t, ref, wantOut, qs, 1)
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
				st := batchInto(t, s, out, qs, workers)
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
				"CountBatchInto": func() { s.CountBatchInto(context.Background(), make([]float64, 1), []geom.Rect{q}, 1) },
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
	binary.LittleEndian.PutUint64(out[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	return out
}

// TestReadBinaryV3RejectsMalformed drives the v3 decoder through the
// corruption classes the format claims to catch, pinning each error
// message — and pins which of them the instant mmap open defers to Verify,
// which must report exactly what the streaming decoder reports.
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

	// A checksum mismatch names the footer's value and the body's CRC-64,
	// here taken with hash/crc64 as an independent reference.
	mismatch := func(data []byte) string {
		return fmt.Sprintf("core: binary release checksum mismatch: footer %#x, body %#x",
			binary.LittleEndian.Uint64(data[lay.footerOff:]),
			crc64.Checksum(data[:lay.footerOff], crc64.MakeTable(crc64.ECMA)))
	}
	want := map[string]string{
		"empty":                      "core: reading binary release header: EOF",
		"magic only":                 "core: reading binary release header: EOF",
		"truncated header":           "core: reading binary release header: unexpected EOF",
		"bad version":                "core: unsupported binary release version 9",
		"bad kind":                   "core: unknown kind 200 in binary release",
		"bad fanout":                 "core: unsupported fanout 3",
		"huge height":                "core: release height 99 outside [0,13]",
		"negative epsilon":           "core: invalid release epsilon -1",
		"NaN domain":                 "core: release domain [NaN 0 64 64] is not finite",
		"node count mismatch":        "core: binary release declares 1 nodes for a 21-node tree",
		"pruned overflow":            "core: binary release declares 2147483647 pruned nodes of 21",
		"reserved header":            "core: binary release has non-zero reserved header bytes",
		"flipped record bit":         mismatch(cases["flipped record bit"]),
		"flipped bitset bit":         mismatch(cases["flipped bitset bit"]),
		"corrupt checksum":           mismatch(cases["corrupt checksum"]),
		"bad footer magic":           `core: bad footer magic "XSD3END\x00" in binary release`,
		"trailing byte":              "core: binary release has trailing bytes past its end",
		"nonzero pad":                "core: binary release has non-zero section padding",
		"published tail bits":        "core: binary release has published bits beyond node 20",
		"pruned popcount mismatch":   "core: binary release declares 0 pruned nodes but marks 1",
		"poisoned unpublished count": "core: release node 0 is unpublished but has a non-zero count slot",
		"NaN rect":                   "core: release node 0 has non-finite rect",
		"truncated at records":       "core: reading binary release padding: EOF",
		"truncated inside records":   "core: reading binary release records: unexpected EOF",
		"truncated at published":     "core: reading binary release padding: EOF",
		"truncated inside published": "core: reading binary release published bitset: unexpected EOF",
		"truncated at pruned":        "core: reading binary release padding: EOF",
		"truncated inside pruned":    "core: reading binary release pruned bitset: unexpected EOF",
		"truncated at footer":        "core: reading binary release footer: EOF",
		"truncated inside footer":    "core: reading binary release padding: unexpected EOF",
		"one byte shy":               "core: reading binary release footer: unexpected EOF",
	}
	if len(want) != len(cases) {
		t.Fatalf("%d pinned messages for %d cases", len(want), len(cases))
	}
	for name, data := range cases {
		_, err := ReadBinary(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: streaming v3 decoder accepted malformed input", name)
		} else if err.Error() != want[name] {
			t.Errorf("%s: streaming v3 decoder says %q, want %q", name, err, want[name])
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
		if _, err := s.Verify(); err == nil {
			t.Errorf("%s: Verify accepted a corrupt mapping", name)
		} else if err.Error() != want[name] {
			t.Errorf("%s: Verify says %q, want %q", name, err, want[name])
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
		path := writeTempArtifact(t, data)
		s, err := OpenSlabMmap(path)
		if err == nil {
			s.Close()
			t.Errorf("%s: OpenSlabMmap accepted malformed input", name)
			continue
		}
		wantOpen := "core: " + path + ": " + want[name]
		if name == "trailing byte" || name == "one byte shy" {
			wantOpen = fmt.Sprintf("core: %s: core: binary release is %d bytes, v3 layout requires %d", path, len(data), lay.size)
		}
		if err.Error() != wantOpen {
			t.Errorf("%s: OpenSlabMmap says %q, want %q", name, err, wantOpen)
		}
	}
}

// TestPSDWriteBinaryV3MatchesRelease pins the direct encoder: writing a
// built PSD's v3 artifact straight from the arena yields exactly the bytes
// of the detour through the JSON-shaped release, for every family —
// pruned, adaptive (PrivTree) and unpublished levels included.
func TestPSDWriteBinaryV3MatchesRelease(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 63)
	cfgs := append(slabTestConfigs(),
		Config{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 64, Strategy: budget.LeafOnly{}},
		Config{Kind: Quadtree, Height: 0, Epsilon: 1, Seed: 65},
	)
	for _, cfg := range cfgs {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := v3Bytes(t, p)
		var buf bytes.Buffer
		n, err := p.WriteBinaryV3(&buf)
		if err != nil {
			t.Fatalf("%v h=%d: %v", cfg.Kind, cfg.Height, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("%v h=%d: WriteBinaryV3 reported %d bytes, wrote %d", cfg.Kind, cfg.Height, n, buf.Len())
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v h=%d: direct v3 encoding differs from the release detour", cfg.Kind, cfg.Height)
		}
	}
}

// TestPSDWriteBinaryV3Validates pins that the direct encoder keeps every
// check the release detour made, and fails before writing a byte.
func TestPSDWriteBinaryV3Validates(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(512, dom, 66)
	cases := map[string]func(p *PSD){
		"NaN rect":           func(p *PSD) { p.arena.Nodes[3].Rect.Lo.X = math.NaN() },
		"infinite rect":      func(p *PSD) { p.arena.Nodes[7].Rect.Hi.Y = math.Inf(1) },
		"inverted rect":      func(p *PSD) { r := &p.arena.Nodes[5].Rect; r.Lo.X, r.Hi.X = r.Hi.X, r.Lo.X-1 },
		"NaN published est":  func(p *PSD) { p.arena.Nodes[9].Est = math.NaN() },
		"infinite published": func(p *PSD) { p.arena.Nodes[0].Est = math.Inf(-1) },
		"NaN domain":         func(p *PSD) { p.domain.Hi.X = math.NaN() },
		"empty domain":       func(p *PSD) { p.domain.Hi.Y = p.domain.Lo.Y },
	}
	for name, mutate := range cases {
		p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, Epsilon: 1, Seed: 67, PostProcess: true})
		if err != nil {
			t.Fatal(err)
		}
		mutate(p)
		if _, err := p.Release().WriteBinaryV3(io.Discard); err == nil {
			t.Fatalf("%s: the release detour accepted it; the case tests nothing", name)
		}
		var buf bytes.Buffer
		if _, err := p.WriteBinaryV3(&buf); err == nil {
			t.Errorf("%s: direct v3 encoding accepted an invalid release", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the validation error", name, buf.Len())
		}
	}

	// An unpublished node's count is never released, so a non-finite
	// working estimate there is no error (the slot is written as zero).
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, Epsilon: 1, Seed: 68, Strategy: budget.LeafOnly{}})
	if err != nil {
		t.Fatal(err)
	}
	want := v3Bytes(t, p)
	p.arena.Nodes[0].Est = math.NaN()
	var buf bytes.Buffer
	if _, err := p.WriteBinaryV3(&buf); err != nil {
		t.Fatalf("unpublished NaN estimate: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("an unpublished estimate leaked into the artifact")
	}
}

// verifyFixture is a mapped v3 artifact spanning several Verify chunks:
// an h=6 quadtree has 5461 nodes, so its last chunk starts at node 4800.
func verifyFixture(t *testing.T) []byte {
	t.Helper()
	if !mmapSupported || !hostLittleEndian() {
		t.Skip("no mmap on this platform")
	}
	dom := geom.NewRect(0, 0, 64, 64)
	p, err := Build(randomPoints(4096, dom, 93), dom, Config{Kind: Quadtree, Height: 6, Epsilon: 1, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	raw := v3Bytes(t, p)
	if n := len(p.arena.Nodes); n != 5461 || n <= 3*verifyChunkNodes {
		t.Fatalf("fixture has %d nodes; it must span four Verify chunks", n)
	}
	return raw
}

// verifyMapped opens raw zero-copy and returns Verify's error.
func verifyMapped(t *testing.T, raw []byte) error {
	t.Helper()
	s, err := OpenSlabMmap(writeTempArtifact(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Verify()
	return err
}

// TestVerifyPrecedence pins the order of Verify's findings across chunks:
// a bad node in the last chunk loses to a wrong checksum and to non-zero
// padding, and of two bad nodes in different chunks the first is named.
func TestVerifyPrecedence(t *testing.T) {
	raw := verifyFixture(t)
	lay := v3LayoutFor(5461)
	rec := func(i, c int) int { return int(lay.recordsOff) + i*v3RecordSize + 8*c }
	badLast := patchV3CRC(putF64(raw, rec(5000, 0), math.Inf(1)))
	if err := verifyMapped(t, raw); err != nil {
		t.Fatalf("clean fixture: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"bad node in last chunk", badLast, "core: release node 5000 has non-finite rect"},
		{"bad node and wrong checksum", corrupt(badLast, int(lay.footerOff), badLast[lay.footerOff]^1), "core: binary release checksum mismatch"},
		{"bad node and non-zero padding", patchV3CRC(corrupt(badLast, int(lay.recordsEnd), 1)), "core: binary release has non-zero section padding"},
		{"bad nodes in two chunks", patchV3CRC(putF64(badLast, rec(2000, 2), math.NaN())), "core: release node 2000 has non-finite rect"},
		{"two bad nodes in one chunk", patchV3CRC(putF64(putF64(raw, rec(4999, 1), math.NaN()), rec(4801, 3), -1)), "core: release node 4801 has inverted rect"},
	} {
		err := verifyMapped(t, tc.data)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestVerifyAllocs pins Verify on a mapped artifact at zero allocations,
// on one goroutine and in two halves.
func TestVerifyAllocs(t *testing.T) {
	for _, fx := range []struct {
		name    string
		raw     []byte
		workers int
	}{
		{"h=6", verifyFixture(t), 1},
		{"h=8 two halves", bigVerifyFixture(t), 2},
	} {
		s, err := OpenSlabMmap(writeTempArtifact(t, fx.raw))
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.verify(fx.workers); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Verify allocates %v times per run, want 0", fx.name, allocs)
		}
		s.Close()
	}
}

// bigVerifyFixture is a mapped v3 artifact above Verify's split grain: an
// h=8 quadtree has 87381 nodes, split at node 43200.
func bigVerifyFixture(t testing.TB) []byte {
	t.Helper()
	if !mmapSupported || !hostLittleEndian() {
		t.Skip("no mmap on this platform")
	}
	dom := geom.NewRect(0, 0, 64, 64)
	p, err := Build(randomPoints(4096, dom, 97), dom, Config{Kind: Quadtree, Height: 8, Epsilon: 1, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	if n := len(p.arena.Nodes); n != 87381 || n < verifySplitNodes {
		t.Fatalf("fixture has %d nodes; it must reach the split grain %d", n, verifySplitNodes)
	}
	return buf.Bytes()
}

// TestVerifyTwoHalves runs the corruption table on an artifact Verify
// splits in two: every finding, in either half or in both, must read as
// the one-goroutine pass reads it, and a clean artifact's fingerprint must
// be the CRC-64/ISO of the whole file. It also runs the fallback a Verify
// takes while another holds the helper.
func TestVerifyTwoHalves(t *testing.T) {
	raw := bigVerifyFixture(t)
	const nodes = 87381
	lay := v3LayoutFor(nodes)
	mid := nodes / 2 / verifyChunkNodes * verifyChunkNodes
	rec := func(i, c int) int { return int(lay.recordsOff) + i*v3RecordSize + 8*c }
	flip := func(data []byte, off int) []byte { return corrupt(data, off, data[off]^0x10) }
	badFirst := patchV3CRC(putF64(raw, rec(100, 1), math.NaN()))
	badSecond := patchV3CRC(putF64(raw, rec(mid+5000, 0), math.Inf(1)))
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"clean", raw, ""},
		{"checksum flip in first half", flip(raw, rec(100, 2)), "core: binary release checksum mismatch"},
		{"checksum flip in second half", flip(raw, rec(mid+5000, 2)), "core: binary release checksum mismatch"},
		{"checksum flip at the split", flip(raw, rec(mid, 0)), "core: binary release checksum mismatch"},
		{"bad node in first half", badFirst, "core: release node 100 has non-finite rect"},
		{"bad node in second half", badSecond, fmt.Sprintf("core: release node %d has non-finite rect", mid+5000)},
		{"bad node first in second half", patchV3CRC(putF64(raw, rec(mid, 3), -1)), fmt.Sprintf("core: release node %d has inverted rect", mid)},
		{"bad nodes in both halves", patchV3CRC(putF64(badSecond, rec(100, 1), math.NaN())), "core: release node 100 has non-finite rect"},
		{"bad padding", patchV3CRC(corrupt(badSecond, int(lay.recordsEnd), 1)), "core: binary release has non-zero section padding"},
		{"bad footer", corrupt(badSecond, int(lay.footerOff)+8, 'X'), "core: bad footer magic"},
	}
	for _, tc := range cases {
		s, err := OpenSlabMmap(writeTempArtifact(t, tc.data))
		if err != nil {
			t.Fatal(err)
		}
		wantFP, wantErr := s.verify(1)
		fp, err := s.verify(2)
		verifyHelper.busy.Lock()
		busyFP, busyErr := s.verify(2)
		verifyHelper.busy.Unlock()
		s.Close()
		if tc.want == "" {
			if err != nil || wantErr != nil || busyErr != nil {
				t.Fatalf("%s: Verify = %v (one goroutine %v, helper busy %v)", tc.name, err, wantErr, busyErr)
			}
			if sum := checksum.Checksum(tc.data, checksum.Fingerprint); fp != sum || wantFP != sum || busyFP != sum {
				t.Errorf("%s: fingerprint %#x (one goroutine %#x, helper busy %#x), CRC-64/ISO of the file %#x", tc.name, fp, wantFP, busyFP, sum)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: two-half Verify = %v, want %q", tc.name, err, tc.want)
		}
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: two-half Verify says %v, one goroutine says %v", tc.name, err, wantErr)
		}
		if busyErr == nil || err == nil || busyErr.Error() != err.Error() {
			t.Errorf("%s: Verify with the helper busy says %v, two halves %v", tc.name, busyErr, err)
		}
	}
}

// TestWriteV3PipelineFailure pins the pipelined writer's failure
// behaviour. The destination fails (or short-writes) at chunk k only once
// the encoders have run ahead of it; the writer must report exactly the
// bytes the destination accepted, hand it nothing after the failure, and
// leave no encoder goroutine running.
func TestWriteV3PipelineFailure(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	// Height 7 is 21845 nodes: 14 chunks.
	p, err := Build(randomPoints(4096, dom, 95), dom, Config{Kind: Quadtree, Height: 7, Epsilon: 1, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if _, err := p.WriteBinaryV3(&ref); err != nil {
		t.Fatal(err)
	}
	const workers = 3
	chunks := (len(p.arena.Nodes) + v3ChunkNodes - 1) / v3ChunkNodes
	for _, k := range []int{0, 1, 5, chunks - 1} {
		for _, short := range []bool{false, true} {
			src, err := p.v3Source(workers)
			if err != nil {
				t.Fatal(err)
			}
			var encoded atomic.Int32
			encode := src.encode
			src.encode = func(dst []byte, lo, hi int) {
				encode(dst, lo, hi)
				encoded.Add(1)
			}
			ahead := int32(min(k+3, chunks))
			dst := &stallingWriter{failAt: k + 1, short: short, ready: func() bool { return encoded.Load() >= ahead }}
			before := runtime.NumGoroutine()
			n, err := writeV3(dst, src, workers)
			name := fmt.Sprintf("fail at chunk %d (short=%v)", k, short)
			if !dst.wasReady {
				t.Fatalf("%s: the encoders never ran %d chunks ahead", name, ahead)
			}
			want := errInjected
			if short {
				want = io.ErrShortWrite
			}
			if !errors.Is(err, want) {
				t.Errorf("%s: error %v, want %v", name, err, want)
			}
			if n != int64(dst.buf.Len()) {
				t.Errorf("%s: writer reported %d bytes, destination accepted %d", name, n, dst.buf.Len())
			}
			if dst.after != 0 {
				t.Errorf("%s: %d writes reached the destination after its failure", name, dst.after)
			}
			if !bytes.HasPrefix(ref.Bytes(), dst.buf.Bytes()) {
				t.Errorf("%s: the accepted bytes are not a prefix of the artifact", name)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%s: %d goroutines after the write, %d before", name, got, before)
			}
		}
	}
}

// stallingWriter accepts writes until its failAt-th (0 being the header),
// where it waits until ready reports the encoders ahead, accepts half of
// what it is offered and fails — with errInjected, or with no error when
// short. It counts the writes it gets after that.
type stallingWriter struct {
	failAt   int
	short    bool
	ready    func() bool
	wasReady bool
	calls    int
	after    int
	buf      bytes.Buffer
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	defer func() { w.calls++ }()
	switch {
	case w.calls > w.failAt:
		w.after++
		return 0, errInjected
	case w.calls < w.failAt:
		return w.buf.Write(p)
	}
	for deadline := time.Now().Add(5 * time.Second); !w.ready() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	w.wasReady = w.ready()
	w.buf.Write(p[:len(p)/2])
	if w.short {
		return len(p) / 2, nil
	}
	return len(p) / 2, errInjected
}

// TestWriteBinaryV3Allocs bounds a large encode's allocations by a small
// constant: the ring of chunk buffers, its channels and the workers, but
// nothing per record, per chunk or per bitset word.
func TestWriteBinaryV3Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	dom := geom.NewRect(0, 0, 64, 64)
	// Height 8 is 87381 nodes: 54 chunks and 2731 words per bitset.
	p, err := Build(randomPoints(4096, dom, 99), dom, Config{Kind: Quadtree, Height: 8, Epsilon: 1, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 64
	for _, tc := range []struct {
		name   string
		encode func(io.Writer) (int64, error)
	}{{"arena", p.WriteBinaryV3}, {"slab", p.Sealed().WriteBinaryV3}} {
		if allocs := testing.AllocsPerRun(3, func() {
			if _, err := tc.encode(io.Discard); err != nil {
				t.Fatal(err)
			}
		}); allocs > bound {
			t.Errorf("%s: WriteBinaryV3 of an h=8 tree allocates %v times, want at most %d", tc.name, allocs, bound)
		}
	}
}

// BenchmarkWriteBinaryV3 encodes an h=10 quadtree's 56 MB artifact from
// the arena to io.Discard.
func BenchmarkWriteBinaryV3(b *testing.B) {
	dom := geom.NewRect(0, 0, 64, 64)
	p, err := Build(randomPoints(1<<16, dom, 101), dom, Config{Kind: Quadtree, Height: 10, Epsilon: 1, Seed: 102})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.WriteBinaryV3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify verifies the mapping of an h=10 quadtree's artifact.
func BenchmarkVerify(b *testing.B) {
	if !mmapSupported || !hostLittleEndian() {
		b.Skip("no mmap on this platform")
	}
	dom := geom.NewRect(0, 0, 64, 64)
	p, err := Build(randomPoints(1<<16, dom, 103), dom, Config{Kind: Quadtree, Height: 10, Epsilon: 1, Seed: 104})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "release.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.WriteBinaryV3(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	s, err := OpenSlabMmap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
