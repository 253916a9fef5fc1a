package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"psd/internal/budget"
	"psd/internal/geom"
)

// encodeV2 is a test-only encoder of the format-v2 layout documented in
// binary.go: header, five scalar columns (unpublished count slots zero),
// the published bitset, and the delta-uvarint pruned list. The product
// writes only v3; these tests still need v2 artifacts of shapes the
// committed goldens do not cover (pruned trailers, leaf-only publication,
// hostile edits at computed offsets) to pin the v2 reader.
func encodeV2(s *Slab) []byte {
	le := binary.LittleEndian
	n := s.Len()
	pruned := s.prunedIndices()
	out := make([]byte, binaryHeaderSize)
	copy(out, binaryMagic[:])
	out[4] = binaryVersion
	out[5] = byte(s.kind)
	out[6] = 4
	out[7] = byte(s.height)
	le.PutUint64(out[8:], math.Float64bits(s.epsilon))
	for i, v := range flattenRect(s.domain) {
		le.PutUint64(out[16+8*i:], math.Float64bits(v))
	}
	le.PutUint32(out[48:], uint32(n))
	le.PutUint32(out[52:], uint32(len(pruned)))
	for col := 0; col < 5; col++ {
		for i := 0; i < n; i++ {
			v := s.nodes[i][col]
			if col == 4 && !s.usable.get(i) {
				v = 0
			}
			out = le.AppendUint64(out, math.Float64bits(v))
		}
	}
	for _, w := range s.usable {
		out = le.AppendUint64(out, w)
	}
	prev := 0
	for _, idx := range pruned {
		out = binary.AppendUvarint(out, uint64(idx-prev))
		prev = idx
	}
	return out
}

// TestBinaryRoundTrip pins the canonical-decoding property for every
// family: decode(v2) re-encodes byte-identically, and the decoded slab
// answers exactly as the source tree.
func TestBinaryRoundTrip(t *testing.T) {
	dom := geom.NewRect(0, 0, 128, 64)
	pts := randomPoints(4096, dom, 61)
	for _, cfg := range slabTestConfigs() {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw := encodeV2(p.Sealed())
		slab, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%v: ReadBinary: %v", cfg.Kind, err)
		}
		if again := encodeV2(slab); !bytes.Equal(raw, again) {
			t.Errorf("%v: binary round trip differs (%d vs %d bytes)",
				cfg.Kind, len(raw), len(again))
		}
		for _, q := range slabTestQueries(dom) {
			if got, want := slab.Query(q), p.Sealed().Query(q); got != want {
				t.Errorf("%v: binary slab Query(%v) = %v, want %v", cfg.Kind, q, got, want)
			}
		}
		// The JSON and binary encodings carry the same artifact: converting
		// the decoded slab back to JSON matches the direct JSON serialization.
		var direct, viaBinary bytes.Buffer
		if _, err := p.Release().WriteTo(&direct); err != nil {
			t.Fatal(err)
		}
		if _, err := slab.Release().WriteTo(&viaBinary); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), viaBinary.Bytes()) {
			t.Errorf("%v: binary->JSON conversion differs from direct JSON", cfg.Kind)
		}
	}
}

// TestBinarySmallerThanJSON sanity-checks the size motivation: the columnar
// encoding beats the JSON text encoding on every fixture family.
func TestBinarySmallerThanJSON(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(2048, dom, 71)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 5, Epsilon: 1, Seed: 72, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if _, err := p.Release().WriteTo(&js); err != nil {
		t.Fatal(err)
	}
	bin := encodeV2(p.Sealed())
	if len(bin) >= js.Len() {
		t.Errorf("binary release is %d bytes, JSON %d — expected smaller", len(bin), js.Len())
	}
}

// corrupt returns a copy of raw with one byte range overwritten.
func corrupt(raw []byte, off int, b ...byte) []byte {
	out := append([]byte(nil), raw...)
	copy(out[off:], b)
	return out
}

// putF64 little-endian encodes v at off.
func putF64(raw []byte, off int, v float64) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
	return out
}

// TestReadBinaryRejectsMalformed walks the hardening checklist: every
// corruption class Release.Validate rejects on the JSON path must be
// rejected by the binary decoder too, without panicking.
func TestReadBinaryRejectsMalformed(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 81)
	p, err := Build(pts, dom, Config{Kind: Hybrid, Height: 3, Epsilon: 1, Seed: 82, PostProcess: true, PruneThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeV2(p.Sealed())
	nodes := 85 // (4^4-1)/3 for height 3

	cases := map[string][]byte{
		"empty":               {},
		"truncated header":    raw[:40],
		"bad magic":           corrupt(raw, 0, 'J', 'S', 'O', 'N'),
		"bad version":         corrupt(raw, 4, 9),
		"bad kind":            corrupt(raw, 5, 200),
		"bad fanout":          corrupt(raw, 6, 3),
		"huge height":         corrupt(raw, 7, 99),
		"negative epsilon":    putF64(raw, 8, -1),
		"NaN epsilon":         putF64(raw, 8, math.NaN()),
		"NaN domain":          putF64(raw, 16, math.NaN()),
		"inverted domain":     putF64(raw, 16, 1e9),
		"node count mismatch": corrupt(raw, 48, 1, 0, 0, 0),
		"pruned overflow":     corrupt(raw, 52, 0xff, 0xff, 0xff, 0x7f),
		"truncated columns":   raw[:len(raw)/2],
		"NaN rect":            putF64(raw, binaryHeaderSize, math.NaN()),
		// lox of node 0 (the root/domain rect) pushed past its hix.
		"inverted rect": putF64(raw, binaryHeaderSize, 1e12),
		// First count made non-finite (root is published on these configs).
		"infinite count": putF64(raw, binaryHeaderSize+4*8*nodes, math.Inf(1)),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBinary accepted malformed input", name)
		}
	}

	// Published bits beyond the node count break canonical encoding.
	bitsetOff := binaryHeaderSize + 5*8*nodes
	tail := corrupt(raw, bitsetOff+8*(nodes/64), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if _, err := ReadBinary(bytes.NewReader(tail)); err == nil {
		t.Error("ReadBinary accepted published bits beyond the last node")
	}

	// A truncated pruned trailer must error rather than hang or succeed.
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		// Only fails when the fixture actually pruned something; the config
		// above prunes aggressively enough that the trailer is non-empty.
		t.Error("ReadBinary accepted a truncated pruned trailer")
	}
}

// TestReadBinaryZeroesUnpublishedCounts pins that garbage in an unpublished
// count slot cannot leak into LeafRegions: the decoder forces those slots
// to zero, matching the JSON path's nil counts.
func TestReadBinaryZeroesUnpublishedCounts(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(512, dom, 91)
	// Leaf-only budget leaves the internal levels unpublished.
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, Epsilon: 1, Seed: 92, Strategy: budget.LeafOnly{}})
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeV2(p.Sealed())
	// Node 0 (the root) is unpublished under leaf-only budgets; poison its
	// count slot.
	poisoned := putF64(raw, binaryHeaderSize+4*8*21, 12345.0)
	slab, err := ReadBinary(bytes.NewReader(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, encodeV2(slab)) {
		t.Error("decoder did not canonicalize a poisoned unpublished count slot")
	}
	for _, q := range slabTestQueries(dom) {
		if got, want := slab.Query(q), p.Sealed().Query(q); got != want {
			t.Errorf("poisoned slab Query(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestReadBinaryHostileHeaders pins the allocation-gating property the
// decoder claims: a 56-byte header making absurd size claims — height past
// the cap, a node count that cannot match any tree, a pruned count past the
// node count — must be rejected before any node-sized allocation happens.
// A hostile artifact is bytes on disk; it must not cost memory proportional
// to what it *claims* to be.
func TestReadBinaryHostileHeaders(t *testing.T) {
	// A minimal structurally-plausible header for a height-0 tree (1 node),
	// mutated per case. Each hostile header is complete (56 bytes) but has
	// no body at all, so acceptance of the header would hit EOF next.
	base := make([]byte, binaryHeaderSize)
	copy(base, binaryMagic[:])
	base[4] = binaryVersion
	base[5] = 0 // quadtree
	base[6] = 4
	base[7] = 0 // height 0 -> 1 node
	binary.LittleEndian.PutUint64(base[8:], math.Float64bits(1.0))   // epsilon
	binary.LittleEndian.PutUint64(base[16:], math.Float64bits(0))    // lox
	binary.LittleEndian.PutUint64(base[24:], math.Float64bits(0))    // loy
	binary.LittleEndian.PutUint64(base[32:], math.Float64bits(64.0)) // hix
	binary.LittleEndian.PutUint64(base[40:], math.Float64bits(64.0)) // hiy
	binary.LittleEndian.PutUint32(base[48:], 1)                      // nodes
	binary.LittleEndian.PutUint32(base[52:], 0)                      // pruned

	hostile := map[string][]byte{
		// Height 13 declares ~89M nodes, past the MaxNodes arena cap.
		"height over arena cap": corrupt(base, 7, 13),
		// Max height byte: 4^256 nodes if anyone tried to compute it.
		"height 255": corrupt(base, 7, 255),
		// Node count u32 maxed out against a height-0 shape.
		"node count over-claim": corrupt(base, 48, 0xff, 0xff, 0xff, 0xff),
		// Pruned count exceeds the (valid) node count.
		"pruned over-claim": corrupt(base, 52, 0xff, 0xff, 0xff, 0xff),
	}
	for name, hdr := range hostile {
		hdr := hdr
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(hdr)); err == nil {
				t.Fatal("ReadBinary accepted a hostile header")
			}
			// Rejection must be allocation-free (modulo the error value):
			// the header checks run before newSlab.
			allocs := testing.AllocsPerRun(10, func() {
				ReadBinary(bytes.NewReader(hdr))
			})
			if allocs > 8 {
				t.Errorf("rejecting a hostile header cost %.0f allocs — node-sized work before validation?", allocs)
			}
		})
	}
}

// TestReadBinaryTruncatedSections cuts a valid artifact at (and one byte
// into) every section boundary — header, each of the five columns, the
// published bitset, the pruned trailer. Every cut must produce a decode
// error, never a panic or a short successful read.
func TestReadBinaryTruncatedSections(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(1024, dom, 83)
	p, err := Build(pts, dom, Config{Kind: Hybrid, Height: 3, Epsilon: 1, Seed: 84, PostProcess: true, PruneThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeV2(p.Sealed())
	const nodes = 85 // (4^4-1)/3 for height 3
	colBytes := 8 * nodes
	bitsetOff := binaryHeaderSize + 5*colBytes
	trailerOff := bitsetOff + 8*((nodes+63)/64)
	if trailerOff >= len(raw) {
		t.Fatalf("fixture has no pruned trailer (len %d, trailer at %d): pick a prunier config", len(raw), trailerOff)
	}

	cuts := []int{0, 1, binaryHeaderSize - 1, binaryHeaderSize}
	for col := 1; col <= 5; col++ {
		off := binaryHeaderSize + col*colBytes
		cuts = append(cuts, off-1, off)
	}
	cuts = append(cuts, bitsetOff+1, trailerOff, len(raw)-1)
	for _, cut := range cuts {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("ReadBinary accepted an artifact truncated to %d of %d bytes", cut, len(raw))
		}
	}
	if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
		t.Fatalf("untruncated fixture must decode: %v", err)
	}
}
