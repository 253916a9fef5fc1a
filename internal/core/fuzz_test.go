package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"psd/internal/geom"
)

// nodeCountOf reads the node-count field of a format-v2 header (the seeds
// are all valid artifacts, so the field is trustworthy here).
func nodeCountOf(vb []byte) int {
	return int(binary.LittleEndian.Uint32(vb[48:]))
}

// FuzzReadRelease feeds arbitrary (and mutated-valid) bytes through the
// full untrusted-artifact paths the server uses — the JSON decoder and the
// format v2 and v3 binary decoders: parse, validate, open, query. Whatever the
// input, neither pipeline may panic, and anything that opens must answer
// with finite counts. The v2 seeds are the committed golden artifacts: v2 is
// read-only, so those files are the encoder's last word on the format.
func FuzzReadRelease(f *testing.F) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(512, dom, 31)
	for _, cfg := range []Config{
		{Kind: Quadtree, Height: 2, Epsilon: 1, Seed: 2, PostProcess: true},
		{Kind: Hybrid, Height: 3, Epsilon: 0.5, Seed: 3, PostProcess: true, PruneThreshold: 8},
		{Kind: HilbertR, Height: 2, Epsilon: 1, Seed: 4},
		{Kind: PrivTree, Height: 3, Epsilon: 1, Seed: 5},
	} {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := p.Release().WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		// A few systematic corruptions seed the interesting neighborhoods.
		for _, mut := range [][]byte{
			bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":2`), 1),
			bytes.Replace(valid, []byte(`"height":`), []byte(`"height":9`), 1),
			bytes.Replace(valid, []byte(`quadtree`), []byte(`mystery`), 1),
			valid[:len(valid)/2],
			bytes.ToUpper(valid),
		} {
			f.Add(mut)
		}
		// The same artifact in format v3 seeds the record-major decoder:
		// trailing garbage, truncations at every 64-aligned section boundary,
		// checksum and footer-magic damage, and flipped body bits.
		var b3 bytes.Buffer
		if _, err := p.Release().WriteBinaryV3(&b3); err != nil {
			f.Fatal(err)
		}
		v3 := b3.Bytes()
		lay := v3LayoutFor(p.Len())
		f.Add(v3)
		f.Add(append(append([]byte{}, v3...), 0xAA))
		for _, cut := range []int64{v3HeaderSize, lay.recordsEnd, lay.usableOff + lay.bitsetLen,
			lay.prunedOff + lay.bitsetLen, lay.footerOff, int64(len(v3)) - 1} {
			f.Add(v3[:cut])
		}
		f.Add(corrupt(v3, 4, 9))                                    // bad version
		f.Add(corrupt(v3, 56, 1))                                   // non-zero reserved header
		f.Add(corrupt(v3, int(lay.recordsOff)+3, 0x40))             // record bit flip
		f.Add(corrupt(v3, int(lay.recordsEnd), 1))                  // non-zero pad
		f.Add(corrupt(v3, int(lay.footerOff), v3[lay.footerOff]^1)) // checksum damage
		f.Add(corrupt(v3, int(lay.footerOff)+8, 'X'))               // footer magic damage
	}
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "release_*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range goldens {
		if strings.HasSuffix(path, ".v3.bin") {
			continue
		}
		vb, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// Each v2 golden seeds the columnar decoder with the matching
		// corruption classes: header fields, truncation, bit flips.
		f.Add(vb)
		for _, mut := range [][]byte{
			append([]byte{'P', 'S', 'D', '2', 9}, vb[5:]...),     // bad version
			append([]byte{'P', 'S', 'D', '2', 2, 77}, vb[6:]...), // bad kind
			vb[:len(vb)/2],
			vb[:binaryHeaderSize],
			append(append([]byte{}, vb[:40]...), bytes.Repeat([]byte{0xff}, len(vb)-40)...),
		} {
			f.Add(mut)
		}
		// Truncations at every section boundary: end of header, end of each
		// float64 column, end of the published bitset, one byte shy of the
		// full artifact (a torn pruned trailer on the pruned goldens).
		nodes := nodeCountOf(vb)
		for col := 1; col <= 5; col++ {
			if off := binaryHeaderSize + col*8*nodes; off <= len(vb) {
				f.Add(vb[:off])
			}
		}
		if off := binaryHeaderSize + 5*8*nodes + 8*((nodes+63)/64); off <= len(vb) {
			f.Add(vb[:off])
		}
		f.Add(vb[:len(vb)-1])
		// A valid artifact with a trailer appended: the decoder must read
		// one byte past its computed end and require io.EOF.
		f.Add(append(append([]byte{}, vb...), 0xAA))
		// Over-length claims: header fields inflated far past what the body
		// (or any tree) could carry — node count maxed, height past the
		// node cap, pruned count past the node count.
		f.Add(corrupt(vb, 48, 0xff, 0xff, 0xff, 0xff))
		f.Add(corrupt(vb, 7, 13))
		f.Add(corrupt(vb, 7, 255))
		f.Add(corrupt(vb, 52, 0xff, 0xff, 0xff, 0x7f))
	}
	f.Add([]byte(`{}`))
	// A bare over-claiming header with no body at all: the decoder must
	// reject it before any node-sized allocation.
	hostile := make([]byte, binaryHeaderSize)
	copy(hostile, "PSD2")
	hostile[4], hostile[6], hostile[7] = 2, 4, 12
	f.Add(hostile)
	f.Add([]byte(`{"version":1,"kind":"quadtree","fanout":4,"height":0,` +
		`"domain":[0,0,1,1],"rects":[[0,0,1,1]],"counts":[null]}`))
	f.Add([]byte("PSD2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Binary decode path: any input that decodes must be a sound slab.
		if slab, err := ReadBinary(bytes.NewReader(data)); err == nil {
			rects, counts := slab.LeafRegions()
			checkOpened(t, slab.Query(slab.Domain()), rects, counts)
			// Canonical encoding: decode(encode(decode(x))) is stable,
			// whichever binary format x arrived in.
			var out3 bytes.Buffer
			if _, err := slab.WriteBinaryV3(&out3); err != nil {
				t.Fatalf("re-encoding a decoded release as v3 failed: %v", err)
			}
			if _, err := ReadBinary(bytes.NewReader(out3.Bytes())); err != nil {
				t.Fatalf("re-encoded v3 release does not decode: %v", err)
			}
		}

		// JSON decode path.
		rel, err := ReadRelease(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as we didn't panic
		}
		slab, err := rel.Slab()
		if err != nil {
			t.Fatalf("ReadRelease validated but Slab failed: %v", err)
		}
		rects, counts := slab.LeafRegions()
		checkOpened(t, slab.Query(slab.Domain()), rects, counts)
	})
}

// checkOpened asserts the invariants every successfully opened artifact
// must satisfy regardless of format or read path.
func checkOpened(t *testing.T, domainCount float64, rects []geom.Rect, counts []float64) {
	t.Helper()
	if math.IsNaN(domainCount) || math.IsInf(domainCount, 0) {
		t.Fatalf("opened release answers non-finite domain count %v", domainCount)
	}
	if len(rects) != len(counts) {
		t.Fatalf("leaf regions: %d rects, %d counts", len(rects), len(counts))
	}
	for _, c := range counts {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("leaf region count %v not finite", c)
		}
	}
}

// FuzzCountBatch drives the node-major batch engine with arbitrary rect
// batches: whatever the batch, CountBatch must agree EXACTLY — answers and
// aggregate traversal statistics — with the sequential per-query loop, and
// the slab with the arena reference, at several worker counts. Unlike
// FuzzCount, non-finite bounds are kept: the engine must treat them exactly
// as the per-query walk does (visit the root, answer 0).
func FuzzCountBatch(f *testing.F) {
	f.Add(0.0, 0.0, 64.0, 64.0, uint8(7), int64(1))
	f.Add(10.0, 20.0, 30.0, 40.0, uint8(40), int64(2))
	f.Add(-10.0, -10.0, 100.0, 100.0, uint8(3), int64(3))
	f.Add(1.5, 1.5, 1.5, 60.0, uint8(0), int64(4))
	f.Add(math.NaN(), 0.0, 64.0, 64.0, uint8(9), int64(5))
	f.Add(63.9, 0.1, math.Inf(1), 64.0, uint8(17), int64(6))
	// Degenerate rects: zero height, point queries (interior, on the root
	// midpoint corner, on the domain corners), and bounds exactly on node
	// edges of the midpoint grid.
	f.Add(8.0, 24.0, 56.0, 24.0, uint8(11), int64(7))
	f.Add(32.0, 32.0, 32.0, 32.0, uint8(5), int64(8))
	f.Add(13.0, 49.0, 13.0, 49.0, uint8(21), int64(9))
	f.Add(0.0, 0.0, 0.0, 0.0, uint8(2), int64(10))
	f.Add(64.0, 64.0, 64.0, 64.0, uint8(2), int64(11))
	f.Add(16.0, 16.0, 48.0, 48.0, uint8(13), int64(12))
	f.Add(32.0, 0.0, 32.0, 64.0, uint8(6), int64(13))

	f.Fuzz(func(t *testing.T, a, b, c, d float64, n uint8, seed int64) {
		// The seed rect plus n derived rects (shifted/scaled walks around
		// it) make a batch that mixes disjoint, contained, partial and
		// degenerate queries over the fixed trees.
		qs := make([]geom.Rect, 0, int(n)+1)
		qs = append(qs, geom.Rect{Lo: geom.Point{X: a, Y: b}, Hi: geom.Point{X: c, Y: d}})
		next := testRand(uint64(seed))
		for i := 0; i < int(n); i++ {
			x := next()*96 - 16
			y := next()*96 - 16
			w := next() * 48
			h := next() * 48
			qs = append(qs, geom.Rect{Lo: geom.Point{X: x, Y: y}, Hi: geom.Point{X: x + w, Y: y + h}})
		}

		for _, p := range fuzzTrees() {
			s := p.Sealed()
			want, wantSt := sumStats(s, qs)
			// The arena reference must agree with the slab per-query loop
			// (already pinned, but it anchors this target's reference).
			for i, q := range qs {
				if av := (arenaRef{p}).Query(q); av != want[i] {
					t.Fatalf("arena Query(%v) = %v, slab %v", q, av, want[i])
				}
			}
			for _, workers := range []int{1, 3, 0} {
				out := make([]float64, len(qs))
				st := s.CountBatchInto(out, qs, workers)
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("workers=%d: CountBatch[%d](%v) = %v, per-query %v",
							workers, i, qs[i], out[i], want[i])
					}
				}
				if st != wantSt {
					t.Fatalf("workers=%d: batch stats %+v, per-query sum %+v", workers, st, wantSt)
				}
			}
		}
	})
}

// fuzzTrees builds the fixed post-processed trees FuzzCount checks
// against, once per process. Post-processing matters: the OLS estimates are
// consistent (each parent equals the sum of its children), which is what
// makes the leaf-sum and additivity identities below hold.
var fuzzTrees = sync.OnceValue(func() []*PSD {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(2048, dom, 33)
	var out []*PSD
	for _, cfg := range []Config{
		{Kind: Quadtree, Height: 3, Epsilon: 1, Seed: 5, PostProcess: true},
		{Kind: Hybrid, Height: 3, Epsilon: 0.5, Seed: 6, PostProcess: true, PruneThreshold: 16},
		// The adaptive kind: not post-processed, but its leaf-only release is
		// consistent by construction (every query decomposes over the
		// published adaptive-leaf partition), so the same identities hold.
		{Kind: PrivTree, Height: 3, Epsilon: 1, Seed: 7},
	} {
		p, err := Build(pts, dom, cfg)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
})

// FuzzCount checks query-engine invariants on arbitrary rectangles: the
// canonical range query over a consistent tree must (a) be finite, (b)
// equal the leaf-region overlap sum, (c) answer the whole domain with the
// root estimate, and (d) be additive across a disjoint split of the query.
func FuzzCount(f *testing.F) {
	f.Add(0.0, 0.0, 64.0, 64.0)
	f.Add(10.0, 20.0, 30.0, 40.0)
	f.Add(-10.0, -10.0, 100.0, 100.0)
	f.Add(1.5, 1.5, 1.5, 60.0)
	f.Add(63.9, 0.1, 64.0, 64.0)
	// Degenerate rects: zero height, points (interior, root-midpoint corner,
	// domain corners), and bounds exactly on midpoint-grid node edges.
	f.Add(8.0, 24.0, 56.0, 24.0)
	f.Add(32.0, 32.0, 32.0, 32.0)
	f.Add(13.0, 49.0, 13.0, 49.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(64.0, 64.0, 64.0, 64.0)
	f.Add(16.0, 16.0, 48.0, 48.0)
	f.Add(32.0, 0.0, 32.0, 64.0)

	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("query rects are validated finite before reaching the engine")
			}
		}
		if c < a {
			a, c = c, a
		}
		if d < b {
			b, d = d, b
		}
		q := geom.Rect{Lo: geom.Point{X: a, Y: b}, Hi: geom.Point{X: c, Y: d}}
		for _, p := range fuzzTrees() {
			got := p.Sealed().Query(q)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("Query(%v) = %v, not finite", q, got)
			}
			tol := 1e-6 * (1 + math.Abs(got))

			// (b) Leaf-region decomposition: summing every effective leaf's
			// estimate weighted by its overlap fraction is the flat-histogram
			// answer; on a consistent tree the hierarchical walk must agree.
			rects, counts := p.Sealed().LeafRegions()
			var flat float64
			for i, r := range rects {
				flat += counts[i] * r.OverlapFraction(q)
			}
			if math.Abs(flat-got) > tol {
				t.Fatalf("Query(%v) = %v but leaf-region sum = %v", q, got, flat)
			}

			// (c) The whole domain is answered by the root estimate alone —
			// when the root released one (PrivTree publishes only adaptive
			// leaves, so its domain answer is the leaf sum checked in (b)).
			if p.Arena().Root().Published || p.PostProcessed() {
				if root := p.Sealed().Query(p.Domain()); math.Abs(root-p.Arena().Root().Est) > 1e-6*(1+math.Abs(root)) {
					t.Fatalf("Query(domain) = %v, root estimate %v", root, p.Arena().Root().Est)
				}
			}

			// (d) Splitting q at an interior x coordinate partitions it
			// exactly (half-open boxes share no area), so the answers add.
			if q.Width() > 0 {
				mid := (q.Lo.X + q.Hi.X) / 2
				left, right := q.SplitX(mid)
				sum := p.Sealed().Query(left) + p.Sealed().Query(right)
				if math.Abs(sum-got) > tol {
					t.Fatalf("Query(%v) = %v but split sum = %v", q, got, sum)
				}
			}
		}
	})
}
