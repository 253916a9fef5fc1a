package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
)

// Release format v2 is a little-endian binary columnar encoding of the same
// artifact the versioned JSON (format 1) carries. It is read-only: format v3
// (binary_v3.go) is the only binary encoding written, and v2 artifacts stay
// readable forever. ReadBinary decodes one straight into a Slab — raw
// float64 columns copied into place, one bitset for the published flags, no
// per-count pointer or interface allocation.
//
// Layout (all integers and floats little-endian):
//
//	offset  size        field
//	0       4           magic "PSD2"
//	4       1           format version (2)
//	5       1           kind (the Kind enumeration: 0 quadtree, 1 kd,
//	                    2 kd-hybrid, 3 hilbert-r, 4 kd-cell, 5 kd-noisymean,
//	                    6 privtree; append-only for v2)
//	6       1           fanout (must be 4)
//	7       1           height h (0..13)
//	8       8           epsilon (float64)
//	16      32          domain lox,loy,hix,hiy (4 × float64)
//	48      4           node count n (uint32; must equal (4^(h+1)-1)/3)
//	52      4           pruned count p (uint32)
//	56      n*8 each    five columns, breadth-first: lox, loy, hix, hiy, count
//	...     ceil(n/64)*8  published bitset (uint64 words, LSB-first)
//	...     p uvarints  pruned node indices, delta-encoded (first index, then
//	                    gaps), strictly ascending
//
// The artifact ends exactly after the pruned list: the decoder requires EOF
// there, so a concatenated or trailing-garbage file is rejected rather than
// "successfully" decoded (which would defeat the serving tier's corrupt-file
// quarantine).
//
// Count slots of unpublished nodes were written as zero and are forced to
// zero on read, so a decoded slab never carries garbage into LeafRegions. The
// decoder applies the same hardening as Release.Validate before and after
// the column reads: shape, epsilon and domain checks gate the allocation,
// per-node checks reject non-finite or inverted rectangles and non-finite
// published counts, and pruned indices must be in-range and ascending.
//
// ReadBinary accepts both binary formats, dispatching on the magic.

// binaryMagic opens every format-v2 artifact; SniffBinary keys on it.
var binaryMagic = [4]byte{'P', 'S', 'D', '2'}

// binaryVersion is the format-v2 serialization version byte.
const binaryVersion = 2

// binaryHeaderSize is the fixed-size v2 prefix before the columns.
const binaryHeaderSize = 56

// numKinds bounds the kind byte (the Kind enumeration is 0..numKinds-1).
const numKinds = 7

// SniffBinary reports whether the first bytes of an artifact announce one of
// the binary formats (v2 or v3). JSON releases start with '{', so four bytes
// decide.
func SniffBinary(prefix []byte) bool {
	if len(prefix) < 4 {
		return false
	}
	m := [4]byte(prefix[:4])
	return m == binaryMagic || m == v3Magic
}

// artifactWriter batches encoded bytes into a fixed chunk before handing
// them to the destination, counting exactly the bytes the destination
// accepted. The v3 encoder writes through it instead of a bufio.Writer
// so the (n, err) it returns has one unambiguous meaning: n is what
// actually reached w — on a mid-stream failure included — never inflated by
// bytes a buffer accepted but never delivered. When crc is non-nil every
// written byte also feeds it (the v3 body checksum).
type artifactWriter struct {
	w   io.Writer
	crc hash.Hash64
	buf []byte
	n   int64 // bytes the destination accepted
	err error // first destination error; later writes are dropped
}

// artifactChunk is the destination write size: large enough that per-value
// encoding never reaches the destination as 8-byte writes.
const artifactChunk = 64 << 10

func newArtifactWriter(w io.Writer, crc hash.Hash64) *artifactWriter {
	return &artifactWriter{w: w, crc: crc, buf: make([]byte, 0, artifactChunk)}
}

// flush delivers the buffered chunk, folding short writes into errors.
func (aw *artifactWriter) flush() {
	if aw.err != nil || len(aw.buf) == 0 {
		aw.buf = aw.buf[:0]
		return
	}
	n, err := aw.w.Write(aw.buf)
	if n > len(aw.buf) {
		n = len(aw.buf)
	}
	aw.n += int64(n)
	if err == nil && n < len(aw.buf) {
		err = io.ErrShortWrite
	}
	aw.err = err
	aw.buf = aw.buf[:0]
}

// write buffers p, flushing full chunks as it goes.
func (aw *artifactWriter) write(p []byte) {
	if aw.err != nil {
		return
	}
	if aw.crc != nil {
		aw.crc.Write(p) // hash.Hash.Write never errors
	}
	for len(p) > 0 {
		free := cap(aw.buf) - len(aw.buf)
		if free == 0 {
			aw.flush()
			if aw.err != nil {
				return
			}
			free = cap(aw.buf)
		}
		k := min(free, len(p))
		aw.buf = append(aw.buf, p[:k]...)
		p = p[k:]
	}
}

// u64 writes one little-endian uint64.
func (aw *artifactWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	aw.write(b[:])
}

// zeros writes n zero bytes (section padding).
func (aw *artifactWriter) zeros(n int) {
	var z [64]byte
	for n > 0 {
		k := min(n, len(z))
		aw.write(z[:k])
		n -= k
	}
}

// ReadBinary parses and validates a binary release — format v2 or v3,
// dispatched on the magic — decoding straight into a query-ready Slab. The
// input is treated as untrusted: the header is fully checked before any
// node-sized allocation, and every per-node check of Release.Validate runs
// on the columns, so a successfully decoded slab is structurally sound. The
// reader must be exhausted by the artifact: trailing bytes are an error.
func ReadBinary(r io.Reader) (*Slab, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading binary release header: %w", err)
	}
	switch magic {
	case binaryMagic:
		return readBinaryV2(r)
	case v3Magic:
		return readBinaryV3(r)
	}
	return nil, fmt.Errorf("core: bad magic %q in binary release", magic[:])
}

// readBinaryV2 decodes a format-v2 body (magic already consumed).
func readBinaryV2(r io.Reader) (*Slab, error) {
	var hdr [binaryHeaderSize]byte
	copy(hdr[0:4], binaryMagic[:])
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("core: reading binary release header: %w", err)
	}
	if hdr[4] != binaryVersion {
		return nil, fmt.Errorf("core: unsupported binary release version %d", hdr[4])
	}
	if hdr[5] >= numKinds {
		return nil, fmt.Errorf("core: unknown kind %d in binary release", hdr[5])
	}
	kind := Kind(hdr[5])
	nodes, err := checkShape(int(hdr[6]), int(hdr[7]))
	if err != nil {
		return nil, err
	}
	height := int(hdr[7])
	epsilon := math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:]))
	if err := checkEpsilon(epsilon); err != nil {
		return nil, err
	}
	var domain [4]float64
	for i := range domain {
		domain[i] = math.Float64frombits(binary.LittleEndian.Uint64(hdr[16+8*i:]))
	}
	if err := checkDomain(domain); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(hdr[48:]); got != uint32(nodes) {
		return nil, fmt.Errorf("core: binary release declares %d nodes for a %d-node tree", got, nodes)
	}
	numPruned := int(binary.LittleEndian.Uint32(hdr[52:]))
	if numPruned < 0 || numPruned > nodes {
		return nil, fmt.Errorf("core: binary release declares %d pruned nodes of %d", numPruned, nodes)
	}

	s := newSlab(kind, height, unflattenRect(domain), epsilon)
	// Columns stream through a bounded scratch buffer: a worst-case tree has
	// tens of millions of nodes, and the scratch must not double the peak.
	const scratchBytes = 1 << 20
	buf := make([]byte, min(8*nodes, scratchBytes))
	readColumn := func(assign func(i int, v float64)) error {
		for base := 0; base < nodes; {
			b := buf[:min(len(buf), 8*(nodes-base))]
			if _, err := io.ReadFull(r, b); err != nil {
				return fmt.Errorf("core: reading binary release column: %w", err)
			}
			for i := 0; i < len(b)/8; i++ {
				assign(base+i, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
			}
			base += len(b) / 8
		}
		return nil
	}
	// The on-disk scalar columns interleave into the packed per-node
	// records as they stream.
	for col := 0; col < 5; col++ {
		col := col
		if err := readColumn(func(i int, v float64) { s.nodes[i][col] = v }); err != nil {
			return nil, err
		}
	}
	words := make([]byte, 8*len(s.usable))
	if _, err := io.ReadFull(r, words); err != nil {
		return nil, fmt.Errorf("core: reading binary release published bitset: %w", err)
	}
	for i := range s.usable {
		s.usable[i] = binary.LittleEndian.Uint64(words[8*i:])
	}
	// Trailing bits of the last bitset word must be clear: they describe no
	// node, and canonical encoding keeps round trips byte-identical.
	if tail := uint(nodes) & 63; tail != 0 && len(s.usable) > 0 {
		if s.usable[len(s.usable)-1]>>tail != 0 {
			return nil, fmt.Errorf("core: binary release has published bits beyond node %d", nodes-1)
		}
	}

	for i := 0; i < nodes; i++ {
		nd := &s.nodes[i]
		if !finiteRect([4]float64{nd[0], nd[1], nd[2], nd[3]}) {
			return nil, fmt.Errorf("core: release node %d has non-finite rect", i)
		}
		if nd[0] > nd[2] || nd[1] > nd[3] {
			return nil, fmt.Errorf("core: release node %d has inverted rect", i)
		}
		if s.usable.get(i) {
			if c := nd[4]; math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("core: release node %d has non-finite count", i)
			}
		} else {
			nd[4] = 0
		}
	}

	br := byteReaderFor(r)
	prev := -1
	for k := 0; k < numPruned; k++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading binary release pruned list: %w", err)
		}
		idx := prev + int(delta)
		if k == 0 {
			idx = int(delta)
		}
		if idx <= prev || idx >= nodes {
			return nil, fmt.Errorf("core: pruned index %d out of range", idx)
		}
		s.markPruned(idx)
		prev = idx
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	s.computeEffLeaves()
	s.finish()
	return s, nil
}

// expectEOF requires the reader to be exhausted: a binary artifact's length
// is implied by its header, so any byte past the end means concatenation,
// corruption, or a torn rewrite — none of which may decode "successfully".
func expectEOF(r io.Reader) error {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != io.EOF {
		return fmt.Errorf("core: binary release has trailing bytes past its end")
	}
	return nil
}

// byteReaderFor adapts any reader for varint decoding without buffering
// ahead (the pruned list is the trailer, so lookahead is harmless, but a
// one-byte adapter keeps the contract obvious).
func byteReaderFor(r io.Reader) io.ByteReader {
	if br, ok := r.(io.ByteReader); ok {
		return br
	}
	return &oneByteReader{r: r}
}

type oneByteReader struct {
	r io.Reader
	b [1]byte
}

func (o *oneByteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(o.r, o.b[:])
	return o.b[0], err
}
