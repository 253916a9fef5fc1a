package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"psd/internal/checksum"
	"psd/internal/geom"
	"psd/internal/par"
	"psd/internal/tree"
)

// Release format v3 is the record-major, mmap-ready sibling of format v2:
// the node section is byte-for-byte the slab's packed 40-byte
// [lox,loy,hix,hiy,est] hot records, so on a little-endian host
// OpenSlabMmap can alias the mapping instead of decoding — open cost is
// mmap(2) plus header and bitset validation, independent of artifact size,
// with cold pages faulted on demand and the page cache shared across every
// process serving the same file.
//
// Layout (all integers and floats little-endian; every section starts on a
// 64-byte boundary, gaps zero-filled):
//
//	offset  size             field
//	0       4                magic "PSD3"
//	4       1                format version (3)
//	5       1                kind (same enumeration as v2)
//	6       1                fanout (must be 4)
//	7       1                height h (0..13)
//	8       8                epsilon (float64)
//	16      32               domain lox,loy,hix,hiy (4 × float64)
//	48      4                node count n (uint32; must match the shape)
//	52      4                pruned count p (uint32)
//	56      8                reserved, must be zero
//	64      n*40             node records [lox,loy,hix,hiy,est], breadth-first
//	(align 64)
//	...     ceil(n/64)*8     published bitset (uint64 words, LSB-first)
//	(align 64)
//	...     ceil(n/64)*8     pruned bitset (uint64 words, LSB-first; replaces
//	                         v2's delta-varint list so it maps directly)
//	(align 64)
//	...     16               footer: CRC-64/ECMA of every preceding byte
//	                         (uint64), then magic "PSD3END\0"
//
// The file ends exactly at the footer. The encoding is canonical: count
// slots of unpublished nodes must be zero bits, bitset tail bits and all
// padding must be zero, and the pruned count must equal the bitset
// popcount — the streaming decoder rejects any deviation, so a v3 artifact
// that decodes also round-trips byte-identically.
//
// The checksum is deliberately a trailer, not a gate: OpenSlabMmap returns
// without touching the node section (that is the whole point of the
// format), and (*Slab).Verify runs the deferred full-body pass — CRC plus
// the per-node validation the streaming decoder does inline — for callers
// (the serving registry) that want corruption surfaced at load time rather
// than as wrong answers. Because the footer is a plain CRC of the bytes
// before it, both ends can split the record section: the writer encodes
// chunks on several goroutines and checksums them in order, and Verify
// checksums two halves at once and joins them with checksum.Combine.

// v3Magic opens every format-v3 artifact.
var v3Magic = [4]byte{'P', 'S', 'D', '3'}

// v3FooterMagic closes it; a torn or truncated rewrite loses the trailer.
var v3FooterMagic = [8]byte{'P', 'S', 'D', '3', 'E', 'N', 'D', 0}

const (
	v3Version    = 3
	v3HeaderSize = 64
	v3FooterSize = 16
	v3RecordSize = 40
	v3Align      = 64
)

// align64 rounds n up to the next 64-byte boundary.
func align64(n int64) int64 { return (n + v3Align - 1) &^ (v3Align - 1) }

// v3Layout holds the section offsets of a v3 artifact with a given node
// count. All arithmetic is int64: height 13 is ~89.5M nodes, ~3.6GB of
// records.
type v3Layout struct {
	recordsOff int64
	recordsEnd int64
	usableOff  int64
	bitsetLen  int64
	prunedOff  int64
	footerOff  int64
	size       int64
}

func v3LayoutFor(nodes int) v3Layout {
	var l v3Layout
	l.recordsOff = v3HeaderSize
	l.recordsEnd = l.recordsOff + int64(nodes)*v3RecordSize
	l.usableOff = align64(l.recordsEnd)
	l.bitsetLen = int64((nodes+63)/64) * 8
	l.prunedOff = align64(l.usableOff + l.bitsetLen)
	l.footerOff = align64(l.prunedOff + l.bitsetLen)
	l.size = l.footerOff + v3FooterSize
	return l
}

// v3Source is what the one v3 writer streams: the header fields, the node
// records and the two bitsets. A slab and a built PSD are its two sources;
// only where the records come from differs.
type v3Source struct {
	kind    Kind
	height  int
	domain  geom.Rect
	epsilon float64
	nodes   int
	usable  bitset
	pruned  bitset
	// encode writes the 40-byte records of nodes [lo, hi) into dst, the
	// count slot of every node not in usable as zero bits, so the section
	// is exactly what a decoded slab holds (and what a mapping aliases).
	// Calls for disjoint ranges may run concurrently.
	encode func(dst []byte, lo, hi int)
}

// putRecord encodes one [lox,loy,hix,hiy,est] record into b (40 bytes).
func putRecord(b []byte, lox, loy, hix, hiy, est float64) {
	b = b[:v3RecordSize]
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(lox))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(loy))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(hix))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(hiy))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(est))
}

// WriteBinaryV3 serializes the slab in format v3, returning the number of
// bytes that reached w.
func (s *Slab) WriteBinaryV3(w io.Writer) (int64, error) {
	s.ensureOpen()
	return writeV3(w, &v3Source{
		kind: s.kind, height: s.height, domain: s.domain, epsilon: s.epsilon,
		nodes: s.Len(), usable: s.usable, pruned: s.pruned,
		encode: func(dst []byte, lo, hi int) {
			for i := lo; i < hi; i++ {
				nd := &s.nodes[i]
				est := 0.0
				if s.usable.get(i) {
					est = nd[4]
				}
				putRecord(dst[(i-lo)*v3RecordSize:], nd[0], nd[1], nd[2], nd[3], est)
			}
		},
	}, par.Workers(0))
}

// WriteBinaryV3 serializes the PSD's release in format v3 straight from
// the build arena — byte-identical to p.Release().WriteBinaryV3, without
// materializing the JSON-shaped release or a slab. It makes the same
// checks Release.Validate makes of a tree's release (shape, epsilon,
// domain, finite and ordered rects, finite released counts), all before
// the first byte is written.
func (p *PSD) WriteBinaryV3(w io.Writer) (int64, error) {
	workers := par.Workers(0)
	src, err := p.v3Source(workers)
	if err != nil {
		return 0, err
	}
	return writeV3(w, src, workers)
}

// v3ValidateGrain is the bitset words (64 nodes each) one validation
// worker takes at least: trees under 64Ki nodes are checked inline.
const v3ValidateGrain = 1024

// v3Source validates the PSD's release and describes it for writeV3: the
// bitsets are built here, on up to workers goroutines over ranges aligned
// to bitset words (so no two write one word); the records are encoded
// from the arena as the writer asks for them. Of several bad nodes the
// lowest-indexed is reported, as a sequential scan would.
func (p *PSD) v3Source(workers int) (*v3Source, error) {
	ar := p.arena
	n, err := checkShape(ar.Fanout(), ar.Height())
	if err != nil {
		return nil, err
	}
	eps := p.PrivacyCost()
	if err := checkEpsilon(eps); err != nil {
		return nil, err
	}
	if err := checkDomain(flattenRect(p.domain)); err != nil {
		return nil, err
	}
	src := &v3Source{
		kind: p.kind, height: ar.Height(), domain: p.domain, epsilon: eps,
		nodes: n, usable: newBitset(n), pruned: newBitset(n),
	}
	var mu sync.Mutex
	bad, badErr := n, error(nil)
	released := p.postProcessed
	par.For(workers, 0, len(src.usable), v3ValidateGrain, func(wlo, whi int) {
		for wi := wlo; wi < whi; wi++ {
			var use, prn uint64
			nodes := ar.Nodes[wi*64 : min(wi*64+64, n)]
			for b := range nodes {
				nd := &nodes[b]
				pub := nd.Published || released
				est := 0.0
				if pub {
					est = nd.Est
				}
				// One branch for the common case: x-x is 0 exactly when x
				// is finite, so the sum is 0 when all five are.
				r := &nd.Rect
				if r.Lo.X-r.Lo.X+r.Lo.Y-r.Lo.Y+r.Hi.X-r.Hi.X+r.Hi.Y-r.Hi.Y+est-est != 0 || !r.Valid() {
					err := v3NodeErr(wi*64+b, nd, pub)
					mu.Lock()
					if wi*64+b < bad {
						bad, badErr = wi*64+b, err
					}
					mu.Unlock()
					return
				}
				if pub {
					use |= 1 << uint(b)
				}
				if nd.Pruned {
					prn |= 1 << uint(b)
				}
			}
			src.usable[wi], src.pruned[wi] = use, prn
		}
	})
	if badErr != nil {
		return nil, badErr
	}
	src.encode = func(dst []byte, lo, hi int) {
		for i := lo; i < hi; i++ {
			nd := &ar.Nodes[i]
			est := 0.0
			if src.usable.get(i) {
				est = nd.Est
			}
			putRecord(dst[(i-lo)*v3RecordSize:], nd.Rect.Lo.X, nd.Rect.Lo.Y, nd.Rect.Hi.X, nd.Rect.Hi.Y, est)
		}
	}
	return src, nil
}

// v3NodeErr names what is wrong with arena node i, which failed the
// validation's combined check; pub is whether its count is released.
func v3NodeErr(i int, nd *tree.Node, pub bool) error {
	switch {
	case !finiteRect(flattenRect(nd.Rect)):
		return fmt.Errorf("core: release node %d has non-finite rect", i)
	case !nd.Rect.Valid():
		return fmt.Errorf("core: release node %d has inverted rect", i)
	case pub && !finite(nd.Est):
		return fmt.Errorf("core: release node %d has non-finite count", i)
	}
	return nil
}

// v3ChunkNodes is the number of records in one chunk of the writer:
// 1638 records are 65520 bytes, a chunk that stays in cache from the
// encoder to the checksum and the destination write.
const v3ChunkNodes = 1638

// v3ChunkBytes is a chunk buffer's size.
const v3ChunkBytes = v3ChunkNodes * v3RecordSize

// v3Out delivers the artifact to its destination, checksumming every byte
// it is handed through put and counting exactly the bytes the destination
// accepted: n is what actually reached w — on a mid-stream failure
// included. After the first failure nothing more is handed to w.
type v3Out struct {
	w   io.Writer
	crc uint64 // CRC-64/ECMA of the bytes put so far
	n   int64  // bytes the destination accepted
	err error  // first destination error, short writes included
}

// put checksums p and writes it.
func (o *v3Out) put(p []byte) {
	if o.err != nil {
		return
	}
	o.crc = checksum.Update(o.crc, checksum.ECMA, p)
	o.emit(p)
}

// emit writes p without checksumming it (the footer).
func (o *v3Out) emit(p []byte) {
	if o.err != nil || len(p) == 0 {
		return
	}
	n, err := o.w.Write(p)
	n = min(max(n, 0), len(p))
	o.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	o.err = err
}

// writeV3 is the format-v3 writer, returning the number of bytes that
// reached w. With workers > 1 and at least three chunks of records, up to
// workers goroutines encode chunks into a ring of buffers while the caller
// checksums and writes them in order; the bytes are the same either way.
func writeV3(w io.Writer, src *v3Source, workers int) (int64, error) {
	o := &v3Out{w: w}
	n := src.nodes
	lay := v3LayoutFor(n)
	numPruned := 0
	for _, word := range src.pruned {
		numPruned += bits.OnesCount64(word)
	}

	var hdr [v3HeaderSize]byte
	copy(hdr[0:4], v3Magic[:])
	hdr[4] = v3Version
	hdr[5] = byte(src.kind)
	hdr[6] = 4
	hdr[7] = byte(src.height)
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(src.epsilon))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(src.domain.Lo.X))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(src.domain.Lo.Y))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(src.domain.Hi.X))
	binary.LittleEndian.PutUint64(hdr[40:], math.Float64bits(src.domain.Hi.Y))
	binary.LittleEndian.PutUint32(hdr[48:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[52:], uint32(numPruned))
	o.put(hdr[:])

	buf := o.records(src, workers)

	// The sections after the records (padding, the two bitsets, padding)
	// are staged through one chunk buffer.
	b := buf[:0]
	stage := func(k int) {
		if len(b)+k > cap(b) {
			o.put(b)
			b = b[:0]
		}
	}
	zeros := func(k int) {
		stage(k) // k < 64: padding never outgrows a chunk
		b = append(b, make([]byte, k)...)
	}
	zeros(int(lay.usableOff - lay.recordsEnd))
	for _, word := range src.usable {
		stage(8)
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	zeros(int(lay.prunedOff - (lay.usableOff + lay.bitsetLen)))
	for _, word := range src.pruned {
		stage(8)
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	zeros(int(lay.footerOff - (lay.prunedOff + lay.bitsetLen)))
	o.put(b)

	// The checksum covers everything before the footer.
	var ft [v3FooterSize]byte
	binary.LittleEndian.PutUint64(ft[0:8], o.crc)
	copy(ft[8:], v3FooterMagic[:])
	o.emit(ft[:])
	return o.n, o.err
}

// v3Slot is one buffer of the writer's ring; done signals that the chunk
// handed out for it is encoded into buf.
type v3Slot struct {
	buf  []byte
	done chan struct{}
}

// records writes the record section through o and returns a free chunk
// buffer. Chunk k is encoded into slot k mod len(ring); the caller hands
// out chunk k+len(ring) only once it has written chunk k, so a slot is
// never encoded into while its bytes are being written, and each slot has
// at most one result pending. On a write failure the caller stops handing
// out chunks, the workers skip what is queued, and every worker has
// returned before records does.
func (o *v3Out) records(src *v3Source, workers int) []byte {
	n := src.nodes
	chunks := (n + v3ChunkNodes - 1) / v3ChunkNodes
	span := func(k int) (lo, hi int) {
		lo = k * v3ChunkNodes
		return lo, min(lo+v3ChunkNodes, n)
	}
	workers = min(workers, chunks-1)
	if workers < 2 {
		buf := make([]byte, v3ChunkBytes)
		for k := 0; k < chunks && o.err == nil; k++ {
			lo, hi := span(k)
			src.encode(buf, lo, hi)
			o.put(buf[:(hi-lo)*v3RecordSize])
		}
		return buf
	}

	ring := make([]v3Slot, workers+2)
	mem := make([]byte, len(ring)*v3ChunkBytes)
	for i := range ring {
		ring[i] = v3Slot{buf: mem[i*v3ChunkBytes : (i+1)*v3ChunkBytes], done: make(chan struct{}, 1)}
	}
	jobs := make(chan int, len(ring))
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for k := range jobs {
				slot := &ring[k%len(ring)]
				if !stop.Load() {
					lo, hi := span(k)
					src.encode(slot.buf, lo, hi)
				}
				slot.done <- struct{}{}
			}
		}()
	}
	for k := range min(len(ring), chunks) {
		jobs <- k
	}
	for k := range chunks {
		slot := &ring[k%len(ring)]
		<-slot.done
		lo, hi := span(k)
		o.put(slot.buf[:(hi-lo)*v3RecordSize])
		if o.err != nil {
			break
		}
		if next := k + len(ring); next < chunks {
			jobs <- next
		}
	}
	stop.Store(true)
	close(jobs)
	wg.Wait()
	return ring[0].buf
}

// WriteBinaryV3 serializes the release in format v3 after validating it.
func (r *Release) WriteBinaryV3(w io.Writer) (int64, error) {
	s, err := r.Slab()
	if err != nil {
		return 0, err
	}
	return s.WriteBinaryV3(w)
}

// parseV3Header validates a v3 header (magic already established) and
// returns the decoded fields. Every check runs before any node-sized
// allocation or mapping-sized slice is built.
func parseV3Header(hdr *[v3HeaderSize]byte) (kind Kind, height int, domain geom.Rect, epsilon float64, nodes, numPruned int, err error) {
	if hdr[4] != v3Version {
		return 0, 0, geom.Rect{}, 0, 0, 0, fmt.Errorf("core: unsupported binary release version %d", hdr[4])
	}
	if hdr[5] >= numKinds {
		return 0, 0, geom.Rect{}, 0, 0, 0, fmt.Errorf("core: unknown kind %d in binary release", hdr[5])
	}
	kind = Kind(hdr[5])
	nodes, err = checkShape(int(hdr[6]), int(hdr[7]))
	if err != nil {
		return 0, 0, geom.Rect{}, 0, 0, 0, err
	}
	height = int(hdr[7])
	epsilon = math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:]))
	if err = checkEpsilon(epsilon); err != nil {
		return 0, 0, geom.Rect{}, 0, 0, 0, err
	}
	var dom [4]float64
	for i := range dom {
		dom[i] = math.Float64frombits(binary.LittleEndian.Uint64(hdr[16+8*i:]))
	}
	if err = checkDomain(dom); err != nil {
		return 0, 0, geom.Rect{}, 0, 0, 0, err
	}
	if got := binary.LittleEndian.Uint32(hdr[48:]); got != uint32(nodes) {
		return 0, 0, geom.Rect{}, 0, 0, 0, fmt.Errorf("core: binary release declares %d nodes for a %d-node tree", got, nodes)
	}
	numPruned = int(binary.LittleEndian.Uint32(hdr[52:]))
	if numPruned < 0 || numPruned > nodes {
		return 0, 0, geom.Rect{}, 0, 0, 0, fmt.Errorf("core: binary release declares %d pruned nodes of %d", numPruned, nodes)
	}
	for _, b := range hdr[56:64] {
		if b != 0 {
			return 0, 0, geom.Rect{}, 0, 0, 0, fmt.Errorf("core: binary release has non-zero reserved header bytes")
		}
	}
	return kind, height, unflattenRect(dom), epsilon, nodes, numPruned, nil
}

// readBinaryV3 is the streaming (reader-based) v3 decoder: the portable
// path when mmap is unavailable, the host is big-endian, or the input is
// not a file. It decodes into fresh heap columns and enforces the full
// canonical-encoding contract — checksum, padding, tail bits, zeroed
// unpublished slots — so it accepts exactly the artifacts Verify would
// pass. The magic has already been consumed by ReadBinary.
func readBinaryV3(r io.Reader) (*Slab, error) {
	crc := checksum.New(checksum.ECMA)
	crc.Write(v3Magic[:])
	tr := io.TeeReader(r, crc)

	var hdr [v3HeaderSize]byte
	copy(hdr[0:4], v3Magic[:])
	if _, err := io.ReadFull(tr, hdr[4:]); err != nil {
		return nil, fmt.Errorf("core: reading binary release header: %w", err)
	}
	kind, height, domain, epsilon, nodes, numPruned, err := parseV3Header(&hdr)
	if err != nil {
		return nil, err
	}
	lay := v3LayoutFor(nodes)

	s := newSlab(kind, height, domain, epsilon)
	// Records stream through a bounded scratch (a multiple of the record
	// size, ~1MB) so the decode never doubles the peak.
	buf := make([]byte, v3RecordSize*min(nodes, 26214))
	for base := 0; base < nodes; {
		b := buf[:min(len(buf), v3RecordSize*(nodes-base))]
		if _, err := io.ReadFull(tr, b); err != nil {
			return nil, fmt.Errorf("core: reading binary release records: %w", err)
		}
		for i := 0; i < len(b)/v3RecordSize; i++ {
			nd := &s.nodes[base+i]
			for c := 0; c < 5; c++ {
				nd[c] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*v3RecordSize+8*c:]))
			}
		}
		base += len(b) / v3RecordSize
	}
	if err := readZeroPad(tr, int(lay.usableOff-lay.recordsEnd)); err != nil {
		return nil, err
	}
	if err := readBitsetWords(tr, s.usable, "published"); err != nil {
		return nil, err
	}
	if err := readZeroPad(tr, int(lay.prunedOff-(lay.usableOff+lay.bitsetLen))); err != nil {
		return nil, err
	}
	if err := readBitsetWords(tr, s.pruned, "pruned"); err != nil {
		return nil, err
	}
	if err := readZeroPad(tr, int(lay.footerOff-(lay.prunedOff+lay.bitsetLen))); err != nil {
		return nil, err
	}
	if err := checkBitsetTails(s.usable, s.pruned, nodes, numPruned); err != nil {
		return nil, err
	}
	if err := checkV3Nodes(s.nodes, s.usable, 0, nodes); err != nil {
		return nil, err
	}

	// The footer is read from the underlying reader, past the crc tee: the
	// checksum covers everything before it, itself excluded.
	var ft [v3FooterSize]byte
	if _, err := io.ReadFull(r, ft[:]); err != nil {
		return nil, fmt.Errorf("core: reading binary release footer: %w", err)
	}
	if got := binary.LittleEndian.Uint64(ft[0:8]); got != crc.Sum64() {
		return nil, fmt.Errorf("core: binary release checksum mismatch: footer %#x, body %#x", got, crc.Sum64())
	}
	if [8]byte(ft[8:16]) != v3FooterMagic {
		return nil, fmt.Errorf("core: bad footer magic %q in binary release", ft[8:16])
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	s.computeEffLeaves()
	s.finish()
	return s, nil
}

// readZeroPad consumes n section-padding bytes, requiring them zero.
func readZeroPad(r io.Reader, n int) error {
	var b [v3Align]byte
	for n > 0 {
		k := min(n, len(b))
		if _, err := io.ReadFull(r, b[:k]); err != nil {
			return fmt.Errorf("core: reading binary release padding: %w", err)
		}
		for _, c := range b[:k] {
			if c != 0 {
				return fmt.Errorf("core: binary release has non-zero section padding")
			}
		}
		n -= k
	}
	return nil
}

// readBitsetWords fills dst from its on-disk little-endian words.
func readBitsetWords(r io.Reader, dst bitset, name string) error {
	raw := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, raw); err != nil {
		return fmt.Errorf("core: reading binary release %s bitset: %w", name, err)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return nil
}

// checkBitsetTails enforces the canonical bitset contract: bits past the
// last node are zero in both bitsets, and the pruned popcount matches the
// header's declared count.
func checkBitsetTails(usable, pruned bitset, nodes, numPruned int) error {
	if tail := uint(nodes) & 63; tail != 0 {
		if usable[len(usable)-1]>>tail != 0 {
			return fmt.Errorf("core: binary release has published bits beyond node %d", nodes-1)
		}
		if pruned[len(pruned)-1]>>tail != 0 {
			return fmt.Errorf("core: binary release has pruned bits beyond node %d", nodes-1)
		}
	}
	got := 0
	for _, w := range pruned {
		got += bits.OnesCount64(w)
	}
	if got != numPruned {
		return fmt.Errorf("core: binary release declares %d pruned nodes but marks %d", numPruned, got)
	}
	return nil
}

// checkV3Nodes runs the per-node validation of Release.Validate on the
// packed records [lo, hi), plus the v3 canonicality rule: an unpublished
// node's count slot must be exactly zero bits (the decoder cannot
// force-zero a read-only mapping, so the writer must have). It names the
// first bad node.
func checkV3Nodes(recs [][5]float64, usable bitset, lo, hi int) error {
	for i := lo; i < hi; i++ {
		nd := &recs[i]
		if !finite(nd[0]) || !finite(nd[1]) || !finite(nd[2]) || !finite(nd[3]) {
			return fmt.Errorf("core: release node %d has non-finite rect", i)
		}
		if nd[0] > nd[2] || nd[1] > nd[3] {
			return fmt.Errorf("core: release node %d has inverted rect", i)
		}
		if usable.get(i) {
			if !finite(nd[4]) {
				return fmt.Errorf("core: release node %d has non-finite count", i)
			}
		} else if math.Float64bits(nd[4]) != 0 {
			return fmt.Errorf("core: release node %d is unpublished but has a non-zero count slot", i)
		}
	}
	return nil
}

// slabMapping owns one mmap'd artifact. Unmapping is idempotent: Close and
// the GC cleanup can race without a double-munmap.
type slabMapping struct {
	data []byte
	once sync.Once
	err  error
}

func (m *slabMapping) unmap() error {
	m.once.Do(func() { m.err = munmapBytes(m.data) })
	return m.err
}

// cleanupMapping is the GC fallback for slabs never explicitly Closed; the
// mapping (and the mapped file's inode) is released when the Slab becomes
// unreachable, so the serving registry can drop a replaced slab and let
// in-flight queries finish against the old pages.
func cleanupMapping(m *slabMapping) { m.unmap() }

// OpenSlabMmap opens a format-v3 artifact zero-copy: mmap(2), header and
// bitset validation, and pointer-free column slices aliased over the
// mapping. Open cost is independent of the node section's size — those
// pages fault in on first query. The node records are NOT validated here;
// call (*Slab).Verify for the deferred checksum + per-node pass, or use
// ReadBinary for a fully-validated heap decode. Fails (with
// errMmapUnsupported when the platform is the reason) on non-v3 artifacts,
// platforms without mmap, or big-endian hosts; OpenSlabFile in the public
// package falls back to the streaming decoder.
func OpenSlabMmap(path string) (*Slab, error) {
	if !mmapSupported {
		return nil, errMmapUnsupported
	}
	if !hostLittleEndian() {
		return nil, fmt.Errorf("core: mmap slab open requires a little-endian host")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < v3HeaderSize+v3FooterSize {
		return nil, fmt.Errorf("core: %s: %d bytes is too short for a v3 release", path, size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	m := &slabMapping{data: data}
	s, err := slabFromMapping(m)
	if err != nil {
		m.unmap()
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return s, nil
}

// slabFromMapping builds the aliased slab over a whole-file mapping.
func slabFromMapping(m *slabMapping) (*Slab, error) {
	data := m.data
	hdr := (*[v3HeaderSize]byte)(data[:v3HeaderSize])
	if [4]byte(hdr[0:4]) != v3Magic {
		return nil, fmt.Errorf("core: bad magic %q in binary release (mmap open needs format v3)", hdr[0:4])
	}
	kind, height, domain, epsilon, nodes, numPruned, err := parseV3Header(hdr)
	if err != nil {
		return nil, err
	}
	lay := v3LayoutFor(nodes)
	if int64(len(data)) != lay.size {
		return nil, fmt.Errorf("core: binary release is %d bytes, v3 layout requires %d", len(data), lay.size)
	}
	s := &Slab{kind: kind, height: height, domain: domain, epsilon: epsilon}
	s.initShape(height)
	s.nodes = castRecords(data[lay.recordsOff:lay.recordsEnd], nodes)
	s.usable = bitset(castWords(data[lay.usableOff : lay.usableOff+lay.bitsetLen]))
	s.pruned = bitset(castWords(data[lay.prunedOff : lay.prunedOff+lay.bitsetLen]))
	if err := checkBitsetTails(s.usable, s.pruned, nodes, numPruned); err != nil {
		return nil, err
	}
	s.computeEffLeaves()
	s.finish()
	s.mapped = m
	s.cleanup = runtime.AddCleanup(s, cleanupMapping, m)
	return s, nil
}

// Verify runs the deferred full-body validation on an mmap-opened slab:
// footer checksum over the whole body, zero padding, and the per-node
// checks the streaming decoder performs inline — and, in the same pass,
// the artifact's fingerprint (the checksum.Fingerprint CRC of every byte
// of the file; meaningful when err is nil). It reads every page of the
// mapping once (which is also an effective prefault before serving) and
// allocates nothing. On a slab that was decoded rather than mapped the
// contract already held at construction, so Verify is a no-op.
//
// On more than one core, a record section of at least verifySplitNodes
// records is verified in two halves at once: the second half on
// verifyHelper, the first on the caller; the halves' CRCs are joined with
// checksum.Combine. The findings, their precedence and the fingerprint
// are those of one sequential pass.
func (s *Slab) Verify() (fingerprint uint64, err error) {
	return s.verify(par.Workers(0))
}

// verifySplitNodes is the record count from which Verify splits its pass
// in two: 32768 records are 1.3 MB, far more work than the hand-off.
const verifySplitNodes = 1 << 15

// verify is Verify on up to two goroutines (one when workers < 2).
func (s *Slab) verify(workers int) (uint64, error) {
	s.ensureOpen()
	if s.mapped == nil {
		return 0, nil
	}
	data := s.mapped.data
	nodes := s.Len()
	lay := v3LayoutFor(nodes)
	// Precedence is checksum, then footer magic, then padding, then the
	// first bad node: a bad node is only remembered until the footer and
	// padding have passed.
	crc := checksum.Update(0, checksum.ECMA, data[:lay.recordsOff])
	fp := checksum.Update(0, checksum.Fingerprint, data[:lay.recordsOff])
	var nodeErr error
	if workers > 1 && nodes >= verifySplitNodes && verifyHelper.busy.TryLock() {
		mid := nodes / 2 / verifyChunkNodes * verifyChunkNodes
		verifyHelper.once.Do(startVerifyHelper)
		j := &verifyHelper.job
		j.s, j.lo, j.hi = s, mid, nodes
		j.start <- struct{}{}
		crc, fp, nodeErr = s.verifyRecords(crc, fp, 0, mid)
		<-j.done
		lenB := int64(nodes-mid) * v3RecordSize
		crc = checksum.Combine(crc, j.crc, lenB, checksum.ECMA)
		fp = checksum.Combine(fp, j.fp, lenB, checksum.Fingerprint)
		if nodeErr == nil {
			nodeErr = j.err
		}
		*j = verifyJob{start: j.start, done: j.done}
		verifyHelper.busy.Unlock()
	} else {
		crc, fp, nodeErr = s.verifyRecords(crc, fp, 0, nodes)
	}
	crc = checksum.Update(crc, checksum.ECMA, data[lay.recordsEnd:lay.footerOff])
	fp = checksum.Update(fp, checksum.Fingerprint, data[lay.recordsEnd:])
	ft := data[lay.footerOff:]
	if got := binary.LittleEndian.Uint64(ft[0:8]); got != crc {
		return 0, fmt.Errorf("core: binary release checksum mismatch: footer %#x, body %#x", got, crc)
	}
	if [8]byte(ft[8:16]) != v3FooterMagic {
		return 0, fmt.Errorf("core: bad footer magic %q in binary release", ft[8:16])
	}
	for _, span := range [][2]int64{
		{lay.recordsEnd, lay.usableOff},
		{lay.usableOff + lay.bitsetLen, lay.prunedOff},
		{lay.prunedOff + lay.bitsetLen, lay.footerOff},
	} {
		for _, b := range data[span[0]:span[1]] {
			if b != 0 {
				return 0, fmt.Errorf("core: binary release has non-zero section padding")
			}
		}
	}
	return fp, nodeErr
}

// verifyRecords continues crc (CRC-64/ECMA) and fp (the fingerprint) over
// the records of nodes [lo, hi), node-checking each chunk while it is
// still in cache; nodeErr names the first bad node of the range.
func (s *Slab) verifyRecords(crc, fp uint64, lo, hi int) (_, _ uint64, nodeErr error) {
	records := s.mapped.data[v3HeaderSize:]
	for c := lo; c < hi; c += verifyChunkNodes {
		end := min(c+verifyChunkNodes, hi)
		chunk := records[c*v3RecordSize : end*v3RecordSize]
		crc = checksum.Update(crc, checksum.ECMA, chunk)
		fp = checksum.Update(fp, checksum.Fingerprint, chunk)
		if nodeErr == nil {
			nodeErr = checkV3Nodes(s.nodes, s.usable, c, end)
		}
	}
	return crc, fp, nodeErr
}

// verifyHelper takes the second half of large Verify passes: one
// goroutine, started on first use and kept for the life of the process,
// and one preallocated job, so handing it work allocates nothing. busy
// makes the job exclusive; a Verify that finds it held runs both halves
// itself.
var verifyHelper struct {
	busy sync.Mutex
	once sync.Once
	job  verifyJob
}

// verifyJob is the helper's one job: the records [lo, hi) of s in, their
// CRCs (each from zero) and first bad node out.
type verifyJob struct {
	s       *Slab
	lo, hi  int
	crc, fp uint64
	err     error
	start   chan struct{}
	done    chan struct{}
}

func startVerifyHelper() {
	j := &verifyHelper.job
	j.start, j.done = make(chan struct{}), make(chan struct{})
	go func() {
		for range j.start {
			j.crc, j.fp, j.err = j.s.verifyRecords(0, 0, j.lo, j.hi)
			j.done <- struct{}{}
		}
	}()
}

// MappedSize is the byte size of an mmap-opened slab's artifact (0 for a
// decoded slab).
func (s *Slab) MappedSize() int64 {
	if s.mapped == nil {
		return 0
	}
	return int64(len(s.mapped.data))
}

// verifyChunkNodes is Verify's step: 1600 records are 64000 bytes, small
// enough to stay in cache across the checksum, the fingerprint and the
// node check, and a whole number of the checksum kernel's 64-byte blocks.
const verifyChunkNodes = 1600
