package psd

import (
	"bufio"
	"errors"
	"io"
	"os"

	"psd/internal/core"
)

// WriteRelease serializes the tree's private release — the node rectangles
// and released counts, nothing else — as versioned JSON (format 1). The
// artifact is safe to publish: it is exactly the ε-differentially private
// output of the build, and contains no exact counts or raw points.
func (t *Tree) WriteRelease(w io.Writer) error {
	_, err := t.inner.Release().WriteTo(w)
	return err
}

// WriteBinaryV3Release serializes the tree's private release in the
// record-major binary format v3 — the same artifact as WriteRelease, laid
// out so that OpenSlabFile serves it zero-copy via mmap: the node section
// is exactly the serving slab's packed 40-byte records, 64-byte aligned,
// with a trailing CRC-64 checksum. It is the only binary encoding written;
// use it for artifacts a server will (re)load, and JSON where a human or
// another toolchain reads the release. Format v2 artifacts written by
// earlier versions stay readable by OpenSlab and OpenSlabFile.
func (t *Tree) WriteBinaryV3Release(w io.Writer) error {
	_, err := t.inner.Release().WriteBinaryV3(w)
	return err
}

// OpenSlab reconstructs the flat serving form of a serialized release,
// accepting every format — versioned JSON (format 1), the read-only binary
// columnar format v2, or the record-major format v3 — distinguished by the
// leading magic bytes. A binary artifact decodes straight into the slab
// columns. The result answers Count and Regions exactly as the tree that
// wrote the release did; it needs no access to the original data.
func OpenSlab(r io.Reader) (*Slab, error) {
	inner, err := openSlab(r)
	if err != nil {
		return nil, err
	}
	return &Slab{inner: inner}, nil
}

// OpenSlabFile opens a serialized release from a file, choosing the
// cheapest path the artifact and platform allow. A format-v3 artifact on a
// little-endian unix host is opened zero-copy: mmap(2) plus header and
// bitset validation, with the node records left on disk until queries
// fault them in — open cost is independent of artifact size, and replicas
// serving the same file share one page cache. Everything else (v2, JSON,
// v3 on platforms without mmap) is read and decoded as OpenSlab would.
//
// The zero-copy path does not read the node section, so it cannot check
// the artifact's checksum; call Verify afterwards to force the full-body
// validation pass (the serving registry does). Close the returned slab to
// unmap deterministically, or drop it and let the GC cleanup unmap.
func OpenSlabFile(path string) (*Slab, error) {
	inner, err := core.OpenSlabMmap(path)
	if err == nil {
		return &Slab{inner: inner}, nil
	}
	// A failure to open or stat the file would fail the read path the same
	// way: surface it. Anything else — not a v3 artifact, no mmap on this
	// platform, an mmap(2) refusal from an exotic filesystem — falls back
	// to reading and decoding, which also runs the full validation, so a
	// genuinely corrupt v3 artifact reports its precise decode error.
	var pe *os.PathError
	if errors.As(err, &pe) && pe.Op != "mmap" {
		return nil, err
	}
	f, ferr := os.Open(path)
	if ferr != nil {
		return nil, ferr
	}
	defer f.Close()
	return OpenSlab(f)
}

func openSlab(r io.Reader) (*core.Slab, error) {
	br := bufio.NewReader(r)
	prefix, _ := br.Peek(4)
	if core.SniffBinary(prefix) {
		return core.ReadBinary(br)
	}
	// Anything else (including too-short input) goes to the JSON reader,
	// which reports the parse error.
	return core.ReadSlab(br)
}
