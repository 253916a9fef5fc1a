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
	_, err := t.inner.WriteBinaryV3(w)
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
// validation pass, or use MapSlabFile, which runs it. Close the returned
// slab to unmap deterministically, or drop it and let the GC cleanup unmap.
func OpenSlabFile(path string) (*Slab, error) {
	if s, err := mapSlabFile(path); s != nil || err != nil {
		return s, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenSlab(f)
}

// MapSlabFile maps a format-v3 artifact and runs Verify's full-body pass,
// which also computes the artifact's fingerprint (CRC-64/ISO over every
// byte, the value psdingest journals and manifests pin). It returns the
// slab, the fingerprint and the file's size, having read the file once.
// For an artifact OpenSlabFile would decode instead (not v3, a bad v3
// header, no mmap here) it returns a nil slab and no error.
func MapSlabFile(path string) (s *Slab, fingerprint uint64, size int64, err error) {
	if s, err = mapSlabFile(path); s == nil {
		return nil, 0, 0, err
	}
	if fingerprint, err = s.inner.Verify(); err != nil {
		s.Close() // nothing else holds it: unmap eagerly
		return nil, 0, 0, err
	}
	return s, fingerprint, s.inner.MappedSize(), nil
}

// mapSlabFile maps a v3 artifact without verifying its body. A failure to
// open or stat the file is returned; anything else — not a v3 artifact, no
// mmap here, an mmap(2) refusal — returns (nil, nil), so a corrupt v3
// artifact reports its precise error from the decoder instead.
func mapSlabFile(path string) (*Slab, error) {
	inner, err := core.OpenSlabMmap(path)
	if err == nil {
		return &Slab{inner: inner}, nil
	}
	var pe *os.PathError
	if errors.As(err, &pe) && pe.Op != "mmap" {
		return nil, err
	}
	return nil, nil
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
