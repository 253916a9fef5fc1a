package serve

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"psd"
	"psd/internal/checksum"
)

// FS is the registry's filesystem seam: every byte the watch-dir scanner and
// file loader touch flows through it. Production uses the real filesystem
// (osFS); the fault-injection tests swap in faultfs.FS to make I/O fail,
// truncate, or stall on demand, which is how the quarantine, retry, and
// partial-write behavior is proven deterministically.
type FS interface {
	Open(name string) (io.ReadCloser, error)
	Stat(name string) (fs.FileInfo, error)
	Glob(pattern string) ([]string, error)
}

// slabMapper is an optional FS capability: map and verify a v3 artifact
// (psd.MapSlabFile; a nil slab leaves the file to the reader path). The
// real filesystem implements it; faultfs does not, so the fault-injection
// suite keeps exercising the byte-level reader path.
type slabMapper interface {
	MapSlab(path string) (*psd.Slab, uint64, int64, error)
}

// osFS is the real filesystem, the default seam.
type osFS struct{}

func (osFS) Open(name string) (io.ReadCloser, error)               { return os.Open(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)                 { return os.Stat(name) }
func (osFS) Glob(pattern string) ([]string, error)                 { return filepath.Glob(pattern) }
func (osFS) MapSlab(path string) (*psd.Slab, uint64, int64, error) { return psd.MapSlabFile(path) }

// artifactReader wraps an artifact stream on the reader path. It counts
// and fingerprints every byte read, and remembers whether any read failed
// with a genuine I/O error (as opposed to a clean EOF). That distinction
// separates transient failures from permanent corruption during quarantine
// classification: a decode error over a cleanly-read byte stream means the
// bytes themselves are bad (retrying cannot help until the file changes),
// while a decode error after EIO means the read may simply be retried.
type artifactReader struct {
	r     io.Reader
	n     int64
	fp    uint64
	ioErr error
}

func (a *artifactReader) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	a.n += int64(n)
	a.fp = checksum.Update(a.fp, checksum.Fingerprint, p[:n])
	if err != nil && err != io.EOF {
		a.ioErr = err
	}
	return n, err
}
