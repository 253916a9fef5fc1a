// Package faultfs is a fault-injecting filesystem for the serving and
// ingest tiers' robustness tests. It implements the registry's filesystem
// seam (serve.FS, structurally) and the WAL's write-side seam (ingest.FS,
// structurally) over the real filesystem, but lets a test script failures
// per path: failed opens and stats, read errors after N bytes, truncated
// content served with a clean EOF, write errors after N appended bytes
// (with the prefix actually reaching the disk — a torn write), failed
// fsyncs, failed renames, and injected delays. Faults can be bounded (fire
// k times, then heal), which is how transient-versus-permanent
// classification, retry/backoff, and WAL self-healing are proven
// deterministically.
//
// The harness also counts opens per path, which is what pins the quarantine
// contract "never more than one decode attempt per file change": the test
// rescans a quarantined file many times and asserts the open count stayed
// put.
package faultfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"psd/internal/atomicfile"
)

// Fault describes what should go wrong for one path. The zero value injects
// nothing. Faults compose: a Delay applies before whatever failure follows.
type Fault struct {
	// OpenErr fails Open outright.
	OpenErr error
	// StatErr fails Stat outright.
	StatErr error
	// ReadErr, when non-nil, fails reads after ReadErrAfter bytes have been
	// served — a mid-stream I/O error, the transient-failure shape.
	ReadErr      error
	ReadErrAfter int
	// TruncateAt, when > 0, serves only the first TruncateAt bytes and then
	// a clean EOF — exactly what a reader sees after a partial (non-atomic)
	// write that was interrupted. The registry must classify this as
	// permanent corruption, not a retryable I/O error.
	TruncateAt int
	// WriteErr, when non-nil, fails appends through OpenAppend after
	// WriteErrAfter bytes have been accepted. The accepted prefix reaches
	// the real file — the torn-write shape an ENOSPC or a yanked disk
	// leaves, which is what the WAL's self-healing truncation must absorb.
	WriteErr      error
	WriteErrAfter int
	// SyncErr fails the file's Sync (fsync). A WAL append whose fsync fails
	// must not be acknowledged.
	SyncErr error
	// RenameErr fails Rename — the commit step of atomicfile-style segment
	// rotation.
	RenameErr error
	// Delay stalls Open and Stat — enough to hold a rescan mid-flight while
	// a test mutates the directory underneath it.
	Delay time.Duration
	// Times bounds how many faulted operations fire before the fault heals
	// itself (0 means forever). Each failed Open/Stat/Rename and each
	// faulted open of a truncating/erroring/appending file consumes one.
	Times int
}

// FS is the injectable filesystem. The zero value is not usable; call New.
type FS struct {
	mu     sync.Mutex
	faults map[string]*Fault
	opens  map[string]int
}

// New returns a fault-free FS over the real filesystem.
func New() *FS {
	return &FS{faults: make(map[string]*Fault), opens: make(map[string]int)}
}

// Set installs (or replaces) the fault for path.
func (f *FS) Set(path string, flt Fault) {
	f.mu.Lock()
	f.faults[path] = &flt
	f.mu.Unlock()
}

// Clear heals path.
func (f *FS) Clear(path string) {
	f.mu.Lock()
	delete(f.faults, path)
	f.mu.Unlock()
}

// OpenCount reports how many times path was opened — the decode-attempt
// counter of the quarantine tests (every registry decode attempt starts
// with exactly one Open).
func (f *FS) OpenCount(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens[path]
}

// ResetCounts zeroes every open counter.
func (f *FS) ResetCounts() {
	f.mu.Lock()
	f.opens = make(map[string]int)
	f.mu.Unlock()
}

// take fetches the active fault for path, consuming one bounded application
// if the fault would actually fire for this operation.
func (f *FS) take(path string) Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	flt := f.faults[path]
	if flt == nil {
		return Fault{}
	}
	out := *flt
	if flt.Times > 0 {
		flt.Times--
		if flt.Times == 0 {
			delete(f.faults, path)
		}
	}
	return out
}

// peek fetches the active fault without consuming an application (for
// operations the fault does not affect).
func (f *FS) peek(path string) Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if flt := f.faults[path]; flt != nil {
		return *flt
	}
	return Fault{}
}

// faulted reports whether flt would alter an Open (directly or through the
// reader it returns).
func openFaulted(flt Fault) bool {
	return flt.OpenErr != nil || flt.ReadErr != nil || flt.TruncateAt > 0
}

// Open implements the seam: the real file, filtered through path's fault.
func (f *FS) Open(name string) (io.ReadCloser, error) {
	f.mu.Lock()
	f.opens[name]++
	f.mu.Unlock()
	flt := f.peek(name)
	if openFaulted(flt) {
		flt = f.take(name)
	}
	if flt.Delay > 0 {
		time.Sleep(flt.Delay)
	}
	if flt.OpenErr != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: flt.OpenErr}
	}
	file, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	if flt.ReadErr == nil && flt.TruncateAt <= 0 {
		return file, nil
	}
	return &faultReader{file: file, fault: flt}, nil
}

// Stat implements the seam.
func (f *FS) Stat(name string) (fs.FileInfo, error) {
	flt := f.peek(name)
	if flt.StatErr != nil {
		flt = f.take(name)
	}
	if flt.Delay > 0 {
		time.Sleep(flt.Delay)
	}
	if flt.StatErr != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: flt.StatErr}
	}
	return os.Stat(name)
}

// Glob implements the seam (never faulted: directory listing is not an
// interesting failure surface for the registry — a missing file already
// covers it).
func (f *FS) Glob(pattern string) ([]string, error) {
	return filepath.Glob(pattern)
}

// faultReader serves a file through a read fault: clean EOF at TruncateAt,
// or ReadErr once ReadErrAfter bytes have been served.
type faultReader struct {
	file   *os.File
	fault  Fault
	served int
}

func (r *faultReader) Read(p []byte) (int, error) {
	// ReadErr wins over TruncateAt when both are set.
	if r.fault.ReadErr != nil {
		if r.served >= r.fault.ReadErrAfter {
			return 0, r.fault.ReadErr
		}
		if rem := r.fault.ReadErrAfter - r.served; len(p) > rem {
			p = p[:rem]
		}
	} else if r.fault.TruncateAt > 0 {
		if r.served >= r.fault.TruncateAt {
			return 0, io.EOF
		}
		if rem := r.fault.TruncateAt - r.served; len(p) > rem {
			p = p[:rem]
		}
	}
	n, err := r.file.Read(p)
	r.served += n
	return n, err
}

func (r *faultReader) Close() error { return r.file.Close() }

// appendFaulted reports whether flt would alter an OpenAppend (directly or
// through the writer it returns).
func appendFaulted(flt Fault) bool {
	return flt.OpenErr != nil || flt.WriteErr != nil || flt.SyncErr != nil
}

// OpenAppend implements the ingest seam: the real file opened for appending
// (created if absent), filtered through path's write faults.
func (f *FS) OpenAppend(name string) (io.WriteCloser, error) {
	f.mu.Lock()
	f.opens[name]++
	f.mu.Unlock()
	flt := f.peek(name)
	if appendFaulted(flt) {
		flt = f.take(name)
	}
	if flt.Delay > 0 {
		time.Sleep(flt.Delay)
	}
	if flt.OpenErr != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: flt.OpenErr}
	}
	file, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultWriter{file: file, path: name, fault: flt}, nil
}

// Rename implements the seam, honoring RenameErr.
func (f *FS) Rename(oldpath, newpath string) error {
	flt := f.peek(oldpath)
	if flt.RenameErr != nil {
		flt = f.take(oldpath)
	}
	if flt.RenameErr != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: flt.RenameErr}
	}
	return os.Rename(oldpath, newpath)
}

// Remove implements the seam (never faulted).
func (f *FS) Remove(name string) error { return os.Remove(name) }

// Truncate implements the seam (never faulted: it is the WAL's self-healing
// move, and a fault there is just the broken-WAL terminal state a test can
// reach through WriteErr already).
func (f *FS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements the seam (never faulted; per-file SyncErr covers the
// interesting ack-durability surface).
func (f *FS) SyncDir(dir string) error { return atomicfile.SyncDir(dir) }

// faultWriter appends through a write fault: WriteErr once WriteErrAfter
// bytes were accepted (the accepted prefix reaches the disk), SyncErr on
// Sync.
type faultWriter struct {
	file     *os.File
	path     string
	fault    Fault
	accepted int
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.fault.WriteErr != nil && w.accepted+len(p) > w.fault.WriteErrAfter {
		keep := w.fault.WriteErrAfter - w.accepted
		if keep < 0 {
			keep = 0
		}
		n := 0
		if keep > 0 {
			var err error
			n, err = w.file.Write(p[:keep])
			w.accepted += n
			if err != nil {
				return n, err
			}
		}
		return n, &fs.PathError{Op: "write", Path: w.path, Err: w.fault.WriteErr}
	}
	n, err := w.file.Write(p)
	w.accepted += n
	return n, err
}

func (w *faultWriter) Sync() error {
	if w.fault.SyncErr != nil {
		return &fs.PathError{Op: "sync", Path: w.path, Err: w.fault.SyncErr}
	}
	return w.file.Sync()
}

func (w *faultWriter) Close() error { return w.file.Close() }
