package ingest

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"

	"psd/internal/atomicfile"
)

// FS is the ingest tier's filesystem seam: every byte the WAL writes or
// replays flows through it. Production uses the real filesystem (osFS); the
// fault suite swaps in faultfs.FS (which implements this interface
// structurally) to make appends tear, fsyncs fail, and rotations refuse —
// deterministically, under -race.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent. The
	// returned writer must also implement Sync() error (fsync); the WAL
	// checks once at open time and refuses a seam that cannot sync, because
	// an unsyncable WAL cannot acknowledge anything.
	OpenAppend(name string) (io.WriteCloser, error)
	Open(name string) (io.ReadCloser, error)
	Stat(name string) (iofs.FileInfo, error)
	Glob(pattern string) ([]string, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and creations in it
	// durable.
	SyncDir(dir string) error
}

// syncer is the fsync capability OpenAppend's writer must carry.
type syncer interface{ Sync() error }

// syncWriter is an append handle whose Sync capability has been verified.
type syncWriter struct {
	io.WriteCloser
	syncer
}

// openSync opens name for appending through fsys and verifies the handle
// can fsync.
func openSync(fsys FS, name string) (*syncWriter, error) {
	w, err := fsys.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	s, ok := w.(syncer)
	if !ok {
		_ = w.Close() // nothing was written through the handle
		return nil, fmt.Errorf("ingest: filesystem seam's append handle for %s cannot fsync", name)
	}
	return &syncWriter{WriteCloser: w, syncer: s}, nil
}

// osFS is the real filesystem, the default seam.
type osFS struct{}

func (osFS) OpenAppend(name string) (io.WriteCloser, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}
func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }
func (osFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }
func (osFS) Glob(pattern string) ([]string, error)   { return filepath.Glob(pattern) }
func (osFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error  { return os.Truncate(name, size) }
func (osFS) SyncDir(dir string) error                { return atomicfile.SyncDir(dir) }
