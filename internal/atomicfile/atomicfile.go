// Package atomicfile writes files crash-safely. A release artifact is
// published by writing it somewhere a server's watch-dir rescan will pick it
// up — and a rescan that runs mid-write must never see half an artifact. The
// classic discipline: stream into a hidden temp file in the destination
// directory (same filesystem, so the final step can be a rename), fsync it,
// then atomically rename it over the destination. Readers see either the old
// complete file or the new complete file, never a prefix; a crash at any
// point leaves at worst a hidden temp file behind, which directory globs for
// published artifacts do not match.
//
// A large file's writeback starts while it is still being written: every
// 8 MiB, Write asks the kernel to begin writing the bytes behind it to
// disk (sync_file_range(SYNC_FILE_RANGE_WRITE) on Linux; nothing
// elsewhere). That request is only a head start, never a durability step:
// the file fsync, the rename and the directory fsync are exactly as above,
// and the closing fsync then mostly waits for the tail.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// Write streams write's output into path atomically, returning the byte
// count. On any failure the destination is untouched (whatever was at path
// before is still there) and the temp file is removed.
func Write(path string, write func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	n, err := writeTo(tmp, write)
	if err != nil {
		_ = tmp.Close() // the write error wins; the temp file is discarded
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	// Sync the directory so the rename itself survives a crash. Best-effort:
	// some filesystems refuse directory fsync, and the data is already safe.
	_ = SyncDir(dir)
	return n, nil
}

// SyncDir fsyncs a directory, making the creations and renames in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeTo fills the temp file: buffered write (starting writeback as it
// goes), flush, fsync, then the mode fix-up (CreateTemp defaults to 0600;
// published artifacts are world-readable like any os.Create output).
func writeTo(tmp *os.File, write func(io.Writer) error) (int64, error) {
	bw := bufio.NewWriter(&writeback{f: tmp})
	if err := write(bw); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return 0, err
	}
	info, err := tmp.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// writebackEvery is how many written bytes Write lets accumulate before it
// starts their writeback.
const writebackEvery = 8 << 20

// writeback passes writes through to f and starts the writeback of every
// writebackEvery bytes written.
type writeback struct {
	f       *os.File
	written int64 // bytes written so far
	started int64 // bytes whose writeback has been started
}

func (w *writeback) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.written += int64(n)
	if w.written-w.started >= writebackEvery {
		startWriteback(w.f, w.started, w.written-w.started)
		w.started = w.written
	}
	return n, err
}
