//go:build !(linux && (amd64 || arm64))

package atomicfile

import "os"

// startWriteback does nothing here: this platform gets no early writeback,
// and the closing fsync writes the whole file.
func startWriteback(f *os.File, off, n int64) {}
