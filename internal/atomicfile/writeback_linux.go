//go:build linux && (amd64 || arm64)

package atomicfile

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages without waiting for it.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to begin writing f's bytes [off, off+n)
// to disk. It is a hint: an error is ignored, since the fsync that makes
// the file durable follows regardless.
func startWriteback(f *os.File, off, n int64) {
	_, _, _ = syscall.Syscall6(syscall.SYS_SYNC_FILE_RANGE, f.Fd(), uintptr(off), uintptr(n), syncFileRangeWrite, 0, 0)
}
