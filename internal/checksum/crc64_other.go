//go:build !amd64

package checksum

// useKernel is false: this platform has no folding kernel, so Update is
// hash/crc64.Update.
var useKernel = false

func foldCLMUL(state uint64, fold *[4]uint64, p []byte) (r0, r1 uint64) {
	panic("checksum: no folding kernel on this platform")
}
