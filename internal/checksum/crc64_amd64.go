package checksum

// This file declares the package's assembly (crc64_amd64.s); psdlint's
// unsafeconfine analyzer allows body-less declarations nowhere else.

// useKernel gates the folding kernel: PCLMULQDQ is CPUID leaf 1, ECX bit
// 1. The kernel uses nothing newer than SSE2 besides it. Tests clear it
// to run the portable path on the same inputs.
var useKernel = cpuidECX(1)&(1<<1) != 0

// cpuidECX returns ECX of CPUID leaf leaf (subleaf 0).
func cpuidECX(leaf uint32) uint32

// foldCLMUL folds p, whose length is a non-zero multiple of 64, to a
// 128-bit residue (r0 its first 8 bytes, r1 its last) congruent to p
// modulo the polynomial, after XORing state into p's first 8 bytes. fold
// is Table.fold.
func foldCLMUL(state uint64, fold *[4]uint64, p []byte) (r0, r1 uint64)
