#include "textflag.h"

// func cpuidECX(leaf uint32) uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+8(FP)
	RET

// func foldCLMUL(state uint64, fold *[4]uint64, p []byte) (r0, r1 uint64)
//
// Registers hold bytes in message order, so with a reflected polynomial a
// lane's low qword H carries the high-degree terms: lane = H·x^64 + L.
// PCLMULQDQ of two reflected 64-bit values is their product times x, so
// folding a lane forward by D bits multiplies H by x^(D+63) and L by
// x^(D-1): fold[0], fold[1] for D = 512, fold[2], fold[3] for D = 128.
TEXT ·foldCLMUL(SB), NOSPLIT, $0-56
	MOVQ state+0(FP), X0
	MOVQ fold+8(FP), AX
	MOVQ p_base+16(FP), SI
	MOVQ p_len+24(FP), CX

	// The first block seeds the four lanes; the CRC state is XORed into
	// its first 8 bytes.
	MOVOU 0(SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	JZ    lanes

	MOVOU 0(AX), X0

blocks:
	MOVO X1, X5
	MOVO X2, X6
	MOVO X3, X7
	MOVO X4, X8

	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x00, X0, X2
	PCLMULQDQ $0x00, X0, X3
	PCLMULQDQ $0x00, X0, X4

	MOVOU 0(SI), X9
	MOVOU 16(SI), X10
	MOVOU 32(SI), X11
	MOVOU 48(SI), X12

	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8

	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	PXOR X8, X4

	PXOR X9, X1
	PXOR X10, X2
	PXOR X11, X3
	PXOR X12, X4

	ADDQ $64, SI
	SUBQ $64, CX
	JNZ  blocks

	// Fold lane 1 into lane 2, that into lane 3, that into lane 4.
lanes:
	MOVOU 16(AX), X0

	MOVO      X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVO      X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVO      X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	MOVQ   X1, r0+40(FP)
	PSHUFD $0xee, X1, X1
	MOVQ   X1, r1+48(FP)
	RET
