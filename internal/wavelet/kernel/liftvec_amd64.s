//go:build amd64 && !purego

#include "textflag.h"

// liftMask is four enabled lanes then four disabled ones: the four
// qwords at liftMask+32-8m enable the first m lanes, 0 <= m <= 4.
DATA liftMask<>+0(SB)/8, $-1
DATA liftMask<>+8(SB)/8, $-1
DATA liftMask<>+16(SB)/8, $-1
DATA liftMask<>+24(SB)/8, $-1
DATA liftMask<>+32(SB)/8, $0
DATA liftMask<>+40(SB)/8, $0
DATA liftMask<>+48(SB)/8, $0
DATA liftMask<>+56(SB)/8, $0
GLOBL liftMask<>(SB), RODATA|NOPTR, $64

// func liftAVX2(out, d []float64, x [][]float64, t []float64, c float64, mode int)
//
// For each chunk of eight samples, Y0 and Y1 load d. With taps, Y2 and
// Y3 take t[0]·x[0] (plus +0 under liftZero, mode bit 0) and then add
// t[j]·x[j] for j = 1, 2, ...: one VMULPD then one VADDPD per term and
// lane, never a fused multiply-add. d adds the sum, and under
// liftScale (mode bit 1) the result is multiplied by c. The last
// len(out)%8 samples run the same sequence as one chunk of masked
// loads and stores.
TEXT ·liftAVX2(SB), NOSPLIT, $0-112
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), SI   // samples left
	MOVQ         d_base+24(FP), DX
	MOVQ         x_base+48(FP), R8
	MOVQ         x_len+56(FP), R9    // taps
	MOVQ         t_base+72(FP), R10
	VBROADCASTSD c+96(FP), Y13
	MOVQ         mode+104(FP), R13
	VXORPD       Y12, Y12, Y12       // +0
	XORQ         CX, CX              // byte offset of the chunk
	CMPQ         SI, $8
	JB           liftTail

	PCALIGN $32

liftChunk:
	VMOVUPD      (DX)(CX*1), Y0
	VMOVUPD      32(DX)(CX*1), Y1
	TESTQ        R9, R9
	JZ           liftChunkScale
	MOVQ         (R8), R11           // x[0]'s base
	VBROADCASTSD (R10), Y4
	VMULPD       (R11)(CX*1), Y4, Y2
	VMULPD       32(R11)(CX*1), Y4, Y3
	TESTQ        $1, R13
	JZ           liftChunkFirst
	VADDPD       Y2, Y12, Y2
	VADDPD       Y3, Y12, Y3

liftChunkFirst:
	LEAQ 24(R8), AX                  // &x[1]
	LEAQ 8(R10), BX                  // &t[1]
	LEAQ -1(R9), R12
	TESTQ R12, R12
	JZ   liftChunkSum

liftChunkTerm:
	MOVQ         (AX), R11
	VBROADCASTSD (BX), Y4
	VMULPD       (R11)(CX*1), Y4, Y5
	VADDPD       Y5, Y2, Y2
	VMULPD       32(R11)(CX*1), Y4, Y6
	VADDPD       Y6, Y3, Y3
	ADDQ         $24, AX
	ADDQ         $8, BX
	DECQ         R12
	JNZ          liftChunkTerm

liftChunkSum:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1

liftChunkScale:
	TESTQ  $2, R13
	JZ     liftChunkStore
	VMULPD Y13, Y0, Y0
	VMULPD Y13, Y1, Y1

liftChunkStore:
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	ADDQ    $64, CX
	SUBQ    $8, SI
	CMPQ    SI, $8
	JAE     liftChunk

liftTail:
	TESTQ SI, SI
	JZ    liftDone

	// Y10 and Y11 enable the first min(left, 4) and the next left-4
	// lanes: the loads leave the other lanes 0 and the stores skip them.
	MOVQ       SI, BX
	CMPQ       BX, $4
	JLS        liftTailMask
	MOVQ       $4, BX

liftTailMask:
	MOVQ       SI, R12
	SUBQ       BX, R12
	SHLQ       $3, BX
	SHLQ       $3, R12
	LEAQ       liftMask<>+32(SB), AX
	MOVQ       AX, R11
	SUBQ       BX, AX
	SUBQ       R12, R11
	VMOVUPD    (AX), Y10
	VMOVUPD    (R11), Y11
	VMASKMOVPD (DX)(CX*1), Y10, Y0
	VMASKMOVPD 32(DX)(CX*1), Y11, Y1
	TESTQ      R9, R9
	JZ         liftTailScale
	MOVQ       (R8), R11
	VBROADCASTSD (R10), Y4
	VMASKMOVPD (R11)(CX*1), Y10, Y2
	VMASKMOVPD 32(R11)(CX*1), Y11, Y3
	VMULPD     Y2, Y4, Y2
	VMULPD     Y3, Y4, Y3
	TESTQ      $1, R13
	JZ         liftTailFirst
	VADDPD     Y2, Y12, Y2
	VADDPD     Y3, Y12, Y3

liftTailFirst:
	LEAQ  24(R8), AX
	LEAQ  8(R10), BX
	LEAQ  -1(R9), R12
	TESTQ R12, R12
	JZ    liftTailSum

liftTailTerm:
	MOVQ         (AX), R11
	VBROADCASTSD (BX), Y4
	VMASKMOVPD   (R11)(CX*1), Y10, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y2, Y2
	VMASKMOVPD   32(R11)(CX*1), Y11, Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y3, Y3
	ADDQ         $24, AX
	ADDQ         $8, BX
	DECQ         R12
	JNZ          liftTailTerm

liftTailSum:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1

liftTailScale:
	TESTQ  $2, R13
	JZ     liftTailStore
	VMULPD Y13, Y0, Y0
	VMULPD Y13, Y1, Y1

liftTailStore:
	VMASKMOVPD Y0, Y10, (DI)(CX*1)
	VMASKMOVPD Y1, Y11, 32(DI)(CX*1)

liftDone:
	VZEROUPPER
	RET
