//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func combineAVX2(d []float64, x [][]float64, w []float64)
//
// For each chunk of eight columns, Y0 and Y1 start at +0 and add
// w[t]·x[t][c..c+7] for t = 0, 1, ...: one VMULPD then one VADDPD per
// term and lane, never a fused multiply-add.
TEXT ·combineAVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), SI
	SHRQ $3, SI                  // chunks
	JZ   combineDone
	MOVQ x_base+24(FP), R8
	MOVQ x_len+32(FP), R9        // terms, >= 1
	MOVQ w_base+48(FP), R10
	XORQ CX, CX                  // byte offset of the chunk

combineChunk:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R8, AX                // &x[t]
	MOVQ   R10, BX               // &w[t]
	MOVQ   R9, DX

	PCALIGN $32

combineTerm:
	MOVQ         (AX), R11       // x[t]'s base
	VBROADCASTSD (BX), Y4
	VMULPD       (R11)(CX*1), Y4, Y2
	VADDPD       Y2, Y0, Y0
	VMULPD       32(R11)(CX*1), Y4, Y3
	VADDPD       Y3, Y1, Y1
	ADDQ         $24, AX
	ADDQ         $8, BX
	DECQ         DX
	JNZ          combineTerm

	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	ADDQ    $64, CX
	DECQ    SI
	JNZ     combineChunk
	VZEROUPPER

combineDone:
	RET

// func deinterleaveAVX2(e, o, x []float64)
//
// For each block of eight samples of x, the four even ones go to e and
// the four odd ones to o.
TEXT ·deinterleaveAVX2(SB), NOSPLIT, $0-72
	MOVQ e_base+0(FP), DI
	MOVQ e_len+8(FP), CX
	SHRQ $2, CX                  // blocks
	JZ   deinterleaveDone
	MOVQ o_base+24(FP), SI
	MOVQ x_base+48(FP), DX

	PCALIGN $32

deinterleaveBlock:
	VMOVUPD   (DX), Y0           // x0 x1 x2 x3
	VMOVUPD   32(DX), Y1         // x4 x5 x6 x7
	VUNPCKLPD Y1, Y0, Y2         // x0 x4 x2 x6
	VUNPCKHPD Y1, Y0, Y3         // x1 x5 x3 x7
	VPERMPD   $0xD8, Y2, Y2      // x0 x2 x4 x6
	VPERMPD   $0xD8, Y3, Y3      // x1 x3 x5 x7
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y3, (SI)
	ADDQ      $64, DX
	ADDQ      $32, DI
	ADDQ      $32, SI
	DECQ      CX
	JNZ       deinterleaveBlock
	VZEROUPPER

deinterleaveDone:
	RET

// func mergeAVX2(out, l, h, lo, hi []float64)
//
// For each block of four pairs, Y0 holds the even outputs and Y1 the
// odd ones, both started at +0. Each channel adds its extra even tap
// when its length is odd, then taps t = te..0: f[2t] and f[2t+1] times
// the same four sources, which advance by one sample per tap. The
// block is then interleaved into e0 o0 e1 o1 | e2 o2 e3 o3.
TEXT ·mergeAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX                  // blocks
	JZ   mergeDone
	MOVQ l_base+24(FP), SI
	MOVQ h_base+48(FP), DX
	MOVQ lo_base+72(FP), R8
	MOVQ lo_len+80(FP), R9       // >= 2
	MOVQ hi_base+96(FP), R10
	MOVQ hi_len+104(FP), R11     // >= 2

mergeBlock:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	// RecLo over l.
	MOVQ SI, AX                  // source cursor
	MOVQ R9, BX
	SHRQ $1, BX                  // pair taps
	MOVQ R9, R12
	ANDQ $-2, R12
	LEAQ -16(R8)(R12*8), R12     // &lo[2·te] for the first pair tap
	TESTQ $1, R9
	JZ    mergeLoTap
	VBROADCASTSD -8(R8)(R9*8), Y2  // the extra even tap lo[len-1]
	VMULPD       (AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	ADDQ         $8, AX

	PCALIGN $32

mergeLoTap:
	VBROADCASTSD (R12), Y2
	VBROADCASTSD 8(R12), Y3
	VMOVUPD      (AX), Y4
	VMULPD       Y4, Y2, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       Y4, Y3, Y6
	VADDPD       Y6, Y1, Y1
	ADDQ         $8, AX
	SUBQ         $16, R12
	DECQ         BX
	JNZ          mergeLoTap

	// RecHi over h.
	MOVQ DX, AX
	MOVQ R11, BX
	SHRQ $1, BX
	MOVQ R11, R12
	ANDQ $-2, R12
	LEAQ -16(R10)(R12*8), R12
	TESTQ $1, R11
	JZ    mergeHiTap
	VBROADCASTSD -8(R10)(R11*8), Y2
	VMULPD       (AX), Y2, Y3
	VADDPD       Y3, Y0, Y0
	ADDQ         $8, AX

	PCALIGN $32

mergeHiTap:
	VBROADCASTSD (R12), Y2
	VBROADCASTSD 8(R12), Y3
	VMOVUPD      (AX), Y4
	VMULPD       Y4, Y2, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       Y4, Y3, Y6
	VADDPD       Y6, Y1, Y1
	ADDQ         $8, AX
	SUBQ         $16, R12
	DECQ         BX
	JNZ          mergeHiTap

	VUNPCKLPD  Y1, Y0, Y2        // e0 o0 | e2 o2
	VUNPCKHPD  Y1, Y0, Y3        // e1 o1 | e3 o3
	VPERM2F128 $0x20, Y3, Y2, Y4 // e0 o0 e1 o1
	VPERM2F128 $0x31, Y3, Y2, Y5 // e2 o2 e3 o3
	VMOVUPD    Y4, (DI)
	VMOVUPD    Y5, 32(DI)
	ADDQ       $32, SI
	ADDQ       $32, DX
	ADDQ       $64, DI
	DECQ       CX
	JNZ        mergeBlock
	VZEROUPPER

mergeDone:
	RET
