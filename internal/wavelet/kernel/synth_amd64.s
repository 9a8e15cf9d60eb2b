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

// func combinePairAVX2(d0, d1 []float64, x [][]float64, w []float64, lead uint64)
//
// For each chunk of eight columns, Y0 and Y1 (row 0) and Y2 and Y3
// (row 1) start at +0. Per term t the chunk's sources are loaded once;
// row 0 adds w[2t] times them, then, unless the term's lead bit is set,
// row 1 adds w[2t+1] times them: one VMULPD then one VADDPD per term,
// row and lane, never a fused multiply-add.
TEXT ·combinePairAVX2(SB), NOSPLIT, $0-104
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), SI
	SHRQ $3, SI                  // chunks
	JZ   pairDone
	MOVQ d1_base+24(FP), R13
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), R9        // terms, 1..maxPairTerms
	MOVQ w_base+72(FP), R10
	XORQ CX, CX                  // byte offset of the chunk

pairChunk:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, AX                // &x[t]
	MOVQ   R10, BX               // &w[2t]
	MOVQ   lead+96(FP), R12      // lead bits, bit t at bit 0
	MOVQ   R9, DX

	PCALIGN $32

pairTerm:
	MOVQ         (AX), R11       // x[t]'s base
	VMOVUPD      (R11)(CX*1), Y4
	VMOVUPD      32(R11)(CX*1), Y5
	VBROADCASTSD (BX), Y6
	VMULPD       Y4, Y6, Y7
	VADDPD       Y7, Y0, Y0
	VMULPD       Y5, Y6, Y8
	VADDPD       Y8, Y1, Y1
	SHRQ         $1, R12
	JCS          pairNext        // a lead term: row 0 only
	VBROADCASTSD 8(BX), Y9
	VMULPD       Y4, Y9, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y5, Y9, Y11
	VADDPD       Y11, Y3, Y3

pairNext:
	ADDQ $24, AX
	ADDQ $16, BX
	DECQ DX
	JNZ  pairTerm

	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	VMOVUPD Y2, (R13)(CX*1)
	VMOVUPD Y3, 32(R13)(CX*1)
	ADDQ    $64, CX
	DECQ    SI
	JNZ     pairChunk
	VZEROUPPER

pairDone:
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
// For each block of eight pairs, Y0 and Y2 hold the even outputs of
// pairs 0-3 and 4-7, Y1 and Y3 the odd ones, all started at +0. Each
// channel adds its extra even tap when its length is odd, then taps
// t = te..0: f[2t] and f[2t+1] times the same eight sources, which
// advance by one sample per tap. Each half-block is then interleaved
// into e0 o0 e1 o1 | e2 o2 e3 o3.
TEXT ·mergeAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $4, CX                  // blocks
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
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	// RecLo over l.
	MOVQ SI, AX                  // source cursor
	MOVQ R9, BX
	SHRQ $1, BX                  // pair taps
	MOVQ R9, R12
	ANDQ $-2, R12
	LEAQ -16(R8)(R12*8), R12     // &lo[2·te] for the first pair tap
	TESTQ $1, R9
	JZ    mergeLoTap
	VBROADCASTSD -8(R8)(R9*8), Y4  // the extra even tap lo[len-1]
	VMULPD       (AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(AX), Y4, Y6
	VADDPD       Y6, Y2, Y2
	ADDQ         $8, AX

	PCALIGN $32

mergeLoTap:
	VBROADCASTSD (R12), Y4
	VBROADCASTSD 8(R12), Y5
	VMOVUPD      (AX), Y6
	VMOVUPD      32(AX), Y7
	VMULPD       Y6, Y4, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y6, Y5, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y7, Y4, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y7, Y5, Y11
	VADDPD       Y11, Y3, Y3
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
	VBROADCASTSD -8(R10)(R11*8), Y4
	VMULPD       (AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(AX), Y4, Y6
	VADDPD       Y6, Y2, Y2
	ADDQ         $8, AX

	PCALIGN $32

mergeHiTap:
	VBROADCASTSD (R12), Y4
	VBROADCASTSD 8(R12), Y5
	VMOVUPD      (AX), Y6
	VMOVUPD      32(AX), Y7
	VMULPD       Y6, Y4, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y6, Y5, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y7, Y4, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y7, Y5, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         $8, AX
	SUBQ         $16, R12
	DECQ         BX
	JNZ          mergeHiTap

	VUNPCKLPD  Y1, Y0, Y4        // e0 o0 | e2 o2
	VUNPCKHPD  Y1, Y0, Y5        // e1 o1 | e3 o3
	VPERM2F128 $0x20, Y5, Y4, Y6 // e0 o0 e1 o1
	VPERM2F128 $0x31, Y5, Y4, Y7 // e2 o2 e3 o3
	VMOVUPD    Y6, (DI)
	VMOVUPD    Y7, 32(DI)
	VUNPCKLPD  Y3, Y2, Y4        // e4 o4 | e6 o6
	VUNPCKHPD  Y3, Y2, Y5        // e5 o5 | e7 o7
	VPERM2F128 $0x20, Y5, Y4, Y6 // e4 o4 e5 o5
	VPERM2F128 $0x31, Y5, Y4, Y7 // e6 o6 e7 o7
	VMOVUPD    Y6, 64(DI)
	VMOVUPD    Y7, 96(DI)
	ADDQ       $64, SI
	ADDQ       $64, DX
	ADDQ       $128, DI
	DECQ       CX
	JNZ        mergeBlock
	VZEROUPPER

mergeDone:
	RET
