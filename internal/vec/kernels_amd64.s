// AVX2 bodies of the leaf kernels. Each computes the same bits as the Go
// body it stands in for (vec.go, sparse/dia.go): chain j of a Go leaf is
// lane j of one register, every product is a VMULPD and every sum a
// VADDPD/VSUBPD — never a fused multiply-add, which rounds once where
// the Go bodies (gc does not fuse on amd64) round twice — and a tail
// shorter than one register goes element by element into lane 0.
//
// Every routine is a leaf: NOSPLIT, no frame, no calls, unaligned loads
// and stores only, VZEROUPPER before RET. The Go callers prove every
// operand in range before the call (see kernels_amd64.go).
//
// The DIA row kernel's wide trip does two things no Go body does, both
// without moving a bit: it applies a direction sweep's pending update to
// the x it will read, with xpayAVX2's operations in xpayAVX2's order,
// and it multiplies a diagonal that holds one value by a broadcast of
// that value in place of loading the stream.

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID.1:ECX bit 27 (OSXSAVE) and bit 28 (AVX), XCR0 bits 1-2 (the OS
// saves XMM and YMM state), CPUID.7.0:EBX bit 5 (AVX2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func dotLeafAVX2(x, y []float64) float64
//
// Y0 = (s0, s1, s2, s3). Sixteen elements per trip keep the loads and
// products ahead of the one add chain; the adds stay in element order.
TEXT ·dotLeafAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPD Y0, Y0, Y0

dot16:
	CMPQ    CX, $16
	JL      dot4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  (DI), Y1, Y1
	VMULPD  32(DI), Y2, Y2
	VMULPD  64(DI), Y3, Y3
	VMULPD  96(DI), Y4, Y4
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     dot16

dot4:
	CMPQ    CX, $4
	JL      dottail
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     dot4

dottail:
	// A VEX scalar op zeroes bits 128-255 of its destination: park
	// (s2, s3) in X2 before the tail runs on lane 0 of X0.
	VEXTRACTF128 $1, Y0, X2

dot1:
	TESTQ  CX, CX
	JZ     dotsum
	VMOVSD (SI), X1
	VMULSD (DI), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    dot1

dotsum:
	VHADDPD X2, X0, X0 // (s0+s1, s2+s3)
	VHADDPD X0, X0, X0 // (s0+s1)+(s2+s3)
	VMOVSD  X0, ret+48(FP)
	VZEROUPPER
	RET

// func dotPairLeafAVX2(x, y, z []float64) (xy, xz float64)
//
// X0 = (a0, a1), X1 = (b0, b1): two chains per sum are two lanes.
TEXT ·dotPairLeafAVX2(SB), NOSPLIT, $0-88
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	MOVQ   z_base+48(FP), DX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1

pair4:
	CMPQ    CX, $4
	JL      pair2
	VMOVUPD (SI), X2
	VMOVUPD 16(SI), X3
	VMULPD  (DI), X2, X4
	VMULPD  (DX), X2, X5
	VMULPD  16(DI), X3, X6
	VMULPD  16(DX), X3, X7
	VADDPD  X4, X0, X0
	VADDPD  X5, X1, X1
	VADDPD  X6, X0, X0
	VADDPD  X7, X1, X1
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     pair4

pair2:
	CMPQ    CX, $2
	JL      pair1
	VMOVUPD (SI), X2
	VMULPD  (DI), X2, X4
	VMULPD  (DX), X2, X5
	VADDPD  X4, X0, X0
	VADDPD  X5, X1, X1
	ADDQ    $16, SI
	ADDQ    $16, DI
	ADDQ    $16, DX
	SUBQ    $2, CX

pair1:
	TESTQ  CX, CX
	JZ     pairsum
	VMOVSD (SI), X2
	VMULSD (DI), X2, X4
	VMULSD (DX), X2, X5
	VADDSD X4, X0, X0
	VADDSD X5, X1, X1

pairsum:
	VHADDPD X1, X0, X0 // (a0+a1, b0+b1)
	VMOVSD  X0, xy+72(FP)
	VMOVHPD X0, xz+80(FP)
	VZEROUPPER
	RET

// func fusedCGLeafAVX2(alpha float64, p, ap, x, r []float64) float64
//
// x += alpha*p; r -= alpha*ap; Y0 = (s0, s1, s2, s3) of <r, r>.
TEXT ·fusedCGLeafAVX2(SB), NOSPLIT, $0-112
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         p_base+8(FP), SI
	MOVQ         p_len+16(FP), CX
	MOVQ         ap_base+32(FP), DX
	MOVQ         x_base+56(FP), DI
	MOVQ         r_base+80(FP), BX
	VXORPD       Y0, Y0, Y0

fused8:
	CMPQ    CX, $8
	JL      fused4
	VMULPD  (SI), Y15, Y1
	VMULPD  32(SI), Y15, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMULPD  (DX), Y15, Y3
	VMULPD  32(DX), Y15, Y4
	VMOVUPD (BX), Y5
	VMOVUPD 32(BX), Y6
	VSUBPD  Y3, Y5, Y5
	VSUBPD  Y4, Y6, Y6
	VMOVUPD Y5, (BX)
	VMOVUPD Y6, 32(BX)
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y0, Y0
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, CX
	JMP     fused8

fused4:
	CMPQ    CX, $4
	JL      fusedtail
	VMULPD  (SI), Y15, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	VMULPD  (DX), Y15, Y3
	VMOVUPD (BX), Y5
	VSUBPD  Y3, Y5, Y5
	VMOVUPD Y5, (BX)
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $4, CX

fusedtail:
	VEXTRACTF128 $1, Y0, X2 // see dottail

fused1:
	TESTQ  CX, CX
	JZ     fusedsum
	VMULSD (SI), X15, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	VMULSD (DX), X15, X3
	VMOVSD (BX), X5
	VSUBSD X3, X5, X5
	VMOVSD X5, (BX)
	VMULSD X5, X5, X5
	VADDSD X5, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   CX
	JMP    fused1

fusedsum:
	VHADDPD X2, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD  X0, ret+104(FP)
	VZEROUPPER
	RET

// func pipeLeafAVX2(alpha, beta float64, r, w, n, p, s, q, x []float64) (rr, wr float64)
//
// p = r + beta*p; s = w + beta*s; q = n + beta*q; x += alpha*p;
// r += (-alpha)*s; w += (-alpha)*q, four elements a trip, every operand
// loaded once and stored once. X0 = (a0, a1) of <r, r> and X1 = (b0, b1)
// of <w, r> take the low then the high half of each trip's products, as
// dotPairLeafAVX2 takes them two elements at a time; the stores of the
// next trip issue while those adds wait on each other. A tail element
// goes into lane 0 and the lanes then trade places, so the next one finds
// its own chain there; the final sum does not care which lane is which.
TEXT ·pipeLeafAVX2(SB), NOSPLIT, $0-200
	VBROADCASTSD alpha+0(FP), Y15
	VBROADCASTSD beta+8(FP), Y13
	VPCMPEQQ     Y14, Y14, Y14
	VPSLLQ       $63, Y14, Y14
	VXORPD       Y15, Y14, Y14    // -alpha
	MOVQ         r_base+16(FP), SI
	MOVQ         r_len+24(FP), CX
	MOVQ         w_base+40(FP), DI
	MOVQ         n_base+64(FP), DX
	MOVQ         p_base+88(FP), BX
	MOVQ         s_base+112(FP), R8
	MOVQ         q_base+136(FP), R9
	MOVQ         x_base+160(FP), R10
	XORQ         AX, AX
	VXORPD       X0, X0, X0
	VXORPD       X1, X1, X1

pipe4:
	SUBQ         $4, CX
	JL           pipetail
	VMOVUPD      (SI)(AX*8), Y2
	VMOVUPD      (DI)(AX*8), Y3
	VMULPD       (BX)(AX*8), Y13, Y4
	VMULPD       (R8)(AX*8), Y13, Y5
	VMULPD       (R9)(AX*8), Y13, Y6
	VADDPD       Y2, Y4, Y4
	VADDPD       Y3, Y5, Y5
	VADDPD       (DX)(AX*8), Y6, Y6
	VMOVUPD      Y4, (BX)(AX*8)
	VMOVUPD      Y5, (R8)(AX*8)
	VMOVUPD      Y6, (R9)(AX*8)
	VMULPD       Y4, Y15, Y4
	VMULPD       Y5, Y14, Y5
	VMULPD       Y6, Y14, Y6
	VADDPD       (R10)(AX*8), Y4, Y4
	VADDPD       Y2, Y5, Y5
	VADDPD       Y3, Y6, Y6
	VMOVUPD      Y4, (R10)(AX*8)
	VMOVUPD      Y5, (SI)(AX*8)
	VMOVUPD      Y6, (DI)(AX*8)
	VMULPD       Y6, Y5, Y6
	VMULPD       Y5, Y5, Y5
	VEXTRACTF128 $1, Y5, X7
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X5, X0, X0
	VADDPD       X6, X1, X1
	VADDPD       X7, X0, X0
	VADDPD       X8, X1, X1
	ADDQ         $4, AX
	JMP          pipe4

pipetail:
	ADDQ $4, CX

pipe1:
	TESTQ     CX, CX
	JZ        pipesum
	VMOVSD    (SI)(AX*8), X2
	VMOVSD    (DI)(AX*8), X3
	VMULSD    (BX)(AX*8), X13, X4
	VMULSD    (R8)(AX*8), X13, X5
	VMULSD    (R9)(AX*8), X13, X6
	VADDSD    X2, X4, X4
	VADDSD    X3, X5, X5
	VADDSD    (DX)(AX*8), X6, X6
	VMOVSD    X4, (BX)(AX*8)
	VMOVSD    X5, (R8)(AX*8)
	VMOVSD    X6, (R9)(AX*8)
	VMULSD    X4, X15, X4
	VMULSD    X5, X14, X5
	VMULSD    X6, X14, X6
	VADDSD    (R10)(AX*8), X4, X4
	VADDSD    X2, X5, X5
	VADDSD    X3, X6, X6
	VMOVSD    X4, (R10)(AX*8)
	VMOVSD    X5, (SI)(AX*8)
	VMOVSD    X6, (DI)(AX*8)
	VMULSD    X6, X5, X6
	VMULSD    X5, X5, X5
	VADDSD    X5, X0, X0
	VADDSD    X6, X1, X1
	VPERMILPD $1, X0, X0
	VPERMILPD $1, X1, X1
	INCQ      AX
	DECQ      CX
	JMP       pipe1

pipesum:
	VHADDPD X1, X0, X0 // (a0+a1, b0+b1)
	VMOVSD  X0, rr+184(FP)
	VMOVHPD X0, wr+192(FP)
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y []float64)
//
// y += alpha*x.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI

axpy16:
	CMPQ    CX, $16
	JL      axpy4
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMULPD  64(SI), Y15, Y2
	VMULPD  96(SI), Y15, Y3
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	CMPQ    CX, $4
	JL      axpy1
	VMULPD  (SI), Y15, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ  CX, CX
	JZ     axpydone
	VMULSD (SI), X15, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func xpayAVX2(x []float64, alpha float64, y []float64)
//
// y = x + alpha*y.
TEXT ·xpayAVX2(SB), NOSPLIT, $0-56
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD alpha+24(FP), Y15
	MOVQ         y_base+32(FP), DI

xpay16:
	CMPQ    CX, $16
	JL      xpay4
	VMULPD  (DI), Y15, Y0
	VMULPD  32(DI), Y15, Y1
	VMULPD  64(DI), Y15, Y2
	VMULPD  96(DI), Y15, Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     xpay16

xpay4:
	CMPQ    CX, $4
	JL      xpay1
	VMULPD  (DI), Y15, Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     xpay4

xpay1:
	TESTQ  CX, CX
	JZ     xpaydone
	VMULSD (DI), X15, X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    xpay1

xpaydone:
	VZEROUPPER
	RET

// func scaleAVX2(alpha float64, x []float64)
//
// x *= alpha.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x_base+8(FP), DI
	MOVQ         x_len+16(FP), CX

scale16:
	CMPQ    CX, $16
	JL      scale4
	VMULPD  (DI), Y15, Y0
	VMULPD  32(DI), Y15, Y1
	VMULPD  64(DI), Y15, Y2
	VMULPD  96(DI), Y15, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     scale16

scale4:
	CMPQ    CX, $4
	JL      scale1
	VMULPD  (DI), Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scale4

scale1:
	TESTQ  CX, CX
	JZ     scaledone
	VMULSD (DI), X15, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    scale1

scaledone:
	VZEROUPPER
	RET

// func diaRowsAVX2(out, slab []float64, base []int, x []float64, lo int, offs []int, scalar uint64, src []float64, beta float64, ahead, stop int)
//
// out[i] = +0 + Σ_d slab[base[d]+lo+i] * x[lo+offs[d]+i], one VADDPD per
// diagonal in ascending d, for any len(offs): thirty-two rows per trip in
// Y0-Y7, then sixteen in Y0-Y3, then four in Y0, then one in X0. SI and
// DX are &slab[lo+i] and &x[lo+i]; the inner loop walks the two tables
// together from their ends, R11 = 8*(d - len(offs)) rising to zero, and
// addresses each stream off its entry (R12 = base[d], R14 = offs[d]).
// The wide trip is what pays for the two tables: one entry load per
// eight vector loads; at sixteen rows a trip the cache-resident product
// measured 6-13 % slower.
//
// The wide trip does two things more. While CX > stop it first sets
// x[j] = src[j] + beta*x[j] for the thirty-two j from lo+i+ahead on, in
// xpayAVX2's operand order (BX = 8*ahead; R13 = &src[0] − &x[0] +
// 8*ahead, so (DX)(R13*1) is &src[lo+i+ahead]): the update a sweep owes
// the rows ahead of them rides on the product's trip instead of a pass
// of its own.
// And a diagonal whose bit in scalar is set (AX shifts the mask out one
// diagonal at a time) holds one value in every cell its rows read, so it
// is broadcast from the trip's first cell and the stream is not loaded:
// the same product, the same first operand, the same bits.
TEXT ·diaRowsAVX2(SB), NOSPLIT, $0-184
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ lo+96(FP), AX
	MOVQ slab_base+24(FP), SI
	LEAQ (SI)(AX*8), SI        // &slab[lo]
	MOVQ x_base+72(FP), DX
	MOVQ src_base+136(FP), R13
	SUBQ DX, R13               // &src[0] − &x[0]
	LEAQ (DX)(AX*8), DX        // &x[lo]
	MOVQ ahead+168(FP), BX
	SHLQ $3, BX                // bytes from a row to the x it updates
	ADDQ BX, R13
	MOVQ offs_len+112(FP), R10
	SHLQ $3, R10               // bytes in each table
	MOVQ base_base+48(FP), R8
	ADDQ R10, R8               // one past base
	MOVQ offs_base+104(FP), R9
	ADDQ R10, R9               // one past offs
	NEGQ R10

dia32:
	CMPQ         CX, $32
	JL           dia16
	CMPQ         CX, stop+176(FP)
	JLE          dia32rows
	VBROADCASTSD beta+160(FP), Y15
	LEAQ         (DX)(BX*1), R12 // &x[lo+i+ahead]
	LEAQ         (DX)(R13*1), R14 // &src[lo+i+ahead]
	VMULPD       (R12), Y15, Y8
	VMULPD       32(R12), Y15, Y9
	VMULPD       64(R12), Y15, Y10
	VMULPD       96(R12), Y15, Y11
	VADDPD       (R14), Y8, Y8
	VADDPD       32(R14), Y9, Y9
	VADDPD       64(R14), Y10, Y10
	VADDPD       96(R14), Y11, Y11
	VMOVUPD      Y8, (R12)
	VMOVUPD      Y9, 32(R12)
	VMOVUPD      Y10, 64(R12)
	VMOVUPD      Y11, 96(R12)
	VMULPD       128(R12), Y15, Y8
	VMULPD       160(R12), Y15, Y9
	VMULPD       192(R12), Y15, Y10
	VMULPD       224(R12), Y15, Y11
	VADDPD       128(R14), Y8, Y8
	VADDPD       160(R14), Y9, Y9
	VADDPD       192(R14), Y10, Y10
	VADDPD       224(R14), Y11, Y11
	VMOVUPD      Y8, 128(R12)
	VMOVUPD      Y9, 160(R12)
	VMOVUPD      Y10, 192(R12)
	VMOVUPD      Y11, 224(R12)

dia32rows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   scalar+128(FP), AX
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     dia32store

dia32diag:
	MOVQ    (R8)(R11*1), R12
	MOVQ    (R9)(R11*1), R14
	SHRQ    $1, AX
	JCS     dia32bcast
	VMOVUPD (SI)(R12*8), Y8
	VMOVUPD 32(SI)(R12*8), Y9
	VMOVUPD 64(SI)(R12*8), Y10
	VMOVUPD 96(SI)(R12*8), Y11
	VMOVUPD 128(SI)(R12*8), Y12
	VMOVUPD 160(SI)(R12*8), Y13
	VMOVUPD 192(SI)(R12*8), Y14
	VMOVUPD 224(SI)(R12*8), Y15
	VMULPD  (DX)(R14*8), Y8, Y8
	VMULPD  32(DX)(R14*8), Y9, Y9
	VMULPD  64(DX)(R14*8), Y10, Y10
	VMULPD  96(DX)(R14*8), Y11, Y11
	VMULPD  128(DX)(R14*8), Y12, Y12
	VMULPD  160(DX)(R14*8), Y13, Y13
	VMULPD  192(DX)(R14*8), Y14, Y14
	VMULPD  224(DX)(R14*8), Y15, Y15
	JMP     dia32add

dia32bcast:
	VBROADCASTSD (SI)(R12*8), Y15
	VMULPD       (DX)(R14*8), Y15, Y8
	VMULPD       32(DX)(R14*8), Y15, Y9
	VMULPD       64(DX)(R14*8), Y15, Y10
	VMULPD       96(DX)(R14*8), Y15, Y11
	VMULPD       128(DX)(R14*8), Y15, Y12
	VMULPD       160(DX)(R14*8), Y15, Y13
	VMULPD       192(DX)(R14*8), Y15, Y14
	VMULPD       224(DX)(R14*8), Y15, Y15

dia32add:
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ   $8, R11
	JNZ    dia32diag

dia32store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     dia32

dia16:
	CMPQ   CX, $16
	JL     dia4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     dia16store

dia16diag:
	MOVQ    (R8)(R11*1), R12
	MOVQ    (R9)(R11*1), R14
	VMOVUPD (SI)(R12*8), Y4
	VMOVUPD 32(SI)(R12*8), Y5
	VMOVUPD 64(SI)(R12*8), Y6
	VMOVUPD 96(SI)(R12*8), Y7
	VMULPD  (DX)(R14*8), Y4, Y4
	VMULPD  32(DX)(R14*8), Y5, Y5
	VMULPD  64(DX)(R14*8), Y6, Y6
	VMULPD  96(DX)(R14*8), Y7, Y7
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $8, R11
	JNZ     dia16diag

dia16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     dia16

dia4:
	CMPQ   CX, $4
	JL     dia1
	VXORPD Y0, Y0, Y0
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     dia4store

dia4diag:
	MOVQ    (R8)(R11*1), R12
	MOVQ    (R9)(R11*1), R14
	VMOVUPD (SI)(R12*8), Y4
	VMULPD  (DX)(R14*8), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $8, R11
	JNZ     dia4diag

dia4store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     dia4

dia1:
	TESTQ  CX, CX
	JZ     diadone
	VXORPD X0, X0, X0
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     dia1store

dia1diag:
	MOVQ   (R8)(R11*1), R12
	MOVQ   (R9)(R11*1), R14
	VMOVSD (SI)(R12*8), X4
	VMULSD (DX)(R14*8), X4, X4
	VADDSD X4, X0, X0
	ADDQ   $8, R11
	JNZ    dia1diag

dia1store:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JMP    dia1

diadone:
	VZEROUPPER
	RET

// func triRunAVX2(x []float64, lo int, d, vals []float64, pos []int32, width int, w float64)
//
// One run of a TriSweep, rows = len(d): for row j, s = x[lo+j]; then
// s -= vals[k*rows+j] * x[pos[k*rows+j]] for k = 0..width-1 in that
// order, one VMULPD and one VSUBPD each; then s *= w unless w is 1; then
// x[lo+j] = s / d[j]. Four rows per trip in Y0 (the rows of a run do not
// read each other), then one in X0. R12 is the byte offset of entry k in
// pos, and half that of it in vals; R8 its value after the last entry.
TEXT ·triRunAVX2(SB), NOSPLIT, $0-120
	MOVQ         x_base+0(FP), DX
	MOVQ         lo+24(FP), AX
	LEAQ         (DX)(AX*8), DI     // &x[lo]
	MOVQ         d_base+32(FP), SI
	MOVQ         d_len+40(FP), CX
	MOVQ         vals_base+56(FP), R9
	MOVQ         pos_base+80(FP), R10
	LEAQ         (CX*4), BX         // bytes between a row's entries in pos
	MOVQ         width+104(FP), R8
	IMULQ        BX, R8
	VBROADCASTSD w+112(FP), Y15
	MOVQ         w+112(FP), AX
	MOVQ         $0x3ff0000000000000, R11
	SUBQ         R11, AX            // zero: w is 1, skip the multiply

tri4:
	CMPQ    CX, $4
	JL      tri1
	VMOVUPD (DI), Y0
	XORQ    R12, R12
	CMPQ    R12, R8
	JE      tri4finish

tri4entry:
	VMOVDQU    (R10)(R12*1), X1
	VPCMPEQD   Y3, Y3, Y3
	VGATHERDPD Y3, (DX)(X1*8), Y2
	VMULPD     (R9)(R12*2), Y2, Y2
	VSUBPD     Y2, Y0, Y0
	ADDQ       BX, R12
	CMPQ       R12, R8
	JNE        tri4entry

tri4finish:
	TESTQ  AX, AX
	JZ     tri4div
	VMULPD Y15, Y0, Y0

tri4div:
	VDIVPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $16, R10
	SUBQ    $4, CX
	JMP     tri4

tri1:
	TESTQ  CX, CX
	JZ     tridone
	VMOVSD (DI), X0
	XORQ   R12, R12
	CMPQ   R12, R8
	JE     tri1finish

tri1entry:
	MOVL   (R10)(R12*1), R13
	VMOVSD (DX)(R13*8), X2
	VMULSD (R9)(R12*2), X2, X2
	VSUBSD X2, X0, X0
	ADDQ   BX, R12
	CMPQ   R12, R8
	JNE    tri1entry

tri1finish:
	TESTQ  AX, AX
	JZ     tri1div
	VMULSD X15, X0, X0

tri1div:
	VDIVSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, R9
	ADDQ   $4, R10
	DECQ   CX
	JMP    tri1

tridone:
	VZEROUPPER
	RET

// One pair's share of a dotsAccAVX2 trip: eight (four, one) elements of
// pair (xp, yp) at byte offset AX into its accumulator, the adds in
// element order — dotLeafAVX2's chain, with three other pairs' chains
// between its links.
#define DOTS8(xp, yp, acc, t0, t1) \
	VMOVUPD (xp)(AX*1), t0;      \
	VMOVUPD 32(xp)(AX*1), t1;    \
	VMULPD  (yp)(AX*1), t0, t0;  \
	VMULPD  32(yp)(AX*1), t1, t1; \
	VADDPD  t0, acc, acc;        \
	VADDPD  t1, acc, acc

#define DOTS4(xp, yp, acc, t0) \
	VMOVUPD (xp)(AX*1), t0;     \
	VMULPD  (yp)(AX*1), t0, t0; \
	VADDPD  t0, acc, acc

#define DOTS1(xp, yp, acc, t0) \
	VMOVSD (xp)(AX*1), t0;     \
	VMULSD (yp)(AX*1), t0, t0; \
	VADDSD t0, acc, acc

// func dotsAccAVX2(acc *[128]float64, ops *[64]*float64, groups, off, n int)
//
// For each of groups groups of four pairs — pair j of a group has its
// operands' first elements at ops[2j], ops[2j+1] and its accumulator
// (s0, s1, s2, s3) at acc[4j:4j+4], the next group the next eight
// pointers and sixteen cells — continue the four dot leaves over elements
// [off, off+n): Y0-Y3 are loaded from acc, run dotLeafAVX2's loop each
// (a tail shorter than four elements into lane 0, so only the last
// stretch of a block may have one) and are stored back. One pair's adds
// form a single dependent chain, so alone a leaf runs at the latency of
// VADDPD; four chains in flight run at its throughput.
TEXT ·dotsAccAVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DX
	MOVQ ops+8(FP), R14
	MOVQ groups+16(FP), BX

dotsgroup:
	MOVQ    (R14), SI
	MOVQ    8(R14), DI
	MOVQ    16(R14), R8
	MOVQ    24(R14), R9
	MOVQ    32(R14), R10
	MOVQ    40(R14), R11
	MOVQ    48(R14), R12
	MOVQ    56(R14), R13
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	MOVQ    off+24(FP), AX
	SHLQ    $3, AX
	MOVQ    n+32(FP), CX

dots8:
	CMPQ CX, $8
	JL   dots4
	DOTS8(SI, DI, Y0, Y4, Y5)
	DOTS8(R8, R9, Y1, Y6, Y7)
	DOTS8(R10, R11, Y2, Y8, Y9)
	DOTS8(R12, R13, Y3, Y10, Y11)
	ADDQ $64, AX
	SUBQ $8, CX
	JMP  dots8

dots4:
	CMPQ CX, $4
	JL   dotstail
	DOTS4(SI, DI, Y0, Y4)
	DOTS4(R8, R9, Y1, Y6)
	DOTS4(R10, R11, Y2, Y8)
	DOTS4(R12, R13, Y3, Y10)
	ADDQ $32, AX
	SUBQ $4, CX

dotstail:
	TESTQ        CX, CX
	JZ           dotsstore
	VEXTRACTF128 $1, Y0, X12 // see dottail
	VEXTRACTF128 $1, Y1, X13
	VEXTRACTF128 $1, Y2, X14
	VEXTRACTF128 $1, Y3, X15

dots1:
	DOTS1(SI, DI, X0, X4)
	DOTS1(R8, R9, X1, X6)
	DOTS1(R10, R11, X2, X8)
	DOTS1(R12, R13, X3, X10)
	ADDQ $8, AX
	DECQ CX
	JNZ  dots1
	VINSERTF128 $1, X12, Y0, Y0
	VINSERTF128 $1, X13, Y1, Y1
	VINSERTF128 $1, X14, Y2, Y2
	VINSERTF128 $1, X15, Y3, Y3

dotsstore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ    $64, R14
	ADDQ    $128, DX
	DECQ    BX
	JNZ     dotsgroup
	VZEROUPPER
	RET

// func combineAVX2(dst, init []float64, coef *float64, xs [][]float64, lo int)
//
// dst[i] = (init[lo+i], or +0 when init is nil) + Σ_j c_j * xs[j][lo+i] with
// c_j = coef[j], one VMULPD and one VADDPD per term in ascending
// j — Axpy after Axpy — and a term whose c_j is ±0 skipped, as Axpy
// skips it. It is diaRowsAVX2's loop with a broadcast coefficient where
// that loads a diagonal: thirty-two elements per trip in Y0-Y7, then
// four in Y0, then one in X0, each loaded and stored once. R11 walks the
// coefficients and R12 the slice headers of xs; DX is the byte offset of
// the trip in every term, SI the address of its init.
TEXT ·combineAVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ init_base+24(FP), SI
	MOVQ SI, R14              // zero: start from +0
	MOVQ coef+48(FP), R8
	MOVQ xs_base+56(FP), R10
	MOVQ xs_len+64(FP), BX
	MOVQ lo+80(FP), DX
	SHLQ $3, DX
	ADDQ DX, SI

comb32:
	CMPQ    CX, $32
	JL      comb4
	TESTQ   R14, R14
	JZ      comb32zero
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4
	VMOVUPD 160(SI), Y5
	VMOVUPD 192(SI), Y6
	VMOVUPD 224(SI), Y7
	JMP     comb32terms

comb32zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

comb32terms:
	MOVQ  R8, R11
	MOVQ  R10, R12
	MOVQ  BX, R13
	TESTQ R13, R13
	JZ    comb32store

comb32term:
	MOVQ         (R11), AX
	SHLQ         $1, AX    // all but the sign: zero for ±0
	JZ           comb32next
	VBROADCASTSD (R11), Y15
	MOVQ         (R12), AX
	ADDQ         DX, AX
	PREFETCHT0   512(AX)   // this term's trip after next: a dozen streams
	PREFETCHT0   576(AX)   // taken 256 bytes at a time are more than the
	PREFETCHT0   640(AX)   // hardware prefetchers follow out of L2 (nine
	PREFETCHT0   704(AX)   // terms x 4096: 4.3 us without, 3.7 with)
	VMULPD       (AX), Y15, Y8
	VMULPD       32(AX), Y15, Y9
	VMULPD       64(AX), Y15, Y10
	VMULPD       96(AX), Y15, Y11
	VADDPD       Y8, Y0, Y0
	VADDPD       Y9, Y1, Y1
	VADDPD       Y10, Y2, Y2
	VADDPD       Y11, Y3, Y3
	VMULPD       128(AX), Y15, Y8
	VMULPD       160(AX), Y15, Y9
	VMULPD       192(AX), Y15, Y10
	VMULPD       224(AX), Y15, Y11
	VADDPD       Y8, Y4, Y4
	VADDPD       Y9, Y5, Y5
	VADDPD       Y10, Y6, Y6
	VADDPD       Y11, Y7, Y7

comb32next:
	ADDQ $8, R11
	ADDQ $24, R12
	DECQ R13
	JNZ  comb32term

comb32store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     comb32

comb4:
	CMPQ    CX, $4
	JL      comb1
	VXORPD  Y0, Y0, Y0
	TESTQ   R14, R14
	JZ      comb4terms
	VMOVUPD (SI), Y0

comb4terms:
	MOVQ  R8, R11
	MOVQ  R10, R12
	MOVQ  BX, R13
	TESTQ R13, R13
	JZ    comb4store

comb4term:
	MOVQ         (R11), AX
	SHLQ         $1, AX
	JZ           comb4next
	VBROADCASTSD (R11), Y15
	MOVQ         (R12), AX
	VMULPD       (AX)(DX*1), Y15, Y8
	VADDPD       Y8, Y0, Y0

comb4next:
	ADDQ $8, R11
	ADDQ $24, R12
	DECQ R13
	JNZ  comb4term

comb4store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     comb4

comb1:
	TESTQ  CX, CX
	JZ     combdone
	VXORPD X0, X0, X0
	TESTQ  R14, R14
	JZ     comb1terms
	VMOVSD (SI), X0

comb1terms:
	MOVQ  R8, R11
	MOVQ  R10, R12
	MOVQ  BX, R13
	TESTQ R13, R13
	JZ    comb1store

comb1term:
	MOVQ   (R11), AX
	SHLQ   $1, AX
	JZ     comb1next
	VMOVSD (R11), X15
	MOVQ   (R12), AX
	VMULSD (AX)(DX*1), X15, X8
	VADDSD X8, X0, X0

comb1next:
	ADDQ $8, R11
	ADDQ $24, R12
	DECQ R13
	JNZ  comb1term

comb1store:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JMP    comb1

combdone:
	VZEROUPPER
	RET
