//go:build amd64 && !purego

#include "textflag.h"

// The 8-lane Goldilocks datapath (AVX-512F): each zmm register holds
// eight canonical field elements, one per 64-bit lane. Register and mask
// conventions shared by every kernel below:
//
//	Z31     ε = 2^32 − 1 in every lane (2^64 mod p, and the low-half mask)
//	K1, K2  borrow and carry of REDUCE
//	K3      carry/borrow of ADD and SUB
//
// A 64×64 product is four VPMULUDQ 32×32 partial products recombined
// into hi:lo, then REDUCE — the vector form of reduce128 in field.go:
// with hi = h1·2^32 + h0, x ≡ lo − h1 + h0·ε (mod p), the wrap of each
// step corrected by a masked ±ε and the result canonicalized as
// min(r, r − p), since r − p wraps above r exactly when r < p.

#define LOAD_EPS \
	MOVQ         $0xFFFFFFFF, AX; \
	VPBROADCASTQ AX, Z31

// REDUCE sets r = hi·2^64 + lo mod p. hi and lo are clobbered; r may be
// lo but not hi.
#define REDUCE(hi, lo, r, t) \
	VPSRLQ   $32, hi, t;      \
	VPCMPUQ  $1, t, lo, K1;   \
	VPSUBQ   t, lo, lo;       \
	VPSUBQ   Z31, lo, K1, lo; \
	VPMULUDQ Z31, hi, hi;     \
	VPADDQ   hi, lo, r;       \
	VPCMPUQ  $1, hi, r, K2;   \
	VPADDQ   Z31, r, K2, r;   \
	VPADDQ   Z31, r, t;       \
	VPMINUQ  t, r, r

// MUL sets r = a·b mod p. r may be a or b; t0–t3 are scratch.
// ll, lh, hl, hh are the partial products of the 32-bit halves; with
// t = hl + ll>>32 and u = lh + (t mod 2^32), neither of which can wrap,
// hi = hh + t>>32 + u>>32 and lo = u<<32 | (ll mod 2^32).
#define MUL(a, b, r, t0, t1, t2, t3) \
	VPSRLQ     $32, a, t0;          \
	VPSRLQ     $32, b, t1;          \
	VPMULUDQ   b, a, t2;            \
	VPMULUDQ   t1, a, t3;           \
	VPMULUDQ   t1, t0, t1;          \
	VPMULUDQ   b, t0, t0;           \
	VPSRLQ     $32, t2, r;          \
	VPADDQ     r, t0, t0;           \
	VPANDQ     Z31, t0, r;          \
	VPADDQ     r, t3, t3;           \
	VPSRLQ     $32, t0, t0;         \
	VPADDQ     t0, t1, t1;          \
	VPSRLQ     $32, t3, t0;         \
	VPADDQ     t0, t1, t1;          \
	VPSLLQ     $32, t3, t3;         \
	VPTERNLOGQ $0xF8, Z31, t2, t3;  \
	REDUCE(t1, t3, r, t0)

// MULPOW2_48 sets r = a·2^48 mod p (the NTT's ω₄): the 128-bit shift
// a>>16 : a<<48, reduced. r may be a.
#define MULPOW2_48(a, r, t0, t1, t2) \
	VPSRLQ $16, a, t0; \
	VPSLLQ $48, a, t1; \
	REDUCE(t0, t1, r, t2)

// ADD sets r = a + b mod p. r may be a but not b: a wrap of the 64-bit
// sum shows as r < b and adds ε (the true sum minus 2^64), after which
// one conditional subtraction of p canonicalizes.
#define ADD(a, b, r, t) \
	VPADDQ  b, a, r;       \
	VPCMPUQ $1, b, r, K3;  \
	VPADDQ  Z31, r, K3, r; \
	VPADDQ  Z31, r, t;     \
	VPMINUQ t, r, r

// SUB sets r = a − b mod p. r may be a or b: on a borrow the wrapped
// difference a − b + 2^64 loses ε, leaving a − b + p.
#define SUB(a, b, r) \
	VPCMPUQ $1, b, a, K3; \
	VPSUBQ  b, a, r;      \
	VPSUBQ  Z31, r, K3, r

// BFLY4 is the radix-4 butterfly of ntt's schedule on Z0–Z3 (x0…x3)
// with twiddles Z4 = w^j, Z5 = w^2j, Z6 = w^3j; Z8–Z15 are scratch.
#define BFLY4 \
	MUL(Z1, Z5, Z1, Z8, Z9, Z10, Z11); \
	MUL(Z2, Z4, Z2, Z8, Z9, Z10, Z11); \
	MUL(Z3, Z6, Z3, Z8, Z9, Z10, Z11); \
	ADD(Z0, Z1, Z12, Z8);              \
	SUB(Z0, Z1, Z13);                  \
	ADD(Z2, Z3, Z14, Z8);              \
	SUB(Z2, Z3, Z15);                  \
	MULPOW2_48(Z15, Z15, Z8, Z9, Z10); \
	ADD(Z12, Z14, Z0, Z8);             \
	ADD(Z13, Z15, Z1, Z8);             \
	SUB(Z12, Z14, Z2);                 \
	SUB(Z13, Z15, Z3)

// func radix4x8(v *Element, n int, l int, tw *Element)
// n is a multiple of 4l; l is 4 (then n is a multiple of 32) or a
// multiple of 8. tw holds the runs w^j, w^2j, w^3j, l entries each.
TEXT ·radix4x8(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ l+16(FP), BX
	MOVQ tw+24(FP), SI
	LOAD_EPS
	LEAQ (DI)(CX*8), CX
	SHLQ $3, BX
	CMPQ BX, $32
	JEQ  r4pairs
	LEAQ (SI)(BX*1), R8
	LEAQ (R8)(BX*1), R9

r4block:
	LEAQ (DI)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	XORQ DX, DX

r4inner:
	VMOVDQU64 (DI)(DX*1), Z0
	VMOVDQU64 (R10)(DX*1), Z1
	VMOVDQU64 (R11)(DX*1), Z2
	VMOVDQU64 (R12)(DX*1), Z3
	VMOVDQU64 (SI)(DX*1), Z4
	VMOVDQU64 (R8)(DX*1), Z5
	VMOVDQU64 (R9)(DX*1), Z6
	BFLY4
	VMOVDQU64 Z0, (DI)(DX*1)
	VMOVDQU64 Z1, (R10)(DX*1)
	VMOVDQU64 Z2, (R11)(DX*1)
	VMOVDQU64 Z3, (R12)(DX*1)
	ADDQ      $64, DX
	CMPQ      DX, BX
	JNE       r4inner
	LEAQ      (R12)(BX*1), DI
	CMPQ      DI, CX
	JNE       r4block
	VZEROUPPER
	RET

	// l = 4: a block is four ymm-wide quarters, so two adjacent blocks
	// share each zmm (low half from the first, high half from the
	// second), and the twiddles are the same four in both halves.
r4pairs:
	VBROADCASTI64X4 (SI), Z4
	VBROADCASTI64X4 32(SI), Z5
	VBROADCASTI64X4 64(SI), Z6

r4pair:
	VMOVDQU         (DI), Y0
	VINSERTI64X4    $1, 128(DI), Z0, Z0
	VMOVDQU         32(DI), Y1
	VINSERTI64X4    $1, 160(DI), Z1, Z1
	VMOVDQU         64(DI), Y2
	VINSERTI64X4    $1, 192(DI), Z2, Z2
	VMOVDQU         96(DI), Y3
	VINSERTI64X4    $1, 224(DI), Z3, Z3
	BFLY4
	VMOVDQU         Y0, (DI)
	VEXTRACTI64X4   $1, Z0, 128(DI)
	VMOVDQU         Y1, 32(DI)
	VEXTRACTI64X4   $1, Z1, 160(DI)
	VMOVDQU         Y2, 64(DI)
	VEXTRACTI64X4   $1, Z2, 192(DI)
	VMOVDQU         Y3, 96(DI)
	VEXTRACTI64X4   $1, Z3, 224(DI)
	ADDQ            $256, DI
	CMPQ            DI, CX
	JNE             r4pair
	VZEROUPPER
	RET

// func radix2x8(v *Element, n int, l int, w *Element)
// n is a multiple of 2l and l of 8; w holds w^j for j < l.
TEXT ·radix2x8(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ l+16(FP), BX
	MOVQ w+24(FP), SI
	LOAD_EPS
	LEAQ (DI)(CX*8), CX
	SHLQ $3, BX

r2block:
	LEAQ (DI)(BX*1), R10
	XORQ DX, DX

r2inner:
	VMOVDQU64 (DI)(DX*1), Z0
	VMOVDQU64 (R10)(DX*1), Z1
	VMOVDQU64 (SI)(DX*1), Z4
	MUL(Z1, Z4, Z1, Z8, Z9, Z10, Z11)
	ADD(Z0, Z1, Z2, Z8)
	SUB(Z0, Z1, Z3)
	VMOVDQU64 Z2, (DI)(DX*1)
	VMOVDQU64 Z3, (R10)(DX*1)
	ADDQ      $64, DX
	CMPQ      DX, BX
	JNE       r2inner
	LEAQ      (R10)(BX*1), DI
	CMPQ      DI, CX
	JNE       r2block
	VZEROUPPER
	RET

// func fold8(x *Element, y *Element, n int, r Element)
// x[i] = x[i] + r·(y[i] − x[i]) for i < n; n is a positive multiple of 8.
TEXT ·fold8(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ r+24(FP), Z4
	LOAD_EPS
	SHLQ         $3, CX
	XORQ         DX, DX

foldloop:
	VMOVDQU64 (DI)(DX*1), Z0
	VMOVDQU64 (SI)(DX*1), Z1
	SUB(Z1, Z0, Z2)
	MUL(Z2, Z4, Z2, Z8, Z9, Z10, Z11)
	ADD(Z0, Z2, Z3, Z8)
	VMOVDQU64 Z3, (DI)(DX*1)
	ADDQ      $64, DX
	CMPQ      DX, CX
	JNE       foldloop
	VZEROUPPER
	RET

// func eqSplit8(lo *Element, hi *Element, n int, r Element)
// hi[i] = lo[i]·r, lo[i] = lo[i] − hi[i] for i < n; n is a positive
// multiple of 8.
TEXT ·eqSplit8(SB), NOSPLIT, $0-32
	MOVQ         lo+0(FP), DI
	MOVQ         hi+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ r+24(FP), Z4
	LOAD_EPS
	SHLQ         $3, CX
	XORQ         DX, DX

eqsplitloop:
	VMOVDQU64 (DI)(DX*1), Z0
	MUL(Z0, Z4, Z1, Z8, Z9, Z10, Z11)
	SUB(Z0, Z1, Z0)
	VMOVDQU64 Z1, (SI)(DX*1)
	VMOVDQU64 Z0, (DI)(DX*1)
	ADDQ      $64, DX
	CMPQ      DX, CX
	JNE       eqsplitloop
	VZEROUPPER
	RET

// CUBIC_TERM adds e·(a·b − c) into the lane accumulator s.
#define CUBIC_TERM(e, a, b, c, s) \
	MUL(a, b, Z12, Z8, Z9, Z10, Z11);   \
	SUB(Z12, c, Z12);                   \
	MUL(e, Z12, Z12, Z8, Z9, Z10, Z11); \
	ADD(s, Z12, s, Z8)

// func cubicSums8(e0 *Element, e1 *Element, a0 *Element, a1 *Element, b0 *Element, b1 *Element, c0 *Element, c1 *Element, n int, sums *[4][8]Element)
// sums[t][k] = Σ over points i ≡ k (mod 8), i < n, of e·(a·b − c) at t,
// each array x contributing x0[i] + t·(x1[i] − x0[i]); n is a positive
// multiple of 8.
TEXT ·cubicSums8(SB), NOSPLIT, $0-80
	MOVQ   e0+0(FP), R8
	MOVQ   e1+8(FP), R9
	MOVQ   a0+16(FP), R10
	MOVQ   a1+24(FP), R11
	MOVQ   b0+32(FP), R12
	MOVQ   b1+40(FP), R13
	MOVQ   c0+48(FP), SI
	MOVQ   c1+56(FP), BX
	MOVQ   n+64(FP), CX
	LOAD_EPS
	SHLQ   $3, CX
	XORQ   DX, DX
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

cubicloop:
	VMOVDQU64 (R8)(DX*1), Z0
	VMOVDQU64 (R9)(DX*1), Z1
	VMOVDQU64 (R10)(DX*1), Z2
	VMOVDQU64 (R11)(DX*1), Z3
	VMOVDQU64 (R12)(DX*1), Z4
	VMOVDQU64 (R13)(DX*1), Z5
	VMOVDQU64 (SI)(DX*1), Z6
	VMOVDQU64 (BX)(DX*1), Z7
	CUBIC_TERM(Z0, Z2, Z4, Z6, Z20)
	CUBIC_TERM(Z1, Z3, Z5, Z7, Z21)
	SUB(Z1, Z0, Z0)
	SUB(Z3, Z2, Z2)
	SUB(Z5, Z4, Z4)
	SUB(Z7, Z6, Z6)
	ADD(Z1, Z0, Z1, Z8)
	ADD(Z3, Z2, Z3, Z8)
	ADD(Z5, Z4, Z5, Z8)
	ADD(Z7, Z6, Z7, Z8)
	CUBIC_TERM(Z1, Z3, Z5, Z7, Z22)
	ADD(Z1, Z0, Z1, Z8)
	ADD(Z3, Z2, Z3, Z8)
	ADD(Z5, Z4, Z5, Z8)
	ADD(Z7, Z6, Z7, Z8)
	CUBIC_TERM(Z1, Z3, Z5, Z7, Z23)
	ADDQ      $64, DX
	CMPQ      DX, CX
	JNE       cubicloop
	MOVQ      sums+72(FP), AX
	VMOVDQU64 Z20, (AX)
	VMOVDQU64 Z21, 64(AX)
	VMOVDQU64 Z22, 128(AX)
	VMOVDQU64 Z23, 192(AX)
	VZEROUPPER
	RET

// func productSums8(m0 *Element, m1 *Element, z0 *Element, z1 *Element, n int, sums *[3][8]Element)
// sums[t][k] = Σ over points i ≡ k (mod 8), i < n, of m·z at t = 0, 1, 2;
// n is a positive multiple of 8.
TEXT ·productSums8(SB), NOSPLIT, $0-48
	MOVQ   m0+0(FP), R8
	MOVQ   m1+8(FP), R9
	MOVQ   z0+16(FP), R10
	MOVQ   z1+24(FP), R11
	MOVQ   n+32(FP), CX
	LOAD_EPS
	SHLQ   $3, CX
	XORQ   DX, DX
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22

productloop:
	VMOVDQU64 (R8)(DX*1), Z0
	VMOVDQU64 (R9)(DX*1), Z1
	VMOVDQU64 (R10)(DX*1), Z2
	VMOVDQU64 (R11)(DX*1), Z3
	MUL(Z0, Z2, Z12, Z8, Z9, Z10, Z11)
	ADD(Z20, Z12, Z20, Z8)
	MUL(Z1, Z3, Z12, Z8, Z9, Z10, Z11)
	ADD(Z21, Z12, Z21, Z8)
	SUB(Z1, Z0, Z0)
	ADD(Z1, Z0, Z4, Z8)
	SUB(Z3, Z2, Z2)
	ADD(Z3, Z2, Z5, Z8)
	MUL(Z4, Z5, Z12, Z8, Z9, Z10, Z11)
	ADD(Z22, Z12, Z22, Z8)
	ADDQ      $64, DX
	CMPQ      DX, CX
	JNE       productloop
	MOVQ      sums+40(FP), AX
	VMOVDQU64 Z20, (AX)
	VMOVDQU64 Z21, 64(AX)
	VMOVDQU64 Z22, 128(AX)
	VZEROUPPER
	RET

// func laneOps8(a *[8]Element, b *[8]Element, out *[4][8]Element)
// out = a·b, a + b, a − b, a·2^48, lane by lane: the primitives above one
// at a time, for the table test against math/big.
TEXT ·laneOps8(SB), NOSPLIT, $0-24
	MOVQ      a+0(FP), SI
	MOVQ      b+8(FP), DI
	MOVQ      out+16(FP), DX
	LOAD_EPS
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DI), Z1
	MUL(Z0, Z1, Z2, Z8, Z9, Z10, Z11)
	ADD(Z0, Z1, Z3, Z8)
	SUB(Z0, Z1, Z4)
	MULPOW2_48(Z0, Z5, Z8, Z9, Z10)
	VMOVDQU64 Z2, (DX)
	VMOVDQU64 Z3, 64(DX)
	VMOVDQU64 Z4, 128(DX)
	VMOVDQU64 Z5, 192(DX)
	VZEROUPPER
	RET
