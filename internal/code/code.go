// Package code implements the linear error-correcting codes used by the
// Orion polynomial commitment. Production NoCap uses a Reed-Solomon code
// with blowup 4 and 189 column queries (the Shockwave substitution, paper
// §II-A and §VII-A); the original Orion used an expander-graph code,
// which needed 1,222 queries and is hard to accelerate. Both are provided
// so the §VIII-C ablation (RS is 1.2× faster on CPU, far fewer queries)
// can be reproduced.
//
// Both codes are linear: Encode(a + c·b) = Encode(a) + c·Encode(b), the
// property the PCS relies on to check combined rows against combined
// columns. Tests enforce it.
package code

import (
	"context"
	"math/rand"

	"nocap/internal/field"
	"nocap/internal/kernel"
)

// Code is a linear error-correcting code over the Goldilocks field.
// Encode maps a power-of-two-length message to a codeword of length
// Blowup()×len(msg).
type Code interface {
	// Encode returns the codeword for msg. len(msg) must be a power of two.
	Encode(msg []field.Element) []field.Element
	// EncodeRowsIntoCtx writes the codeword of each src row into the
	// matching dst row under ctx. Every src row must share one
	// power-of-two length and every dst row be Blowup() times that; dst
	// may be dirty scratch, and on error it must be discarded.
	EncodeRowsIntoCtx(ctx context.Context, dst, src [][]field.Element) error
	// Blowup is the codeword-to-message length ratio.
	Blowup() int
	// Queries is the number of codeword positions a verifier must spot-check
	// for 128-bit soundness with this code's distance.
	Queries() int
	// Name identifies the code in benchmarks and proofs.
	Name() string
}

// ReedSolomon is the production code: the message is interpreted as the
// coefficients of a polynomial of degree < n and evaluated on the
// 4n-point root-of-unity domain (zero-extend + NTT, paper §V-A).
type ReedSolomon struct {
	// BlowupFactor is the inverse rate; the paper fixes it at 4.
	BlowupFactor int
	// NumQueries is the verifier spot-check count; the paper derives 189
	// from blowup 4 at 128-bit soundness.
	NumQueries int
}

// NewReedSolomon returns the paper-parameterized RS code (blowup 4,
// 189 queries).
func NewReedSolomon() *ReedSolomon {
	return &ReedSolomon{BlowupFactor: 4, NumQueries: 189}
}

// Encode implements Code.
func (c *ReedSolomon) Encode(msg []field.Element) []field.Element {
	cw, err := c.EncodeCtx(context.Background(), msg)
	if err != nil {
		panic(err)
	}
	return cw
}

// EncodeCtx is Encode with cooperative cancellation, checked inside the
// underlying NTT between passes.
func (c *ReedSolomon) EncodeCtx(ctx context.Context, msg []field.Element) ([]field.Element, error) {
	n := len(msg)
	if n == 0 || n&(n-1) != 0 {
		panic("code: message length must be a positive power of two")
	}
	cw := make([]field.Element, n*c.BlowupFactor)
	if err := kernel.RSEncodeCtx(ctx, cw, msg); err != nil {
		return nil, err
	}
	return cw, nil
}

// EncodeRowsIntoCtx implements Code in one kernel invocation, with the
// rows fanned out across the worker pool.
func (c *ReedSolomon) EncodeRowsIntoCtx(ctx context.Context, dst, src [][]field.Element) error {
	for r, msg := range src {
		if n := len(msg); n == 0 || n&(n-1) != 0 || n != len(src[0]) {
			panic("code: message rows must share one positive power-of-two length")
		}
		if len(dst[r]) != len(msg)*c.BlowupFactor {
			panic("code: codeword buffer length mismatch")
		}
	}
	return kernel.RSEncodeRowsCtx(ctx, dst, src)
}

// Blowup implements Code.
func (c *ReedSolomon) Blowup() int { return c.BlowupFactor }

// Queries implements Code.
func (c *ReedSolomon) Queries() int { return c.NumQueries }

// Name implements Code.
func (c *ReedSolomon) Name() string { return "reed-solomon" }

// Expander is a Spielman/Brakedown-style linear-time code built from
// sparse pseudo-random bipartite graphs, standing in for the expander
// code of the original Orion implementation. Encoding performs
// data-dependent gathers over the graph — the access pattern that makes
// these codes accelerator-hostile (multi-gigabyte graphs, serialized
// off-chip accesses; paper §II-A). The graph is derived deterministically
// from Seed.
//
// Codeword layout for an n-element message x (blowup 4):
//
//	cw = x ‖ Enc(A·x) ‖ B·Enc(A·x)
//
// with |A·x| = n/2 recursively encoded to 2n, and |B·z| = n. Below
// baseSize the recursion bottoms out in Reed-Solomon.
type Expander struct {
	Seed       int64
	RowWeight  int
	NumQueries int

	base *ReedSolomon
	// graphs caches the sparse maps per (rows, cols, level tag), in the
	// kernel's shared sparse-row layout so encoding runs on the same
	// SpMV kernel as the R1CS matrices.
	graphs map[graphKey][][]kernel.Entry
}

type graphKey struct {
	rows, cols int
	tag        byte
}

// baseSize is the message size at which the recursion switches to RS.
const baseSize = 32

// NewExpander returns an expander code with the paper's query count
// (1,222) and a default row weight of 8.
func NewExpander(seed int64) *Expander {
	return &Expander{
		Seed:       seed,
		RowWeight:  8,
		NumQueries: 1222,
		base:       NewReedSolomon(),
		graphs:     make(map[graphKey][][]kernel.Entry),
	}
}

// graph returns (building if needed) the sparse rows×cols map for one
// recursion level.
func (c *Expander) graph(rows, cols int, tag byte) [][]kernel.Entry {
	key := graphKey{rows, cols, tag}
	if g, ok := c.graphs[key]; ok {
		return g
	}
	rng := rand.New(rand.NewSource(c.Seed ^ int64(rows)<<32 ^ int64(cols)<<8 ^ int64(tag)))
	g := make([][]kernel.Entry, rows)
	for r := range g {
		edges := make([]kernel.Entry, c.RowWeight)
		for e := range edges {
			edges[e] = kernel.Entry{
				Col: rng.Intn(cols),
				Val: field.New(rng.Uint64()),
			}
		}
		g[r] = edges
	}
	c.graphs[key] = g
	return g
}

// spmv applies a cached sparse graph to x.
func (c *Expander) spmv(ctx context.Context, rows int, x []field.Element, tag byte) ([]field.Element, error) {
	g := c.graph(rows, len(x), tag)
	out := make([]field.Element, rows)
	if err := kernel.SpMVSerialCtx(ctx, out, g, x); err != nil {
		return nil, err
	}
	return out, nil
}

// Encode implements Code.
func (c *Expander) Encode(msg []field.Element) []field.Element {
	cw, err := c.EncodeCtx(context.Background(), msg)
	if err != nil {
		panic(err) // unreachable: background context never cancels
	}
	return cw
}

// EncodeCtx is Encode with cooperative cancellation (polled inside the
// graph SpMVs and the Reed-Solomon base case) and per-run stats
// attribution via the context's collector.
func (c *Expander) EncodeCtx(ctx context.Context, msg []field.Element) ([]field.Element, error) {
	n := len(msg)
	if n == 0 || n&(n-1) != 0 {
		panic("code: message length must be a positive power of two")
	}
	if n <= baseSize {
		return c.base.EncodeCtx(ctx, msg)
	}
	y, err := c.spmv(ctx, n/2, msg, 'A') // n/2 intermediate symbols
	if err != nil {
		return nil, err
	}
	z, err := c.EncodeCtx(ctx, y) // recursively encoded to 2n
	if err != nil {
		return nil, err
	}
	u, err := c.spmv(ctx, n, z, 'B') // n check symbols
	if err != nil {
		return nil, err
	}
	cw := make([]field.Element, 0, 4*n)
	cw = append(cw, msg...)
	cw = append(cw, z...)
	cw = append(cw, u...)
	return cw, nil
}

// EncodeRowsIntoCtx implements Code one row at a time on the calling
// goroutine: the graph cache is not safe for concurrent first use.
func (c *Expander) EncodeRowsIntoCtx(ctx context.Context, dst, src [][]field.Element) error {
	for r, msg := range src {
		cw, err := c.EncodeCtx(ctx, msg)
		if err != nil {
			return err
		}
		if len(dst[r]) != len(cw) {
			panic("code: codeword buffer length mismatch")
		}
		copy(dst[r], cw)
	}
	return nil
}

// Blowup implements Code.
func (c *Expander) Blowup() int { return 4 }

// Queries implements Code.
func (c *Expander) Queries() int { return c.NumQueries }

// Name implements Code.
func (c *Expander) Name() string { return "expander" }

// GraphBytes reports the memory footprint of the expander graphs needed
// to encode messages of length n — the "several gigabytes" cost the paper
// cites as the reason to avoid these codes in hardware.
func (c *Expander) GraphBytes(n int) int64 {
	var total int64
	for m := n; m > baseSize; m /= 2 {
		// level A: m/2 rows; level B: m rows; each edge: 4B index + 8B coeff.
		total += int64(m/2+m) * int64(c.RowWeight) * 12
	}
	return total
}
