// Package kernel holds the in-place, scratch-taking implementations of
// the five task-taxonomy kernels the paper schedules onto NoCap's
// functional units (§V-A): sumcheck DP folds, Reed-Solomon encode,
// Merkle hashing, sparse matrix-vector products, and MLE/polynomial
// arithmetic. The higher layers (ntt, code, merkle, pcs, sumcheck,
// spartan, poly) route their hot loops through this package so that
//
//   - destination buffers are caller-owned (typically arena checkouts),
//     so the steady-state prover performs no per-call allocation, and
//   - every invocation is attributed to a stage counter (stats.go),
//     making the prover's stage breakdown observable the way the paper's
//     per-kernel tables are.
//
// Kernels never retain or return internal references to their arguments;
// ownership of dst stays with the caller. Ctx variants poll cancellation
// at bounded intervals and return the context error with dst in an
// unspecified partially-written state.
package kernel

import (
	"context"

	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/ntt"
	"nocap/internal/par"
)

// ctxCheckInterval is how many output elements a serial kernel processes
// between context polls; 2^12 elements is well under a millisecond of
// work on any target, matching the checkpoint policy of DESIGN.md §8.
const ctxCheckInterval = 1 << 12

// Entry is one nonzero of a sparse-matrix row: column index and value.
// r1cs.SparseMatrix and the expander-code graphs share this layout so a
// single SpMV kernel serves both.
type Entry struct {
	Col int
	Val field.Element
}

// Fold performs one sumcheck DP fold in place:
//
//	evals'[i] = evals[i] + r·(evals[i+half] − evals[i])
//
// and returns the halved prefix evals[:half], which aliases the input's
// backing array (so an arena checkout can still be returned via the
// original slice). len(evals) must be even and non-zero.
func Fold(evals []field.Element, r field.Element) []field.Element {
	return FoldCtx(context.Background(), evals, r)
}

// FoldCtx is Fold attributed to the per-run collector carried by ctx.
// The fold itself is not cancellable (it is short and in-place); the
// context is used for stats attribution only. Large folds fan out across
// the worker pool: entry i depends on entries i and i+half alone.
func FoldCtx(ctx context.Context, evals []field.Element, r field.Element) []field.Element {
	sp := BeginCtx(ctx, StageSumcheck)
	half := len(evals) / 2
	lo, hi := evals[:half], evals[half:]
	par.For(half, func(from, to int) { field.Fold(lo[from:to], hi[from:to], r) })
	field.AddMulCount(uint64(half))
	sp.End(half)
	return lo
}

// EqExpand fills table with the multilinear equality polynomial's
// evaluations eq(r, x) over all x ∈ {0,1}^len(r), in lexicographic order
// with x[0] as the high bit. len(table) must be exactly 1<<len(r). Every
// entry is written, so uninitialized (arena GetUninitCtx) scratch is safe.
func EqExpand(table []field.Element, r []field.Element) {
	EqExpandCtx(context.Background(), table, r)
}

// EqExpandCtx is EqExpand attributed to the per-run collector carried by
// ctx (stats attribution only; the expansion is not cancellable).
//
// The table is built from the last variable to the first: after k steps
// table[:2^k] is the eq table of the last k variables, and the next
// variable becomes the new high bit — entry i splits into t·(1−rk) at i
// and t·rk at i+size (field.EqSplit, on eight lanes where the CPU has
// them). Each step reads and writes entry pairs (i, i+size)
// independently, so the large final doublings fan out across the worker
// pool. Every entry is the same product of L factors whichever order
// they are multiplied in, so the table is identical to a first-to-last
// expansion.
func EqExpandCtx(ctx context.Context, table []field.Element, r []field.Element) {
	if len(table) != 1<<len(r) {
		panic("kernel: eq table size mismatch")
	}
	sp := BeginCtx(ctx, StagePoly)
	table[0] = field.One
	size := 1
	var rk field.Element
	step := func(from, to int) { // one closure for all steps: size and rk are read at call time
		field.EqSplit(table[from:to], table[size+from:size+to], rk)
	}
	for k := len(r) - 1; k >= 0; k-- {
		rk = r[k]
		par.For(size, step)
		size <<= 1
	}
	field.AddMulCount(uint64(len(table) - 1))
	sp.End(len(table))
}

// VecCombine accumulates dst += Σ_r coeffs[r]·rows[r]. dst must already
// hold the base vector (e.g. a ZK mask, or zeros). Every rows[r] must
// have length ≥ len(dst); only the first len(dst) entries participate.
func VecCombine(dst []field.Element, coeffs []field.Element, rows [][]field.Element) {
	VecCombineCtx(context.Background(), dst, coeffs, rows)
}

// VecCombineCtx is VecCombine attributed to the per-run collector
// carried by ctx (stats attribution only). Rows with a zero coefficient
// are skipped. Columns fan out across the worker pool, and within a
// column range the rows are taken four at a time through a delayed-
// reduction accumulator, so dst is read, reduced and written once per
// four rows instead of once per row.
func VecCombineCtx(ctx context.Context, dst []field.Element, coeffs []field.Element, rows [][]field.Element) {
	sp := BeginCtx(ctx, StagePoly)
	cs := make([]field.Element, 0, len(coeffs))
	rs := make([][]field.Element, 0, len(coeffs))
	for r, c := range coeffs {
		if !c.IsZero() {
			cs, rs = append(cs, c), append(rs, rows[r][:len(dst)])
		}
	}
	par.ForSized(len(dst), len(cs), func(lo, hi int) {
		d := dst[lo:hi]
		k := 0
		for ; k+4 <= len(cs); k += 4 {
			c0, c1, c2, c3 := cs[k], cs[k+1], cs[k+2], cs[k+3]
			r0, r1, r2, r3 := rs[k][lo:hi], rs[k+1][lo:hi], rs[k+2][lo:hi], rs[k+3][lo:hi]
			for j, v := range d {
				d[j] = field.AccOf(v).AddMul(c0, r0[j]).AddMul(c1, r1[j]).AddMul(c2, r2[j]).AddMul(c3, r3[j]).Reduce()
			}
		}
		for ; k < len(cs); k++ {
			field.VecScaleAdd(d, cs[k], rs[k][lo:hi])
		}
	})
	// The tail rows credit their own multiplies in VecScaleAdd.
	field.AddMulCount(uint64((len(cs) &^ 3) * len(dst)))
	sp.End(len(cs) * len(dst))
}

// RSEncodeCtx writes the Reed-Solomon codeword of msg into dst: the
// transform of msg zero-padded to len(dst), through the NTT's padded
// entry point, which never touches the structural zeros (dst may be
// dirty arena scratch; it must not overlap msg). len(dst) must be the
// codeword length (a power of two ≥ len(msg)). On error dst must be
// discarded.
func RSEncodeCtx(ctx context.Context, dst, msg []field.Element) error {
	sp := BeginCtx(ctx, StageEncode)
	err := ntt.ForwardPaddedCtx(ctx, dst, msg)
	sp.End(len(dst))
	return err
}

// RSEncodeRowsCtx encodes a whole row matrix: dst[r] receives the
// codeword of src[r], as RSEncodeCtx would write it. It is one span timed
// from the calling goroutine — wall time, like every other stage — with
// the rows fanned out across the worker pool inside it; the rows share
// the NTT's cached permutation and twiddle tables. A worker fault or
// panic comes back as an error (par.ForErrCtx semantics).
func RSEncodeRowsCtx(ctx context.Context, dst, src [][]field.Element) error {
	if len(dst) != len(src) {
		panic("kernel: rs-encode row count mismatch")
	}
	if len(src) == 0 {
		return nil
	}
	sp := BeginCtx(ctx, StageEncode)
	err := par.ForErrCtxSized(ctx, len(src), len(dst[0]), func(lo, hi int) error {
		for r := lo; r < hi; r++ {
			if err := ntt.ForwardPaddedCtx(ctx, dst[r], src[r]); err != nil {
				return err
			}
		}
		return nil
	})
	sp.End(len(dst) * len(dst[0]))
	return err
}

// MerkleLevelCtx compresses one Merkle level: dst[i] = H(prev[2i] ‖
// prev[2i+1]). len(prev) must be 2·len(dst). Levels at or above the
// parallel threshold fan out across the worker pool; each range is handed
// to the engine's batch compression — the entry point the multi-buffer
// datapath fills its lanes from — in ctxCheckInterval pieces with
// cancellation polled in between.
func MerkleLevelCtx(ctx context.Context, eng hashfn.Engine, dst, prev []hashfn.Digest) error {
	if len(prev) != 2*len(dst) {
		panic("kernel: merkle level size mismatch")
	}
	sp := BeginCtx(ctx, StageMerkle)
	err := par.ForErrCtx(ctx, len(dst), func(lo, hi int) error {
		for ; lo < hi; lo += ctxCheckInterval {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := min(lo+ctxCheckInterval, hi)
			eng.CompressMany(dst[lo:end], prev[2*lo:2*end])
		}
		return nil
	})
	sp.End(len(dst))
	return err
}

// columnGroup is how many columns one SumColumns call hashes: the widest
// batch datapath's lane count (the 8-way sponge), so every full group
// fills all lanes of whichever datapath runs.
const columnGroup = 8

// ColumnLeavesCtx hashes every column of the row-major matrix rows into
// leaves: leaves[j] = H(rows[0][j] ‖ rows[1][j] ‖ …). Every rows[r] must
// have length ≥ len(leaves). Groups of columnGroup columns fan out across
// the worker pool, and the engine absorbs each group straight from the
// rows, so the pass copies nothing and allocates nothing.
func ColumnLeavesCtx(ctx context.Context, eng hashfn.Engine, leaves []hashfn.Digest, rows [][]field.Element) error {
	return leavesCtx(ctx, len(leaves), len(rows), func(lo, hi int) {
		for j := lo; j < hi; j += columnGroup {
			eng.SumColumns(leaves[j:min(j+columnGroup, hi)], rows, j)
		}
	})
}

// HashColumnsCtx is ColumnLeavesCtx over columns that are already
// contiguous — a verifier's opened columns: leaves[q] = H(cols[q]), the
// digest hashfn.HashElems gives. Each worker transposes every group of
// columnGroup columns into one depth × columnGroup block and hashes it
// through the same SumColumns entry. Every cols[q] must have the same
// length and len(cols) must equal len(leaves).
func HashColumnsCtx(ctx context.Context, eng hashfn.Engine, leaves []hashfn.Digest, cols [][]field.Element) error {
	if len(cols) != len(leaves) {
		panic("kernel: column count mismatch")
	}
	if len(cols) == 0 {
		return nil
	}
	depth := len(cols[0])
	for _, col := range cols {
		if len(col) != depth {
			panic("kernel: ragged columns")
		}
	}
	return leavesCtx(ctx, len(leaves), depth, func(lo, hi int) {
		flat := make([]field.Element, depth*columnGroup)
		block := make([][]field.Element, depth)
		for r := range block {
			block[r] = flat[r*columnGroup : (r+1)*columnGroup]
		}
		for j := lo; j < hi; j += columnGroup {
			group := cols[j:min(j+columnGroup, hi)]
			for k, col := range group {
				for r, v := range col {
					block[r][k] = v
				}
			}
			eng.SumColumns(leaves[j:j+len(group)], block, 0)
		}
	})
}

// leavesCtx is the shared body of the leaf kernels: it fans n columns of
// depth elements out across the worker pool in whole groups, so only the
// last group of the pass is narrower than columnGroup, and hash(lo, hi)
// hashes columns [lo, hi). A group weighs its columnGroup columns, so a
// pass fans out from par's threshold of columns: a prover's 2^13 leaves
// do, a verifier's 189 opened columns do not.
func leavesCtx(ctx context.Context, n, depth int, hash func(lo, hi int)) error {
	sp := BeginCtx(ctx, StageMerkle)
	groups := (n + columnGroup - 1) / columnGroup
	err := par.ForErrCtxSized(ctx, groups, columnGroup, func(lo, hi int) error {
		hash(lo*columnGroup, min(hi*columnGroup, n))
		return nil
	})
	sp.End(n * depth)
	return err
}

// SpMVCtx computes the sparse matrix-vector product dst[i] = rows[i]·x
// across the worker pool. Worker panics re-raise on the calling
// goroutine (par.ForCtx semantics), so callers keep their existing
// zkerr containment behavior.
func SpMVCtx(ctx context.Context, dst []field.Element, rows [][]Entry, x []field.Element) error {
	if len(dst) != len(rows) {
		panic("kernel: spmv output size mismatch")
	}
	sp := BeginCtx(ctx, StageSpMV)
	err := par.ForCtx(ctx, len(rows), func(lo, hi int) {
		muls := 0
		for i := lo; i < hi; i++ {
			dst[i] = rowDot(rows[i], x)
			muls += len(rows[i])
		}
		field.AddMulCount(uint64(muls))
	})
	sp.End(len(rows))
	return err
}

// rowDot returns Σ e.Val·x[e.Col] over one sparse row, reduced once.
func rowDot(row []Entry, x []field.Element) field.Element {
	var acc field.Acc
	for _, e := range row {
		acc = acc.AddMul(e.Val, x[e.Col])
	}
	return acc.Reduce()
}

// SpMVSerialCtx is SpMV on the calling goroutine, for small systems and
// recursive encoders where fan-out costs more than it saves. It carries
// per-run stats attribution and polls for cancellation every
// ctxCheckInterval rows.
func SpMVSerialCtx(ctx context.Context, dst []field.Element, rows [][]Entry, x []field.Element) error {
	if len(dst) != len(rows) {
		panic("kernel: spmv output size mismatch")
	}
	sp := BeginCtx(ctx, StageSpMV)
	muls := 0
	for i, row := range rows {
		if i%ctxCheckInterval == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				sp.End(i)
				return err
			}
		}
		dst[i] = rowDot(row, x)
		muls += len(row)
	}
	field.AddMulCount(uint64(muls))
	sp.End(len(rows))
	return nil
}

// SpMVTCtx accumulates the scaled transpose product
//
//	dst[e.Col] += scale·y[i]·e.Val   for every entry e of rows[i]
//
// serially (the column scatter would race under fan-out). This is the
// Mᵀ·y shape of Spartan's inner sumcheck assembly. len(y) must be
// ≥ len(rows); dst must span every referenced column.
func SpMVTCtx(ctx context.Context, dst []field.Element, rows [][]Entry, y []field.Element, scale field.Element) error {
	sp := BeginCtx(ctx, StageSpMV)
	muls := len(rows)
	for i, row := range rows {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				sp.End(i)
				return err
			}
		}
		w := field.Mul(scale, y[i])
		if w.IsZero() {
			continue
		}
		for _, e := range row {
			dst[e.Col] = field.MulAdd(w, e.Val, dst[e.Col])
		}
		muls += len(row)
	}
	field.AddMulCount(uint64(muls))
	sp.End(len(rows))
	return nil
}
