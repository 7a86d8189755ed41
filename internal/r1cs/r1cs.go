// Package r1cs implements the rank-1 constraint system arithmetization
// (paper §II-B): sparse matrices A, B, C such that a wire-value vector z
// satisfies (Az) ∘ (Bz) = (Cz), together with the sparse matrix-vector
// products Spartan performs (the SpMV task of §V-A) and the sparse
// multilinear-extension evaluations the verifier needs.
//
// Layout convention (used throughout the repo): z = u ‖ w with |u| = |w| =
// NumVars/2; u = (1, io…, 0 pad) is public and w is the witness. The MLE
// of z splits on the top variable: z̃(y) = (1−y₀)·ũ(y') + y₀·w̃(y').
package r1cs

import (
	"context"
	"crypto/sha3"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"nocap/internal/arena"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/kernel"
	"nocap/internal/par"
)

// Entry is one nonzero of a sparse matrix row. It is the kernel layer's
// shared sparse-row layout, so matrices feed kernel.SpMVCtx directly.
type Entry = kernel.Entry

// SparseMatrix is a row-major sparse matrix. R1CS matrices are usually
// permutation-like: O(1) nonzeros per row, banded around the diagonal
// (paper §V-A), which is what makes output-stationary SpMV effective.
type SparseMatrix struct {
	NumRows, NumCols int
	Rows             [][]Entry
}

// NewSparseMatrix returns an empty rows×cols matrix.
func NewSparseMatrix(rows, cols int) *SparseMatrix {
	return &SparseMatrix{NumRows: rows, NumCols: cols, Rows: make([][]Entry, rows)}
}

// Add accumulates v at (r, c): a zero v is dropped, and a repeated column
// adds into its first occurrence. Builder.Build produces exactly these rows
// in place, and its parity tests assemble their reference through Add.
func (m *SparseMatrix) Add(r, c int, v field.Element) {
	if r < 0 || r >= m.NumRows || c < 0 || c >= m.NumCols {
		panic(fmt.Sprintf("r1cs: entry (%d,%d) out of %dx%d", r, c, m.NumRows, m.NumCols))
	}
	if v.IsZero() {
		return
	}
	for i, e := range m.Rows[r] {
		if e.Col == c {
			m.Rows[r][i].Val = field.Add(e.Val, v)
			return
		}
	}
	m.Rows[r] = append(m.Rows[r], Entry{Col: c, Val: v})
}

// NNZ returns the number of stored nonzeros.
func (m *SparseMatrix) NNZ() int {
	n := 0
	for _, r := range m.Rows {
		n += len(r)
	}
	return n
}

// Mul computes y = M·x (the SpMV task, paper §V-A), parallelized across
// output rows (output-stationary, like NoCap's dataflow).
func (m *SparseMatrix) Mul(x []field.Element) []field.Element {
	y, err := m.MulCtx(context.Background(), x)
	if err != nil {
		panic(err)
	}
	return y
}

// MulCtx is Mul with cooperative cancellation: the row fan-out stops
// dispatching chunks once ctx is cancelled and drains its workers
// before returning.
func (m *SparseMatrix) MulCtx(ctx context.Context, x []field.Element) ([]field.Element, error) {
	y := make([]field.Element, m.NumRows)
	if err := m.MulIntoCtx(ctx, y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MulIntoCtx computes y = M·x into caller-owned scratch (typically an
// arena checkout; len(y) must be NumRows, contents may be arbitrary).
// On error y must be discarded.
func (m *SparseMatrix) MulIntoCtx(ctx context.Context, y, x []field.Element) error {
	if len(x) != m.NumCols {
		panic("r1cs: SpMV dimension mismatch")
	}
	if len(y) != m.NumRows {
		panic("r1cs: SpMV output length mismatch")
	}
	return kernel.SpMVCtx(ctx, y, m.Rows, x)
}

// Bandwidth returns the maximum |col − row| over nonzeros: the matrix
// band the paper's SpMV scheduling exploits.
func (m *SparseMatrix) Bandwidth() int {
	maxBand := 0
	for r, row := range m.Rows {
		for _, e := range row {
			d := e.Col - r
			if d < 0 {
				d = -d
			}
			if d > maxBand {
				maxBand = d
			}
		}
	}
	return maxBand
}

// Instance is a padded R1CS statement: matrices over 2^logM rows and
// 2^logN columns, with the public half of z fixed by (1, PublicInputs).
type Instance struct {
	A, B, C *SparseMatrix
	// NumPublic is the number of io elements (excluding the leading 1).
	NumPublic int

	// digest memoizes the default-engine digest. It is stored only when
	// a digest has run to completion, so provers and verifiers sharing
	// one instance read either nothing or the final value.
	digest atomic.Pointer[hashfn.Digest]
	// name, when set, keys the default-engine digest in the process-wide
	// memo (namedDigests), shared by every instance of that name.
	name string
}

// SetName gives in its canonical statement name, under which
// DigestEngineCtx shares the default-engine digest with every other
// instance of that name in the process. Every instance given one name
// must therefore have the same matrices and public count; circuits.ByName
// is the only namer, with "circuit/clamped n". Call it before in is
// shared. It is a function rather than a method so that the nocap
// facade, which re-exports Instance, does not offer it.
func SetName(in *Instance, name string) { in.name = name }

// namedDigestCap bounds the process-wide digest memo: more names than the
// paper suite's statements at a handful of sizes each, at 32 bytes plus
// the name per entry.
const namedDigestCap = 64

// namedDigests is the process-wide default-engine digest of each named
// statement, so a statement built again is not hashed again. Only a
// completed digest is stored; when full, the oldest name is dropped.
var namedDigests = struct {
	sync.Mutex
	m     map[string]hashfn.Digest
	order [namedDigestCap]string // ring of the names in m, oldest at next
	next  int
}{m: make(map[string]hashfn.Digest, namedDigestCap)}

func lookupNamed(name string) (hashfn.Digest, bool) {
	if name == "" {
		return hashfn.Digest{}, false
	}
	namedDigests.Lock()
	defer namedDigests.Unlock()
	d, ok := namedDigests.m[name]
	return d, ok
}

func storeNamed(name string, d hashfn.Digest) {
	if name == "" {
		return
	}
	nd := &namedDigests
	nd.Lock()
	defer nd.Unlock()
	if _, ok := nd.m[name]; !ok {
		delete(nd.m, nd.order[nd.next]) // a no-op until the ring wraps
		nd.order[nd.next] = name
		nd.next = (nd.next + 1) % namedDigestCap
	}
	nd.m[name] = d
}

// ctxCheckInterval is how many matrix rows the digest serializer
// processes between cancellation checks.
const ctxCheckInterval = 1 << 12

// digestEntryBytes is the serialized size of one nonzero: row, column
// and value as little-endian 64-bit words. The shape header is one
// entry's worth too.
const digestEntryBytes = 24

// digestBufEntries sizes the serializer's fixed buffer (12 KiB): large
// enough that the sink sees few calls, small enough to stay in L1.
const digestBufEntries = 512

// writeStatement serializes the structural content of the instance that
// the digest commits to — the shapes, then every nonzero of A, B and C
// in row order — into h through one fixed buffer. It checks ctx every
// ctxCheckInterval rows and, once ctx is done, abandons the
// serialization and returns ctx's error.
func (in *Instance) writeStatement(ctx context.Context, h *sha3.SHA3) error {
	var buf [digestBufEntries * digestEntryBytes]byte
	b := buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(in.NumConstraints()))
	b = binary.LittleEndian.AppendUint64(b, uint64(in.NumVars()))
	b = binary.LittleEndian.AppendUint64(b, uint64(in.NumPublic))
	for _, mat := range []*SparseMatrix{in.A, in.B, in.C} {
		for r, row := range mat.Rows {
			if r%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for _, e := range row {
				if len(b) > len(buf)-digestEntryBytes {
					h.Write(b)
					b = buf[:0]
				}
				b = binary.LittleEndian.AppendUint64(b, uint64(r))
				b = binary.LittleEndian.AppendUint64(b, uint64(e.Col))
				b = binary.LittleEndian.AppendUint64(b, e.Val.Uint64())
			}
		}
	}
	h.Write(b)
	return nil
}

// Digest returns a structural hash of the instance (shapes and all matrix
// entries), used to bind proofs to the circuit being proven. The result
// is cached.
func (in *Instance) Digest() hashfn.Digest { return in.DigestEngine(nil) }

// DigestEngine is Digest under an explicit hash engine. Only the default
// (sha3 or nil) engine's digest is cached; other engines recompute it on
// every call.
func (in *Instance) DigestEngine(eng hashfn.Engine) hashfn.Digest {
	d, err := in.DigestEngineCtx(context.Background(), eng)
	if err != nil {
		panic(err) // unreachable: a background context is never done
	}
	return d
}

// DigestEngineCtx is DigestEngine under a context. Every registered
// engine computes SHA3-256 (hashfn's sha3fn), so the serialization
// streams through crypto/sha3's incremental SHA3-256 whatever the
// engine, and the result equals eng.Sum of the same bytes. Only the
// default engine's digest is memoized: on the instance, and for a named
// instance (see SetName) also process-wide under its name, so a memoized
// digest is returned even under a done ctx. Cancelling ctx abandons the
// digest, which is then never memoized, and returns the context's error.
func (in *Instance) DigestEngineCtx(ctx context.Context, eng hashfn.Engine) (hashfn.Digest, error) {
	memo := eng == nil || eng.ID() == hashfn.IDSHA3
	if memo {
		if d := in.digest.Load(); d != nil {
			return *d, nil
		}
		if d, ok := lookupNamed(in.name); ok {
			in.digest.Store(&d)
			return d, nil
		}
	}
	h := sha3.New256()
	if err := in.writeStatement(ctx, h); err != nil {
		return hashfn.Digest{}, err
	}
	var d hashfn.Digest
	h.Sum(d[:0])
	if memo {
		in.digest.Store(&d)
		storeNamed(in.name, d)
	}
	return d, nil
}

// NumConstraints returns the (padded) number of rows.
func (in *Instance) NumConstraints() int { return in.A.NumRows }

// NumVars returns the (padded) length of z.
func (in *Instance) NumVars() int { return in.A.NumCols }

// LogConstraints returns log2 of the padded constraint count.
func (in *Instance) LogConstraints() int {
	return bits.TrailingZeros(uint(in.NumConstraints()))
}

// LogVars returns log2 of the padded z length.
func (in *Instance) LogVars() int { return bits.TrailingZeros(uint(in.NumVars())) }

// validateShape panics if the instance is not power-of-two padded or the
// matrices disagree.
func (in *Instance) validateShape() {
	m, n := in.A.NumRows, in.A.NumCols
	if m == 0 || m&(m-1) != 0 || n < 2 || n&(n-1) != 0 {
		panic("r1cs: instance not power-of-two padded")
	}
	for _, mat := range []*SparseMatrix{in.B, in.C} {
		if mat.NumRows != m || mat.NumCols != n {
			panic("r1cs: matrix shapes disagree")
		}
	}
	if 1+in.NumPublic > n/2 {
		panic("r1cs: public inputs exceed the public half of z")
	}
}

// AssembleZ concatenates the public vector and witness into z.
// len(witness) must be NumVars/2.
func (in *Instance) AssembleZ(io, witness []field.Element) []field.Element {
	z := make([]field.Element, in.NumVars())
	in.AssembleZInto(z, io, witness)
	return z
}

// AssembleZInto assembles z = (1, io, 0…) ‖ witness into caller-owned
// scratch (len(z) must be NumVars, contents may be arbitrary).
func (in *Instance) AssembleZInto(z, io, witness []field.Element) {
	half := in.NumVars() / 2
	if len(z) != in.NumVars() {
		panic("r1cs: z length mismatch")
	}
	if len(witness) != half {
		panic("r1cs: witness must fill the private half of z")
	}
	if len(io) != in.NumPublic {
		panic("r1cs: wrong public input count")
	}
	clear(z[:half])
	z[0] = field.One
	copy(z[1:], io)
	copy(z[half:], witness)
}

// Satisfied reports whether (Az) ∘ (Bz) = (Cz) and returns the index of
// the first violated constraint (or -1).
func (in *Instance) Satisfied(z []field.Element) (bool, int) {
	in.validateShape()
	az, bz, cz := in.A.Mul(z), in.B.Mul(z), in.C.Mul(z)
	for i := range az {
		if field.Mul(az[i], bz[i]) != cz[i] {
			return false, i
		}
	}
	return true, -1
}

// MatrixEvalsCtx evaluates Ã, B̃, C̃ at (rx, ry) — the verifier's final
// Spartan check (our substitution for the Spark sparse commitment,
// DESIGN.md §3.4): Σ M[i,j]·eq(rx,i)·eq(ry,j) for each matrix.
// len(rx) = LogConstraints, len(ry) = LogVars.
//
// The two eq tables are arena scratch, and the three sums are one
// row-parallel pass over A, B and C, attributed to the spmv stage. Each
// chunk of rows keeps one delayed-reduction accumulator per matrix. A
// single-entry row (most R1CS rows) adds eq(rx,i)·Val·eq(ry,j) straight
// into it — one Mul at most, none for Val = 1, and no reduction of its
// own; a longer row sums its entries in a row accumulator, reduced once.
// Chunk results combine with field.Add, which is exact, so the values do
// not depend on the chunking. Cancelling ctx stops the fan-out and
// returns the context's error.
func (in *Instance) MatrixEvalsCtx(ctx context.Context, rx, ry []field.Element) (va, vb, vc field.Element, err error) {
	if len(rx) != in.LogConstraints() || len(ry) != in.LogVars() {
		panic("r1cs: matrix evaluation point dimension mismatch")
	}
	eqRow := arena.GetUninitCtx(ctx, in.NumConstraints())
	defer arena.Put(eqRow)
	eqCol := arena.GetUninitCtx(ctx, in.NumVars())
	defer arena.Put(eqCol)
	kernel.EqExpandCtx(ctx, eqRow, rx)
	kernel.EqExpandCtx(ctx, eqCol, ry)

	sp := kernel.BeginCtx(ctx, kernel.StageSpMV)
	var mu sync.Mutex
	nnz := 0
	mats := [3]*SparseMatrix{in.A, in.B, in.C}
	err = par.ForErrCtxSized(ctx, in.NumConstraints(), len(mats), func(lo, hi int) error {
		var sums [3]field.Acc
		entries := 0
		for m, mat := range mats {
			var s field.Acc
			for i, row := range mat.Rows[lo:hi] {
				entries += len(row)
				var w field.Element
				if len(row) == 1 {
					if w = eqCol[row[0].Col]; row[0].Val != field.One {
						w = field.Mul(row[0].Val, w)
					}
				} else {
					var r field.Acc
					for _, e := range row {
						r = r.AddMul(e.Val, eqCol[e.Col])
					}
					w = r.Reduce()
				}
				s = s.AddMul(eqRow[lo+i], w)
			}
			sums[m] = s
		}
		mu.Lock()
		nnz += entries
		va = field.Add(va, sums[0].Reduce())
		vb = field.Add(vb, sums[1].Reduce())
		vc = field.Add(vc, sums[2].Reduce())
		mu.Unlock()
		return nil
	})
	sp.End(nnz)
	if err != nil {
		return 0, 0, 0, err
	}
	return va, vb, vc, nil
}

// Stats summarizes an instance for benchmarking output.
type Stats struct {
	Constraints int
	Vars        int
	NNZ         int
	MaxBand     int
}

// Stats returns instance statistics.
func (in *Instance) Stats() Stats {
	band := in.A.Bandwidth()
	if b := in.B.Bandwidth(); b > band {
		band = b
	}
	if b := in.C.Bandwidth(); b > band {
		band = b
	}
	return Stats{
		Constraints: in.NumConstraints(),
		Vars:        in.NumVars(),
		NNZ:         in.A.NNZ() + in.B.NNZ() + in.C.NNZ(),
		MaxBand:     band,
	}
}
