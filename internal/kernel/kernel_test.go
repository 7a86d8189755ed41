package kernel

import (
	"context"
	"math/rand"
	"testing"

	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/ntt"
	"nocap/internal/tasks"
)

func randElems(t *testing.T, rng *rand.Rand, n int) []field.Element {
	t.Helper()
	out := make([]field.Element, n)
	for i := range out {
		out[i] = field.New(rng.Uint64())
	}
	return out
}

func TestFoldMatchesReferenceAndAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	evals := randElems(t, rng, 64)
	r := field.New(rng.Uint64())

	want := make([]field.Element, 32)
	for i := range want {
		want[i] = field.Add(evals[i], field.Mul(r, field.Sub(evals[i+32], evals[i])))
	}

	base := &evals[0]
	got := Fold(evals, r)
	if len(got) != 32 {
		t.Fatalf("folded length = %d, want 32", len(got))
	}
	if &got[0] != base {
		t.Fatal("Fold must return a prefix of its input (arena Put is keyed on the base pointer)")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fold[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// eqRef evaluates eq(r, x) = Π_k (r_k·x_k + (1−r_k)(1−x_k)) directly.
func eqRef(r []field.Element, x int) field.Element {
	acc := field.One
	for k, rk := range r {
		bit := (x >> (len(r) - 1 - k)) & 1
		if bit == 1 {
			acc = field.Mul(acc, rk)
		} else {
			acc = field.Mul(acc, field.Sub(field.One, rk))
		}
	}
	return acc
}

func TestEqExpandMatchesProductFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randElems(t, rng, 5)
	table := make([]field.Element, 1<<5)
	// Pre-dirty: EqExpand must overwrite every entry.
	for i := range table {
		table[i] = field.New(^uint64(0) >> 1)
	}
	EqExpand(table, r)
	for x := range table {
		if want := eqRef(r, x); table[x] != want {
			t.Fatalf("eq table[%d] = %v, want %v", x, table[x], want)
		}
	}
}

func TestEqExpandSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on table/point size mismatch")
		}
	}()
	EqExpand(make([]field.Element, 7), make([]field.Element, 3))
}

func TestVecCombineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 3 rows × 16: the per-row tail loop alone, serial. 9 rows × 1024: two
	// four-row accumulator groups plus a tail row, above the fan-out
	// threshold. Both with a zero coefficient (skipped) and rows longer
	// than dst.
	for _, shape := range []struct{ rows, n int }{{3, 16}, {9, 1024}} {
		rows := make([][]field.Element, shape.rows)
		coeffs := make([]field.Element, shape.rows)
		for r := range rows {
			rows[r] = randElems(t, rng, shape.n+4*(r%2))
			coeffs[r] = field.New(rng.Uint64())
		}
		coeffs[1] = field.Zero
		base := randElems(t, rng, shape.n)

		want := append([]field.Element(nil), base...)
		for r, c := range coeffs {
			for i := range want {
				want[i] = field.Add(want[i], field.Mul(c, rows[r][i]))
			}
		}

		dst := append([]field.Element(nil), base...)
		VecCombine(dst, coeffs, rows)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%d rows: dst[%d] = %v, want %v", shape.rows, i, dst[i], want[i])
			}
		}
	}
}

func TestRSEncodeCtxOverwritesDirtyScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	msg := randElems(t, rng, 16)

	want := make([]field.Element, 64)
	copy(want, msg)
	ntt.Forward(want)

	// Arena scratch arrives with arbitrary contents; the kernel must
	// zero-pad the tail itself or codewords depend on stale memory.
	dst := randElems(t, rng, 64)
	if err := RSEncodeCtx(context.Background(), dst, msg); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("codeword[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// TestRSEncodeRowsCtxMatchesPerRow pins the whole-matrix entry point to
// the per-row one, on dirty destination rows, above and below the
// fan-out threshold.
func TestRSEncodeRowsCtxMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ rows, msgLen int }{{3, 16}, {20, 256}} {
		src := make([][]field.Element, shape.rows)
		dst := make([][]field.Element, shape.rows)
		want := make([][]field.Element, shape.rows)
		for r := range src {
			src[r] = randElems(t, rng, shape.msgLen)
			dst[r] = randElems(t, rng, 4*shape.msgLen)
			want[r] = make([]field.Element, 4*shape.msgLen)
			if err := RSEncodeCtx(context.Background(), want[r], src[r]); err != nil {
				t.Fatal(err)
			}
		}
		if err := RSEncodeRowsCtx(context.Background(), dst, src); err != nil {
			t.Fatal(err)
		}
		for r := range want {
			for i := range want[r] {
				if dst[r][i] != want[r][i] {
					t.Fatalf("%d rows: codeword %d differs at %d", shape.rows, r, i)
				}
			}
		}
	}
}

// TestKernelsCreditMultiplies pins the §III counter's contract on the
// kernel side: each invocation credits its exact multiply count once.
func TestKernelsCreditMultiplies(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	count := func(fn func()) uint64 {
		field.EnableMulCount(true)
		defer field.EnableMulCount(false)
		fn()
		return field.MulCount()
	}
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s credited %d multiplies, want %d", name, got, want)
		}
	}
	check("Fold", count(func() { Fold(randElems(t, rng, 16), field.New(3)) }), 8)
	check("EqExpand", count(func() { EqExpand(make([]field.Element, 16), randElems(t, rng, 4)) }), 15)
	rows := [][]field.Element{randElems(t, rng, 8), randElems(t, rng, 8), randElems(t, rng, 8)}
	check("VecCombine", count(func() {
		VecCombine(make([]field.Element, 8), []field.Element{2, 0, 3}, rows)
	}), 16)
	sparse := randSparse(rng, 8, 8)
	nnz := uint64(0)
	for _, row := range sparse {
		nnz += uint64(len(row))
	}
	check("SpMV", count(func() {
		if err := SpMVSerialCtx(context.Background(), make([]field.Element, 8), sparse, randElems(t, rng, 8)); err != nil {
			t.Fatal(err)
		}
	}), nnz)
	// A 64-point codeword of a 16-entry message: 2 of 6 stages are
	// replication, the other 4 are two radix-4 passes of 3·64/4 multiplies.
	check("RSEncode", count(func() {
		if err := RSEncodeCtx(context.Background(), make([]field.Element, 64), randElems(t, rng, 16)); err != nil {
			t.Fatal(err)
		}
	}), 96)
	a := [][]field.Element{randElems(t, rng, 8), randElems(t, rng, 8), randElems(t, rng, 8), randElems(t, rng, 8)}
	// The round loops are pure: the sumcheck driver credits them.
	check("CubicRound", count(func() { CubicRound(a[0], a[1], a[2], a[3], 4, 0, 4) }), 0)
}

func TestMerkleLevelCtxMatchesHash2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prev := make([]hashfn.Digest, 16)
	for i := range prev {
		prev[i] = hashfn.HashElems(randElems(t, rng, 2))
	}
	for _, name := range hashfn.Names() {
		eng, ok := hashfn.ByName(name)
		if !ok {
			t.Fatalf("engine %q not registered", name)
		}
		dst := make([]hashfn.Digest, 8)
		if err := MerkleLevelCtx(context.Background(), eng, dst, prev); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if want := hashfn.Hash2(prev[2*i], prev[2*i+1]); dst[i] != want {
				t.Fatalf("%s: level[%d] mismatch", name, i)
			}
		}
	}
}

// TestColumnLeavesCtxMatchesHashElems: both leaf kernels give each
// column the digest HashElems gives it — ColumnLeavesCtx over a
// row-major matrix, and HashColumnsCtx over 1…20 opened columns, which
// covers every ragged last group.
func TestColumnLeavesCtxMatchesHashElems(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const depth, cols = 5, 33
	rows := make([][]field.Element, depth)
	for r := range rows {
		rows[r] = randElems(t, rng, cols)
	}
	opened := make([][]field.Element, cols)
	want := make([]hashfn.Digest, cols)
	for j := range opened {
		opened[j] = make([]field.Element, depth)
		for r := range rows {
			opened[j][r] = rows[r][j]
		}
		want[j] = hashfn.HashElems(opened[j])
	}
	for _, name := range hashfn.Names() {
		eng, ok := hashfn.ByName(name)
		if !ok {
			t.Fatalf("engine %q not registered", name)
		}
		leaves := make([]hashfn.Digest, cols)
		if err := ColumnLeavesCtx(context.Background(), eng, leaves, rows); err != nil {
			t.Fatal(err)
		}
		for j := range leaves {
			if leaves[j] != want[j] {
				t.Fatalf("%s: leaf %d mismatch", name, j)
			}
		}
		for n := 1; n <= 20; n++ {
			leaves := make([]hashfn.Digest, n)
			if err := HashColumnsCtx(context.Background(), eng, leaves, opened[:n]); err != nil {
				t.Fatal(err)
			}
			for j := range leaves {
				if leaves[j] != want[j] {
					t.Fatalf("%s: HashColumnsCtx over %d columns: leaf %d mismatch", name, n, j)
				}
			}
		}
	}
}

func spmvRef(rows [][]Entry, x []field.Element) []field.Element {
	out := make([]field.Element, len(rows))
	for i, row := range rows {
		for _, e := range row {
			out[i] = field.Add(out[i], field.Mul(e.Val, x[e.Col]))
		}
	}
	return out
}

func randSparse(rng *rand.Rand, numRows, numCols int) [][]Entry {
	rows := make([][]Entry, numRows)
	for i := range rows {
		for k := 0; k < rng.Intn(4); k++ {
			rows[i] = append(rows[i], Entry{Col: rng.Intn(numCols), Val: field.New(rng.Uint64())})
		}
	}
	return rows
}

func TestSpMVVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randSparse(rng, 200, 64)
	x := randElems(t, rng, 64)
	want := spmvRef(rows, x)

	dst := randElems(t, rng, 200) // dirty: kernels overwrite, not accumulate
	if err := SpMVCtx(context.Background(), dst, rows, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SpMVCtx[%d] mismatch", i)
		}
	}

	dst2 := randElems(t, rng, 200)
	if err := SpMVSerialCtx(context.Background(), dst2, rows, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst2[i] != want[i] {
			t.Fatalf("SpMVSerialCtx[%d] mismatch", i)
		}
	}
}

func TestSpMVTCtxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := randSparse(rng, 64, 48)
	y := randElems(t, rng, 64)
	scale := field.New(rng.Uint64())

	want := make([]field.Element, 48)
	for i, row := range rows {
		w := field.Mul(scale, y[i])
		for _, e := range row {
			want[e.Col] = field.Add(want[e.Col], field.Mul(w, e.Val))
		}
	}

	dst := make([]field.Element, 48) // zeroed: SpMVT accumulates
	if err := SpMVTCtx(context.Background(), dst, rows, y, scale); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SpMVT[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestCtxKernelsHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(9))

	if err := RSEncodeCtx(ctx, make([]field.Element, 64), randElems(t, rng, 16)); err == nil {
		t.Error("RSEncodeCtx ignored cancelled context")
	}
	if err := RSEncodeRowsCtx(ctx, [][]field.Element{make([]field.Element, 64)}, [][]field.Element{randElems(t, rng, 16)}); err == nil {
		t.Error("RSEncodeRowsCtx ignored cancelled context")
	}
	if err := MerkleLevelCtx(ctx, hashfn.Default(), make([]hashfn.Digest, 4), make([]hashfn.Digest, 8)); err == nil {
		t.Error("MerkleLevelCtx ignored cancelled context")
	}
	if err := SpMVCtx(ctx, make([]field.Element, 8), randSparse(rng, 8, 8), randElems(t, rng, 8)); err == nil {
		t.Error("SpMVCtx ignored cancelled context")
	}
	if err := SpMVTCtx(ctx, make([]field.Element, 8), randSparse(rng, 8, 8), randElems(t, rng, 8), field.One); err == nil {
		t.Error("SpMVTCtx ignored cancelled context")
	}
	if err := ColumnLeavesCtx(ctx, hashfn.Default(), make([]hashfn.Digest, 8), [][]field.Element{randElems(t, rng, 8)}); err == nil {
		t.Error("ColumnLeavesCtx ignored cancelled context")
	}
}

func TestStageNamesMatchTaskTaxonomy(t *testing.T) {
	// The stage labels must stay in lockstep with internal/tasks so that
	// ProveStats breakdowns line up with the simulator's task families.
	pairs := []struct {
		stage Stage
		kind  tasks.Kind
	}{
		{StageSumcheck, tasks.Sumcheck},
		{StageEncode, tasks.RSEncode},
		{StageMerkle, tasks.Merkle},
		{StageSpMV, tasks.SpMV},
		{StagePoly, tasks.PolyArith},
	}
	for _, p := range pairs {
		if p.stage.String() != p.kind.String() {
			t.Errorf("stage %d = %q, tasks kind = %q", p.stage, p.stage, p.kind)
		}
	}
}

func TestSpansCreditCounters(t *testing.T) {
	before := Snapshot()
	rng := rand.New(rand.NewSource(10))
	Fold(randElems(t, rng, 16), field.One)
	d := Snapshot().Sub(before)
	if d.Sumcheck.Calls != 1 {
		t.Fatalf("sumcheck calls delta = %d, want 1", d.Sumcheck.Calls)
	}
	if d.Sumcheck.Elems != 8 {
		t.Fatalf("sumcheck elems delta = %d, want 8 (the folded half)", d.Sumcheck.Elems)
	}
	if d.Sumcheck.Wall <= 0 {
		t.Fatalf("sumcheck wall delta = %v, want > 0", d.Sumcheck.Wall)
	}
}

func TestNamedCoversAllStages(t *testing.T) {
	named := Snapshot().Named()
	for _, want := range []string{"sumcheck", "rs-encode", "merkle", "spmv", "poly-arith"} {
		if _, ok := named[want]; !ok {
			t.Errorf("Named() missing stage %q", want)
		}
	}
	if len(named) != 5 {
		t.Errorf("Named() has %d entries, want 5", len(named))
	}
}

// BenchmarkRSEncodeRows is the row-encode stage of a 2^16-constraint
// commitment: 140 rows (128 data + 12 mask) of 2^11 entries, blowup 4.
func BenchmarkRSEncodeRows(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const rows, msgLen = 140, 1 << 11
	src := make([][]field.Element, rows)
	dst := make([][]field.Element, rows)
	for r := range src {
		src[r] = make([]field.Element, msgLen)
		for i := range src[r] {
			src[r][i] = field.New(rng.Uint64())
		}
		dst[r] = make([]field.Element, 4*msgLen)
	}
	b.SetBytes(8 * rows * 4 * msgLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RSEncodeRowsCtx(context.Background(), dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatrix returns rows × cols random field elements, row-major.
func benchMatrix(rows, cols int) [][]field.Element {
	rng := rand.New(rand.NewSource(14))
	m := make([][]field.Element, rows)
	for r := range m {
		m[r] = make([]field.Element, cols)
		for i := range m[r] {
			m[r][i] = field.New(rng.Uint64())
		}
	}
	return m
}

// BenchmarkColumnLeaves is the leaf pass of a 2^16-constraint
// commitment: 140 rows (128 data + 12 mask) × 8192 encoded columns.
func BenchmarkColumnLeaves(b *testing.B) {
	rows := benchMatrix(140, 8192)
	leaves := make([]hashfn.Digest, 8192)
	b.SetBytes(8 * 140 * 8192)
	for b.Loop() {
		if err := ColumnLeavesCtx(context.Background(), hashfn.Default(), leaves, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashColumns is the verifier's side of the same commitment:
// 189 opened columns of 140 elements each.
func BenchmarkHashColumns(b *testing.B) {
	cols := benchMatrix(189, 140)
	leaves := make([]hashfn.Digest, len(cols))
	b.SetBytes(8 * 189 * 140)
	for b.Loop() {
		if err := HashColumnsCtx(context.Background(), hashfn.Default(), leaves, cols); err != nil {
			b.Fatal(err)
		}
	}
}
