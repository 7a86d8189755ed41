package r1cs

// SetBuildHook makes f see every builder as its Build starts, until the
// returned function restores the previous hook.
func SetBuildHook(f func(*Builder)) (restore func()) {
	prev := buildHook
	buildHook = f
	return func() { buildHook = prev }
}

// ReferenceMatrices assembles the constraints b holds, before its Build,
// entry by entry through SparseMatrix.Add: the definition that Build's
// in-place mapping and merge must reproduce.
func ReferenceMatrices(b *Builder) [3]*SparseMatrix {
	m, n, zIndex := b.layout()
	var mats [3]*SparseMatrix
	for k := range mats {
		mats[k] = NewSparseMatrix(m, n)
	}
	blocks := b.blocks
	var rest []Entry
	for r, lens := range b.lens {
		if int(lens[0]+lens[1]+lens[2]) > len(rest) {
			rest, blocks = blocks[0], blocks[1:]
		}
		for k, l := range lens {
			for _, e := range rest[:l] {
				mats[k].Add(r, zIndex[e.Col], e.Val)
			}
			rest = rest[l:]
		}
	}
	return mats
}

// FirstDiffRow returns the first row at which got and want differ in
// column, order or value, or -1 when they have the same rows.
func FirstDiffRow(got, want *SparseMatrix) int {
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		return 0
	}
	for r := range want.Rows {
		if len(got.Rows[r]) != len(want.Rows[r]) {
			return r
		}
		for i, e := range want.Rows[r] {
			if got.Rows[r][i] != e {
				return r
			}
		}
	}
	return -1
}
