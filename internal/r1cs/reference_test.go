package r1cs_test

import (
	"testing"

	"nocap/internal/circuits"
	"nocap/internal/r1cs"
)

// TestBuildMatchesReference builds every named circuit and checks each
// row of A, B and C against the matrices SparseMatrix.Add assembles from
// the same constraints: same columns, same order, same values.
func TestBuildMatchesReference(t *testing.T) {
	sizes := map[string]int{"aes": 1, "sha": 1, "rsa": 2, "auction": 8, "litmus": 8, "synthetic": 1000}
	for _, name := range circuits.Names() {
		n, ok := sizes[name]
		if !ok {
			t.Fatalf("no test size for circuit %q", name)
		}
		var ref [3]*r1cs.SparseMatrix
		restore := r1cs.SetBuildHook(func(b *r1cs.Builder) { ref = r1cs.ReferenceMatrices(b) })
		bm, err := circuits.ByName(name, n)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range []*r1cs.SparseMatrix{bm.Inst.A, bm.Inst.B, bm.Inst.C} {
			if r := r1cs.FirstDiffRow(got, ref[k]); r >= 0 {
				t.Errorf("%s/%d: matrix %c differs from the reference at row %d", name, n, "ABC"[k], r)
			}
		}
	}
}
