package pcs

import (
	"context"
	"fmt"
	"testing"

	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/kernel"
	"nocap/internal/merkle"
	"nocap/internal/transcript"
)

// commitDishonest commits to vec honestly, then adds one to every entry
// of codeword row `row` and re-roots the tree over the altered matrix: a
// committer whose opened columns authenticate but whose matrix row no
// longer encodes the message it combines. With row a ZK mask row the
// fault is confined to one check: mask row NumProximity+i breaks only
// the evaluation check of point i, mask row pj only proximity vector pj.
func commitDishonest(t *testing.T, params Params, vec []field.Element, row int) *ProverState {
	t.Helper()
	st, err := Commit(params, vec)
	if err != nil {
		t.Fatal(err)
	}
	for j := range st.encoded[row] {
		st.encoded[row][j] = field.Add(st.encoded[row][j], field.One)
	}
	eng := params.Engine()
	leaves := make([]hashfn.Digest, len(st.encoded[0]))
	if err := kernel.ColumnLeavesCtx(context.Background(), eng, leaves, st.encoded); err != nil {
		t.Fatal(err)
	}
	if st.tree, err = merkle.NewEngineCtx(context.Background(), eng, leaves); err != nil {
		t.Fatal(err)
	}
	st.comm.Root = st.tree.Root()
	return st
}

// TestVerifyReportsFirstFailingCheck pins the verifier's error order on
// openings whose columns authenticate but fail a linear check: the first
// failing column is reported, and within a column the checks run height
// → index → authentication → proximity (vector by vector) → evaluation
// (point by point), whichever other columns also fail.
func TestVerifyReportsFirstFailingCheck(t *testing.T) {
	params := testParams(true)
	params.MaxPoints = 2
	vec := randVec(1<<10, 60)
	points := [][]field.Element{randPoint(10, 61), randPoint(10, 62)}
	proxRow := func(pj int) int { return params.Rows + pj }
	evalRow := func(i int) int { return params.Rows + params.NumProximity + i }

	cases := []struct {
		name   string
		row    int                     // codeword row the committer alters; −1: honest
		mutate func(op *OpeningProof)  // faults added to the opening
		want   func(idxs []int) string // expected error, given the opened positions
	}{
		{"proximity-vector-1", proxRow(1), nil, func(idxs []int) string {
			return fmt.Sprintf("%v (vector 1, column %d)", ErrProximity, idxs[0])
		}},
		{"evaluation-point-1", evalRow(1), nil, func(idxs []int) string {
			return fmt.Sprintf("%v (point 1, column %d)", ErrEvalCheck, idxs[0])
		}},
		{"evaluation-everywhere+bad-sibling-col3", evalRow(0), func(op *OpeningProof) {
			op.Paths[3].Siblings[0][0] ^= 1
		}, func(idxs []int) string {
			return fmt.Sprintf("%v (point 0, column %d)", ErrEvalCheck, idxs[0])
		}},
		{"proximity-everywhere+bad-sibling-col0", proxRow(0), func(op *OpeningProof) {
			op.Paths[0].Siblings[2][0] ^= 1
		}, func(idxs []int) string {
			return fmt.Sprintf("%v: column 0: %v", ErrColumnAuth, merkle.ErrPathMismatch)
		}},
		{"evaluation-everywhere+wrong-index-col0", evalRow(0), func(op *OpeningProof) {
			op.Paths[0].Index ^= 1
		}, func(idxs []int) string {
			return fmt.Sprintf("%v: column 0 opened at %d, expected %d", ErrColumnAuth, idxs[0]^1, idxs[0])
		}},
		{"proximity-everywhere+short-col0", proxRow(0), func(op *OpeningProof) {
			op.Columns[0] = op.Columns[0][:3]
		}, func([]int) string {
			return fmt.Sprintf("%v: column height", ErrMalformed)
		}},
		{"honest-then-short-col5", -1, func(op *OpeningProof) {
			op.Columns[5] = op.Columns[5][:3]
			op.Paths[7].Index++
		}, func([]int) string {
			return fmt.Sprintf("%v: column height", ErrMalformed)
		}},
		{"honest-then-bad-sibling-col6+wrong-index-col7", -1, func(op *OpeningProof) {
			op.Paths[6].Siblings[1][0] ^= 1
			op.Paths[7].Index++
		}, func([]int) string {
			return fmt.Sprintf("%v: column 6: %v", ErrColumnAuth, merkle.ErrPathMismatch)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var st *ProverState
			if c.row < 0 {
				var err error
				if st, err = Commit(params, vec); err != nil {
					t.Fatal(err)
				}
			} else {
				st = commitDishonest(t, params, vec, c.row)
			}
			defer st.Close()
			proof, values, err := st.Open(transcript.New("pcs-test"), points)
			if err != nil {
				t.Fatal(err)
			}
			if c.mutate != nil {
				c.mutate(proof)
			}
			err = Verify(params, st.Commitment(), transcript.New("pcs-test"), points, values, proof)
			if err == nil {
				t.Fatal("faulty opening accepted")
			}
			if want := c.want(openedIndices(params, st.Commitment(), points, values, proof)); err.Error() != want {
				t.Fatalf("got %q, want %q", err, want)
			}
		})
	}
}

// openedIndices replays the verifier's transcript up to the column
// challenge and returns the codeword positions the proof must open.
func openedIndices(params Params, comm *Commitment, points [][]field.Element, values []field.Element, proof *OpeningProof) []int {
	tr := transcript.New("pcs-test")
	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendUint64("pcs/points", uint64(len(points)))
	for i, pt := range points {
		tr.AppendElems("pcs/point", pt)
		tr.AppendElems("pcs/value", values[i:i+1])
	}
	for j := range proof.ProxVectors {
		tr.Challenges(fmt.Sprintf("pcs/gamma%d", j), comm.Rows)
		tr.AppendElems("pcs/prox", proof.ProxVectors[j])
	}
	for _, u := range proof.EvalVectors {
		tr.AppendElems("pcs/eval", u)
	}
	if params.ZK {
		tr.AppendElems("pcs/corrections", proof.MaskCorrections)
	}
	return tr.ChallengeIndices("pcs/columns", params.Code.Queries(), comm.MsgLen*params.Code.Blowup())
}
