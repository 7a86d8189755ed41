package spartan

import (
	"encoding/base64"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"nocap/internal/advtest"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/merkle"
	"nocap/internal/wire"
)

// updateVerifyErrors regenerates testdata/verify_errors_golden.json from
// the current verifier: `go test -run TestVerifyErrorGolden -update-verify-errors
// ./internal/spartan`. The checked-in file was generated before the
// verifier moved onto the batched datapath, so the test proves that no
// datapath change moved an accept/reject decision or an error string.
var updateVerifyErrors = flag.Bool("update-verify-errors", false, "rewrite testdata/verify_errors_golden.json from the current verifier")

const verifyErrorsFile = "testdata/verify_errors_golden.json"

// verifyErrorMutations is how many advtest mutations the golden pins.
const verifyErrorMutations = 2000

// verifyErrorsGolden is the file's shape. The proof is stored, not
// re-proved, because a ZK proof is randomized and the error strings of
// its mutations name transcript-derived column indices.
type verifyErrorsGolden struct {
	Proof     string            `json:"proof"`
	Mutations []string          `json:"mutations"`
	TwoFault  map[string]string `json:"two_fault"`
}

// errString is the golden's rendering of a verification outcome.
func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// twoFaultCases are hand-made opening proofs with faults on two columns
// (or two checks of one column). Each pins which fault the verifier
// reports: the first failing column, and within a column the order
// height → index → auth → proximity → eval.
var twoFaultCases = []struct {
	name   string
	mutate func(op *openingView)
}{
	{"bad-sibling-col3+bad-proximity-value-col7", func(o *openingView) {
		o.flipSibling(3, 0)
		o.bump(7, 0) // a data row: feeds every proximity check
	}},
	{"short-col0+wrong-index-col5", func(o *openingView) {
		o.cols[0] = o.cols[0][:len(o.cols[0])-1]
		o.paths[5].Index ^= 1
	}},
	{"truncated-path-col6+bad-eval-col2", func(o *openingView) {
		o.paths[6].Siblings = o.paths[6].Siblings[:len(o.paths[6].Siblings)-1]
		o.bump(2, o.evalMaskRow(0)) // the first point's eval mask entry
	}},
	{"wrong-index-col0+extra-sibling-col1", func(o *openingView) {
		o.paths[0].Index ^= 2
		o.paths[1].Siblings = append(o.paths[1].Siblings, hashfn.Digest{7})
	}},
	{"bad-sibling-col2+short-col4", func(o *openingView) {
		o.flipSibling(2, 5)
		o.cols[4] = o.cols[4][:1]
	}},
	{"extra-sibling-col0", func(o *openingView) {
		o.paths[0].Siblings = append(o.paths[0].Siblings, o.paths[0].Siblings[0])
	}},
	{"empty-paths-from-col1", func(o *openingView) {
		for q := 1; q < len(o.paths); q++ {
			o.paths[q].Siblings = nil
		}
	}},
	{"swapped-openings-col5-col6", func(o *openingView) {
		o.cols[5], o.cols[6] = o.cols[6], o.cols[5]
		o.paths[5], o.paths[6] = o.paths[6], o.paths[5]
	}},
	{"swapped-column-data-col5-col6", func(o *openingView) {
		o.cols[5], o.cols[6] = o.cols[6], o.cols[5]
	}},
	{"bad-sibling-last-level-col9+bad-proximity-value-col9", func(o *openingView) {
		o.flipSibling(9, len(o.paths[9].Siblings)-1)
		o.bump(9, 1)
	}},
	{"tall-col3+bad-sibling-col8", func(o *openingView) {
		o.cols[3] = append(o.cols[3], field.One)
		o.flipSibling(8, 0)
	}},
	{"negative-index-col1", func(o *openingView) {
		o.paths[1].Index = -1
	}},
}

// openingView is a deep copy of a proof's opened columns and paths that
// a two-fault case edits.
type openingView struct {
	cols    [][]field.Element
	paths   []merkle.Path
	rows    int
	numProx int
}

func (o *openingView) flipSibling(q, level int) { o.paths[q].Siblings[level][0] ^= 1 }

func (o *openingView) bump(q, row int) { o.cols[q][row] = field.Add(o.cols[q][row], field.One) }

func (o *openingView) evalMaskRow(point int) int { return o.rows + o.numProx + point }

// withTwoFaults returns a copy of proof with one case's faults applied.
func withTwoFaults(params Params, proof *Proof, mutate func(*openingView)) *Proof {
	src := proof.Opening
	o := &openingView{rows: proof.Commitment.Rows, numProx: params.PCS.NumProximity}
	for _, c := range src.Columns {
		o.cols = append(o.cols, append([]field.Element(nil), c...))
	}
	for _, p := range src.Paths {
		o.paths = append(o.paths, merkle.Path{Index: p.Index, Siblings: append([]hashfn.Digest(nil), p.Siblings...)})
	}
	mutate(o)
	op := *src
	op.Columns, op.Paths = o.cols, o.paths
	p := *proof
	p.Opening = &op
	return &p
}

// TestVerifyErrorGolden pins the exact error Verify returns for the
// first verifyErrorMutations advtest mutations of the
// TestAdversarialMutations statement's proof, and for the two-fault
// opening proofs above.
func TestVerifyErrorGolden(t *testing.T) {
	params := TestParams()
	inst, io, _ := buildFibonacci(12, 1, 2)

	var golden verifyErrorsGolden
	var valid []byte
	if *updateVerifyErrors {
		_, _, w := buildFibonacci(12, 1, 2)
		proof, err := Prove(params, inst, io, w)
		if err != nil {
			t.Fatal(err)
		}
		if valid, err = proof.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	} else {
		raw, err := os.ReadFile(verifyErrorsFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
		if valid, err = base64.StdEncoding.DecodeString(golden.Proof); err != nil {
			t.Fatal(err)
		}
	}

	limits := wire.DefaultLimits()
	limits.MaxProofBytes = 2 * len(valid)
	limits.MaxTotalAlloc = int64(8 * len(valid))
	outcome := func(data []byte) string {
		p, err := UnmarshalProofLimits(data, limits)
		if err != nil {
			return "decode: " + err.Error()
		}
		return errString(Verify(params, inst, io, p))
	}

	base, err := UnmarshalProofLimits(valid, limits)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(params, inst, io, base); err != nil {
		t.Fatalf("stored proof does not verify: %v", err)
	}

	got := verifyErrorsGolden{
		Proof:    base64.StdEncoding.EncodeToString(valid),
		TwoFault: map[string]string{},
	}
	mut := advtest.NewMutator(valid, 1)
	for i := 0; i < verifyErrorMutations; i++ {
		got.Mutations = append(got.Mutations, outcome(mut.Next().Data))
	}
	for _, c := range twoFaultCases {
		got.TwoFault[c.name] = errString(Verify(params, inst, io, withTwoFaults(params, base, c.mutate)))
	}

	if *updateVerifyErrors {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verifyErrorsFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	if len(golden.Mutations) != verifyErrorMutations {
		t.Fatalf("golden has %d mutations, want %d", len(golden.Mutations), verifyErrorMutations)
	}
	for i, want := range golden.Mutations {
		if got.Mutations[i] != want {
			t.Errorf("mutation %d: got %q, want %q", i, got.Mutations[i], want)
		}
	}
	if len(golden.TwoFault) != len(twoFaultCases) {
		t.Errorf("golden has %d two-fault cases, want %d", len(golden.TwoFault), len(twoFaultCases))
	}
	for _, c := range twoFaultCases {
		if want, ok := golden.TwoFault[c.name]; !ok || got.TwoFault[c.name] != want {
			t.Errorf("%s: got %q, want %q", c.name, got.TwoFault[c.name], want)
		}
	}
}

// TestVerifyErrorGoldenCoversTheColumnChecks keeps the golden honest:
// its two-fault cases must reach the column checks (not stop at a
// structural or transcript error), and its mutations must hit both the
// decoder and the verifier.
func TestVerifyErrorGoldenCoversTheColumnChecks(t *testing.T) {
	raw, err := os.ReadFile(verifyErrorsFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden verifyErrorsGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	decode, verify := 0, 0
	for _, s := range golden.Mutations {
		switch {
		case strings.HasPrefix(s, "decode:"):
			decode++
		case s != "ok":
			verify++
		}
	}
	if decode == 0 || verify == 0 {
		t.Fatalf("golden mutations: %d decode rejections, %d verify rejections", decode, verify)
	}
	for name, s := range golden.TwoFault {
		if !strings.Contains(s, "column") {
			t.Errorf("two-fault case %s stops before the column checks: %q", name, s)
		}
	}
}
