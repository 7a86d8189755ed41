package nocap_test

import (
	"crypto/sha3"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"nocap"
)

// updateGolden regenerates testdata/proof_golden.json from the current
// code: `go test -run TestProofBytesGolden -update .`. The checked-in
// file was generated at the commit before the datapath rewrite (ISSUE
// 13), so the test proves that no kernel change moved a proof byte.
var updateGolden = flag.Bool("update", false, "rewrite testdata/proof_golden.json from the current prover")

const goldenFile = "testdata/proof_golden.json"

// goldenCases are the pinned statements: the synthetic band at a size
// below and a size above the parallel thresholds, single and triple
// repetition, plus one paper circuit — each under both hash engines.
var goldenCases = []struct {
	circuit string
	n, reps int
}{
	{"synthetic", 1 << 10, 1},
	{"synthetic", 1 << 10, 3},
	{"synthetic", 1 << 13, 1},
	{"synthetic", 1 << 13, 3},
	{"auction", 64, 3},
}

// TestProofBytesGolden pins SHA3-256(MarshalProof(proof)) of non-ZK
// proves (the only randomness in a proof is the ZK masking, so with it
// off the bytes are a pure function of the statement and the code).
func TestProofBytesGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases {
		bm, err := nocap.CircuitByName(c.circuit, c.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range nocap.HashEngineNames() {
			p := nocap.DefaultParams()
			p.PCS.ZK = false
			p.Reps = c.reps
			if p, err = nocap.WithHashEngine(p, engine); err != nil {
				t.Fatal(err)
			}
			proof, err := nocap.Prove(p, bm.Inst, bm.IO, bm.Witness)
			if err != nil {
				t.Fatalf("%s/%d reps %d %s: prove: %v", c.circuit, c.n, c.reps, engine, err)
			}
			data, err := nocap.MarshalProof(proof)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha3.Sum256(data)
			got[fmt.Sprintf("%s/%d/reps%d/%s", c.circuit, c.n, c.reps, engine)] = hex.EncodeToString(sum[:])
		}
	}
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, test produced %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: proof digest %s, golden %s", k, got[k], w)
		}
	}
}
