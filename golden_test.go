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
	"nocap/internal/hashfn"
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

// statement names a circuit at a size, as nocap.CircuitByName takes it.
type statement struct {
	circuit string
	n       int
}

// digestGolden pins Instance.Digest() of the paper and benchmark
// statements, taken before the digest was streamed. The proof golden
// covers only the synthetic and auction matrices; these also pin AES,
// SHA, RSA and litmus, so neither a synthesis change nor a serializer
// change can move a matrix entry unnoticed.
var digestGolden = map[statement]string{
	{"aes", 1}:             "c563b441ee98e325042f6032aea63a988148c017bab94b25804704e9469b71b0",
	{"sha", 1}:             "0857a4b2131195a10311a57294ee85a60255100838fe7da05b9e643c948f5a91",
	{"rsa", 8}:             "1ef54196c3e4e73ea750fb38d9c6043533905a170c1fac6f0e8969784224dcb1",
	{"auction", 64}:        "ae18aba28b783777da9abff5a888f71894b2d7a777cf673c1f97bae46a5691ca",
	{"litmus", 16}:         "eb059be95a3f4b79c84a0d1b54478115bedac281af71ee92192e3ce84a591a79",
	{"synthetic", 1 << 16}: "f165e093c5b1550a7bd811c814af26a436572cf72959dfb0634bdea7e835528e",
}

// TestInstanceDigestGolden checks every pinned statement digest, and
// that keccak-x4's uncached DigestEngine returns the same SHA3-256 value.
func TestInstanceDigestGolden(t *testing.T) {
	x4, ok := hashfn.ByName("keccak-x4")
	if !ok {
		t.Fatal("keccak-x4 engine not registered")
	}
	for st, want := range digestGolden {
		bm, err := nocap.CircuitByName(st.circuit, st.n)
		if err != nil {
			t.Fatal(err)
		}
		// keccak-x4 first, on an instance with nothing memoized.
		dx4 := bm.Inst.DigestEngine(x4)
		d := bm.Inst.Digest()
		if got := hex.EncodeToString(d[:]); got != want {
			t.Errorf("%s/%d: digest %s, golden %s", st.circuit, st.n, got, want)
		}
		if dx4 != d {
			t.Errorf("%s/%d: keccak-x4 DigestEngine disagrees with Digest", st.circuit, st.n)
		}
	}
}
