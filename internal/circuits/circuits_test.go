package circuits

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/sha256"
	"testing"

	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/spartan"
)

// mustSatisfy asserts the benchmark's witness satisfies its instance.
func mustSatisfy(t *testing.T, bm *Benchmark) {
	t.Helper()
	z := bm.Inst.AssembleZ(bm.IO, bm.Witness)
	if ok, i := bm.Inst.Satisfied(z); !ok {
		t.Fatalf("%s: constraint %d violated", bm.Name, i)
	}
}

func TestAESMatchesStdlib(t *testing.T) {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	pt := []byte("theblockbreakers") // 16 bytes
	bm := AES(key, pt)
	mustSatisfy(t, bm)

	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16)
	block.Encrypt(want, pt)
	if !bytes.Equal(bm.Outputs, want) {
		t.Fatalf("AES circuit output %x, want %x", bm.Outputs, want)
	}
	t.Logf("AES 1-block circuit: %d constraints", bm.Inst.Stats().Constraints)
}

func TestAESMultiBlock(t *testing.T) {
	key := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	pt := make([]byte, 32)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	bm := AES(key, pt)
	mustSatisfy(t, bm)
	block, _ := aes.NewCipher(key[:])
	want := make([]byte, 32)
	block.Encrypt(want[:16], pt[:16])
	block.Encrypt(want[16:], pt[16:])
	if !bytes.Equal(bm.Outputs, want) {
		t.Fatal("multi-block AES mismatch")
	}
}

func TestSBoxPoly(t *testing.T) {
	// The interpolation polynomial must reproduce the S-box on all 256
	// points; SBox itself must match the canonical first values.
	canonical := []byte{0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5}
	for i, want := range canonical {
		if SBox[i] != want {
			t.Fatalf("SBox[%d] = %#x, want %#x", i, SBox[i], want)
		}
	}
	coeffs := SBoxPoly()
	if len(coeffs) != 256 {
		t.Fatalf("coeff count %d", len(coeffs))
	}
	for x := 0; x < 256; x++ {
		var acc field.Element
		for i := 255; i >= 0; i-- {
			acc = field.Add(field.Mul(acc, field.New(uint64(x))), coeffs[i])
		}
		if acc != field.New(uint64(SBox[x])) {
			t.Fatalf("poly(%d) = %v, want %d", x, acc, SBox[x])
		}
	}
}

func TestSHA256MatchesStdlib(t *testing.T) {
	// One padded block: 55-byte message "abc..." padded per SHA-256 rules.
	msg := []byte("abc")
	padded := sha256Pad(msg)
	bm := SHA256(padded)
	mustSatisfy(t, bm)
	want := sha256.Sum256(msg)
	if !bytes.Equal(bm.Outputs, want[:]) {
		t.Fatalf("SHA circuit digest %x, want %x", bm.Outputs, want)
	}
	t.Logf("SHA-256 1-block circuit: %d constraints", bm.Inst.Stats().Constraints)
}

func TestSHA256TwoBlocks(t *testing.T) {
	msg := bytes.Repeat([]byte("x"), 80) // forces two blocks after padding
	bm := SHA256(sha256Pad(msg))
	mustSatisfy(t, bm)
	want := sha256.Sum256(msg)
	if !bytes.Equal(bm.Outputs, want[:]) {
		t.Fatal("two-block SHA mismatch")
	}
}

// sha256Pad applies standard SHA-256 padding.
func sha256Pad(msg []byte) []byte {
	l := len(msg)
	padded := append([]byte(nil), msg...)
	padded = append(padded, 0x80)
	for len(padded)%64 != 56 {
		padded = append(padded, 0)
	}
	bitLen := uint64(l) * 8
	for i := 7; i >= 0; i-- {
		padded = append(padded, byte(bitLen>>(8*uint(i))))
	}
	return padded
}

func TestRSAMatchesBigInt(t *testing.T) {
	bm := RSA(4, 8, 99) // 128-bit modulus, 4 squarings
	mustSatisfy(t, bm)
	want := RSAExpected(4, 8, 99)
	got := fromLimbVals(func() []uint64 {
		out := make([]uint64, len(bm.Outputs)/2)
		for i := range out {
			out[i] = uint64(bm.Outputs[2*i]) | uint64(bm.Outputs[2*i+1])<<8
		}
		return out
	}())
	if got.Cmp(want) != 0 {
		t.Fatalf("RSA circuit %v, want %v", got, want)
	}
	t.Logf("RSA 128-bit/4-sq circuit: %d constraints", bm.Inst.Stats().Constraints)
}

func TestRSATamperRejected(t *testing.T) {
	bm := RSA(2, 4, 7)
	bm.Witness[0] = field.Add(bm.Witness[0], field.One)
	z := bm.Inst.AssembleZ(bm.IO, bm.Witness)
	if ok, _ := bm.Inst.Satisfied(z); ok {
		t.Fatal("tampered RSA witness accepted")
	}
}

func TestAuction(t *testing.T) {
	bids := []uint64{120, 455, 300, 455, 90, 777, 410}
	bm := Auction(bids)
	mustSatisfy(t, bm)
	winner := bm.Outputs[0]
	price := uint64(bm.Outputs[1]) | uint64(bm.Outputs[2])<<8 |
		uint64(bm.Outputs[3])<<16 | uint64(bm.Outputs[4])<<24
	winBid := uint64(bm.Outputs[5]) | uint64(bm.Outputs[6])<<8 |
		uint64(bm.Outputs[7])<<16 | uint64(bm.Outputs[8])<<24
	if winner != 5 || winBid != 777 || price != 455 {
		t.Fatalf("auction: winner=%d bid=%d price=%d", winner, winBid, price)
	}
}

func TestAuctionAscendingAndDescending(t *testing.T) {
	asc := Auction([]uint64{1, 2, 3, 4, 5})
	mustSatisfy(t, asc)
	if asc.Outputs[0] != 4 {
		t.Fatalf("ascending winner = %d", asc.Outputs[0])
	}
	desc := Auction([]uint64{5, 4, 3, 2, 1})
	mustSatisfy(t, desc)
	if desc.Outputs[0] != 0 {
		t.Fatalf("descending winner = %d", desc.Outputs[0])
	}
}

func TestLitmus(t *testing.T) {
	bm := Litmus(10, 4, 123)
	mustSatisfy(t, bm)
	// io = initial balances ‖ final balances ‖ accumulator; conservation:
	// totals must match.
	var initial, final field.Element
	for i := 0; i < 4; i++ {
		initial = field.Add(initial, bm.IO[i])
		final = field.Add(final, bm.IO[4+i])
	}
	if final != initial {
		t.Fatalf("balance not conserved: %v vs %v", final, initial)
	}
	t.Logf("Litmus 10tx/4acct circuit: %d constraints", bm.Inst.Stats().Constraints)
}

func TestLitmusCircuitExplicit(t *testing.T) {
	initial := []uint64{100, 50, 0}
	txns := []Transfer{{From: 0, To: 2, Amount: 60}, {From: 2, To: 1, Amount: 10}}
	bm := LitmusCircuit(initial, txns)
	mustSatisfy(t, bm)
	want := []uint64{40, 60, 50}
	for i, w := range want {
		if bm.IO[3+i] != field.New(w) {
			t.Fatalf("final balance %d = %v, want %d", i, bm.IO[3+i], w)
		}
	}
	// Accumulator matches the reference computation.
	if bm.IO[6] != LitmusAccumulator(txns) {
		t.Fatal("audit accumulator mismatch")
	}
}

func TestLitmusCircuitRejectsInsolvent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("insolvent batch accepted")
		}
	}()
	LitmusCircuit([]uint64{5, 0}, []Transfer{{From: 0, To: 1, Amount: 10}})
}

func TestLitmusTamperRejected(t *testing.T) {
	bm := Litmus(5, 4, 5)
	bm.IO[0] = field.Add(bm.IO[0], field.One)
	z := bm.Inst.AssembleZ(bm.IO, bm.Witness)
	if ok, _ := bm.Inst.Satisfied(z); ok {
		t.Fatal("tampered Litmus total accepted")
	}
}

func TestSynthetic(t *testing.T) {
	for _, n := range []int{100, 5000} {
		bm := Synthetic(n)
		mustSatisfy(t, bm)
		stats := bm.Inst.Stats()
		if stats.Constraints < n {
			t.Fatalf("synthetic(%d) has %d constraints", n, stats.Constraints)
		}
		// Banded structure: constraint i touches wires within a fixed
		// distance of i plus the public/witness half-split offset, so the
		// band never exceeds half the variable count (plus chain window).
		if stats.MaxBand > stats.Vars/2+8 {
			t.Fatalf("synthetic band too wide: %d of %d", stats.MaxBand, stats.Vars)
		}
	}
}

func TestEndToEndProofOfAuction(t *testing.T) {
	// Full-stack integration: circuit → Spartan+Orion proof → verify.
	bm := Auction([]uint64{500, 123, 999, 1})
	params := spartan.TestParams()
	proof, err := spartan.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := spartan.Verify(params, bm.Inst, bm.IO, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestEndToEndProofOfRSA(t *testing.T) {
	bm := RSA(2, 4, 11)
	params := spartan.TestParams()
	proof, err := spartan.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := spartan.Verify(params, bm.Inst, bm.IO, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func BenchmarkBuildAESBlock(b *testing.B) {
	key := [16]byte{1}
	pt := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		AES(key, pt)
	}
}

func BenchmarkBuildSHABlock(b *testing.B) {
	blocks := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		SHA256(blocks)
	}
}

// TestBuildAllocs guards synthesis against sliding back to an allocation
// per constraint row or per gadget term: one AES block (2^17 padded rows)
// and one SHA block (2^16) each build with a small fraction of an
// allocation per row.
func TestBuildAllocs(t *testing.T) {
	key := [16]byte{1}
	for _, c := range []struct {
		name  string
		limit float64
		build func()
	}{
		{"aes", 10_000, func() { AES(key, make([]byte, 16)) }},
		{"sha", 40_000, func() { SHA256(make([]byte, 64)) }},
	} {
		if got := testing.AllocsPerRun(2, c.build); got > c.limit {
			t.Errorf("%s block: %.0f allocations per build, limit %.0f", c.name, got, c.limit)
		}
	}
}

// TestNamedDigestMemo checks ByName's per-process statement digest for
// every circuit, at an ordinary size and at one Clamp raises: a second
// ByName of the name is served the digest under an already-cancelled
// context, so it did not hash, and that digest equals keccak-x4's, which
// is never memoized and always hashes.
func TestNamedDigestMemo(t *testing.T) {
	x4, ok := hashfn.ByName("keccak-x4")
	if !ok {
		t.Fatal("keccak-x4 engine not registered")
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	ordinary := map[string]int{"aes": 1, "sha": 1, "rsa": 3, "auction": 12, "litmus": 12, "synthetic": 3000}
	for _, name := range Names() {
		for _, n := range []int{ordinary[name], 0} {
			first, err := ByName(name, n)
			if err != nil {
				t.Fatal(err)
			}
			first.Inst.Digest()
			again, _ := ByName(name, n)
			d, err := again.Inst.DigestEngineCtx(done, nil)
			if err != nil {
				t.Fatalf("%s/%d: second ByName hashed under a done ctx: %v", name, n, err)
			}
			if dx4 := again.Inst.DigestEngine(x4); dx4 != d {
				t.Fatalf("%s/%d: memoized digest %x, keccak-x4 %x", name, n, d, dx4)
			}
		}
	}
}

// memoRulesRuns counts runs of TestNamedDigestMemoRules (-count > 1).
var memoRulesRuns int

// TestNamedDigestMemoRules checks that a cancelled digest is never
// memoized and that an instance built without ByName never reads the
// memo, even when ByName has filled it for the same statement.
func TestNamedDigestMemoRules(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	memoRulesRuns++
	n := 4320 + memoRulesRuns // a size no other test or earlier run names
	bm, _ := ByName("synthetic", n)
	if _, err := bm.Inst.DigestEngineCtx(done, nil); err != context.Canceled {
		t.Fatalf("cancelled digest: err %v, want context.Canceled", err)
	}
	again, _ := ByName("synthetic", n)
	if _, err := again.Inst.DigestEngineCtx(done, nil); err != context.Canceled {
		t.Fatalf("after a cancelled digest, the next ByName got err %v, want context.Canceled", err)
	}
	want := again.Inst.Digest()

	direct := Synthetic(n)
	if _, err := direct.Inst.DigestEngineCtx(done, nil); err != context.Canceled {
		t.Fatalf("Builder-made instance under a done ctx: err %v, want context.Canceled", err)
	}
	if got := direct.Inst.Digest(); got != want {
		t.Fatalf("Builder-made digest %x, ByName's %x", got, want)
	}
}
