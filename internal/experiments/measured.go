package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nocap/internal/circuits"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/pcs"
	"nocap/internal/poly"
	"nocap/internal/spartan"
	"nocap/internal/sumcheck"
	"nocap/internal/transcript"
)

// MeasuredResult reports real measurements of this repository's Go
// implementation at laptop scale: end-to-end prove/verify times, proof
// size, and a per-task runtime breakdown comparable to Fig. 6a's CPU
// bars.
type MeasuredResult struct {
	LogN              int
	Reps              int
	ProveSec          float64
	VerifySec         float64
	ProofBytes        int
	TaskSeconds       map[string]float64
	TaskShares        map[string]float64
	SatisfiedVerified bool
}

// Measured builds a synthetic banded instance of 2^logN constraints,
// proves and verifies it with the real Spartan+Orion implementation, and
// times the underlying tasks individually.
func Measured(logN, reps int) MeasuredResult {
	res, err := MeasuredCtx(context.Background(), logN, reps)
	if err != nil {
		panic("experiments: measured run failed: " + err.Error())
	}
	return res
}

// MeasuredCtx is Measured under a context: a long measured run (the CLI
// allows 2^20+ constraints) can be abandoned via -timeout or SIGINT,
// with the in-flight prove cancelled at its next checkpoint.
func MeasuredCtx(ctx context.Context, logN, reps int) (MeasuredResult, error) {
	return MeasuredEngineCtx(ctx, logN, reps, "")
}

// MeasuredEngineCtx is MeasuredCtx with the prover's hash engine
// selected by name ("" or "sha3" is the default scalar engine;
// "keccak-x4" the multi-buffer Merkle engine).
func MeasuredEngineCtx(ctx context.Context, logN, reps int, hashName string) (MeasuredResult, error) {
	bm := circuits.Synthetic(1 << uint(logN))
	params := spartan.DefaultParams()
	params.Reps = reps
	if hashName != "" {
		eng, ok := hashfn.ByName(hashName)
		if !ok {
			return MeasuredResult{}, fmt.Errorf("experiments: unknown hash engine %q", hashName)
		}
		params.PCS.Hash = eng
	}
	params.PCS.ZK = false // keep commit geometry identical to the isolated
	// encode timing below, so the encode/Merkle split is exact

	start := time.Now()
	proof, err := spartan.ProveCtx(ctx, params, bm.Inst, bm.IO, bm.Witness)
	proveSec := time.Since(start).Seconds()
	if err != nil {
		return MeasuredResult{}, fmt.Errorf("experiments: measured prove: %w", err)
	}
	start = time.Now()
	verr := spartan.VerifyCtx(ctx, params, bm.Inst, bm.IO, proof)
	verifySec := time.Since(start).Seconds()
	if verr != nil && ctx.Err() != nil {
		return MeasuredResult{}, fmt.Errorf("experiments: measured verify: %w", verr)
	}

	res := MeasuredResult{
		LogN:              logN,
		Reps:              reps,
		ProveSec:          proveSec,
		VerifySec:         verifySec,
		ProofBytes:        proof.SizeBytes(),
		TaskSeconds:       map[string]float64{},
		TaskShares:        map[string]float64{},
		SatisfiedVerified: verr == nil,
	}

	// Per-task timing on the same instance: each paper task is exercised
	// in isolation, mirroring the composition inside Prove.
	z := bm.Inst.AssembleZ(bm.IO, bm.Witness)

	start = time.Now()
	az, err := bm.Inst.A.MulCtx(ctx, z)
	if err != nil {
		return MeasuredResult{}, err
	}
	bz, err := bm.Inst.B.MulCtx(ctx, z)
	if err != nil {
		return MeasuredResult{}, err
	}
	cz, err := bm.Inst.C.MulCtx(ctx, z)
	if err != nil {
		return MeasuredResult{}, err
	}
	res.TaskSeconds["spmv"] = time.Since(start).Seconds()

	// Sumcheck: the outer degree-3 protocol, per repetition.
	start = time.Now()
	for rep := 0; rep < reps; rep++ {
		tr := transcript.New("measure")
		tau := tr.Challenges("tau", bm.Inst.LogConstraints())
		if _, _, _, err := sumcheck.ProveCubicCtx(ctx, tr, "outer", field.Zero, poly.EqTable(tau),
			append([]field.Element(nil), az...), append([]field.Element(nil), bz...), append([]field.Element(nil), cz...)); err != nil {
			return MeasuredResult{}, err
		}
	}
	res.TaskSeconds["sumcheck"] = time.Since(start).Seconds()

	// PCS commit, split into Reed-Solomon encoding vs Merkle hashing by
	// timing the encode separately.
	witness := z[len(z)/2:]
	pp := params.PCS
	if pp.Rows > len(witness) {
		pp.Rows = len(witness)
	}
	start = time.Now()
	cols := len(witness) / pp.Rows
	for r := 0; r < pp.Rows; r++ {
		pp.Code.Encode(witness[r*cols : (r+1)*cols])
	}
	res.TaskSeconds["rs-encode"] = time.Since(start).Seconds()

	start = time.Now()
	if _, err := pcs.CommitCtx(ctx, pp, witness); err != nil {
		return MeasuredResult{}, fmt.Errorf("experiments: measured commit: %w", err)
	}
	commitSec := time.Since(start).Seconds()
	merkleSec := commitSec - res.TaskSeconds["rs-encode"]
	if merkleSec < 0 {
		merkleSec = 0
	}
	res.TaskSeconds["merkle"] = merkleSec

	// Polynomial arithmetic: the eq-table constructions and folds.
	start = time.Now()
	r := transcript.New("measure-poly").Challenges("r", bm.Inst.LogVars())
	poly.EqTable(r)
	m := poly.NewMLE(append([]field.Element(nil), z...))
	for _, ri := range r {
		m.Fold(ri)
	}
	res.TaskSeconds["poly-arith"] = time.Since(start).Seconds()

	total := 0.0
	for _, v := range res.TaskSeconds {
		total += v
	}
	for k, v := range res.TaskSeconds {
		res.TaskShares[k] = v / total
	}
	return res, nil
}

// Render prints the measured run.
func (m MeasuredResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured Go implementation at 2^%d constraints (%d repetition(s))\n", m.LogN, m.Reps)
	fmt.Fprintf(&b, "prove: %.3f s   verify: %.3f s   proof: %.2f MB   verified: %v\n",
		m.ProveSec, m.VerifySec, float64(m.ProofBytes)/1e6, m.SatisfiedVerified)
	b.WriteString("task breakdown (measured):\n")
	for _, k := range []string{"sumcheck", "rs-encode", "poly-arith", "merkle", "spmv"} {
		fmt.Fprintf(&b, "  %-11s %6.1f%%\n", k, 100*m.TaskShares[k])
	}
	return b.String()
}
