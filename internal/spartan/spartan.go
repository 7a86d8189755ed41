// Package spartan implements the Spartan+Orion zk-SNARK — the novel
// combination the paper builds NoCap around (§II-A): the R1CS
// arithmetization, the Spartan polynomial IOP (two sumchecks), and the
// Orion polynomial commitment on the witness, all over Goldilocks-64 and
// made non-interactive by Fiat–Shamir.
//
// Protocol outline (per repetition; the whole IOP is repeated Reps times
// — the paper runs all sumchecks 3× to reach 128-bit soundness over the
// 64-bit field, §VII-A):
//
//  1. The prover commits to the witness MLE w̃ (Orion PCS).
//  2. Outer sumcheck: 0 = Σ_x eq(τ,x)·(Ãz(x)·B̃z(x) − C̃z(x)), degree 3,
//     over log(m) variables; yields rx and claims vA, vB, vC.
//  3. Inner sumcheck: rA·vA+rB·vB+rC·vC = Σ_y M(y)·z̃(y) with
//     M(y) = rA·Ã(rx,y)+rB·B̃(rx,y)+rC·C̃(rx,y), degree 2, over log(n)
//     variables; yields ry.
//  4. The verifier evaluates Ã,B̃,C̃(rx,ry) directly from the matrices
//     (the Spark substitution of DESIGN.md §3.4) and ũ(ry₁…) from the
//     public inputs; w̃(ry₁…) comes from one shared Orion opening across
//     all repetitions.
package spartan

import (
	"context"
	"fmt"

	"nocap/internal/arena"
	"nocap/internal/faultinject"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/kernel"
	"nocap/internal/pcs"
	"nocap/internal/poly"
	"nocap/internal/r1cs"
	"nocap/internal/sumcheck"
	"nocap/internal/transcript"
	"nocap/internal/zkerr"
)

// Registered fault-injection points at the prover's and verifier's
// stage boundaries (chaos tests arm them by these names).
var (
	fiProveAssemble     = faultinject.Register("spartan.prove.assemble")
	fiProveSpMV         = faultinject.Register("spartan.prove.spmv")
	fiProveCommit       = faultinject.Register("spartan.prove.commit")
	fiProveOuter        = faultinject.Register("spartan.prove.outer")
	fiProveInner        = faultinject.Register("spartan.prove.inner")
	fiProveOpen         = faultinject.Register("spartan.prove.open")
	fiVerifyRep         = faultinject.Register("spartan.verify.rep")
	fiVerifyMatrixEvals = faultinject.Register("spartan.verify.matrixevals")
	fiVerifyOpening     = faultinject.Register("spartan.verify.opening")
)

// Params configures the SNARK.
type Params struct {
	// PCS configures the Orion commitment (rows, code, proximity, ZK).
	PCS pcs.Params
	// Reps is the soundness-amplification repetition count; the paper
	// uses 3 (§VII-A).
	Reps int
	// Recompute selects the §V-A recomputation prover for the outer
	// sumcheck: DP inputs are re-derived from the matrices and z every
	// round (sumcheck.ProveStreamedCtx) instead of folding stored arrays.
	// Proofs are byte-identical either way; on NoCap the recomputation
	// variant trades multiplier throughput for 31% less memory traffic,
	// while on CPUs it is slightly slower (§VIII-C) — hence off by
	// default in this software prover.
	Recompute bool
}

// DefaultParams returns the paper's configuration: 3 repetitions,
// 128-row Orion matrix, Reed-Solomon blowup 4, 189 queries, ZK on.
func DefaultParams() Params {
	p := pcs.DefaultParams()
	return Params{PCS: p, Reps: 3}
}

// TestParams returns a configuration sized for unit tests: 1 repetition
// and a small commitment matrix.
func TestParams() Params {
	p := pcs.DefaultParams()
	p.Rows = 8
	p.ZK = true
	return Params{PCS: p, Reps: 1}
}

// RepProof holds one repetition's IOP messages.
type RepProof struct {
	Outer      *sumcheck.Proof
	VA, VB, VC field.Element
	Inner      *sumcheck.Proof
}

// Proof is a complete non-interactive Spartan+Orion proof.
type Proof struct {
	// Engine identifies the hash engine the proof was generated under.
	// The zero value means the legacy default (sha3): proofs deserialized
	// from the v1 wire format, or built by old code, carry 0 and verify
	// under sha3 parameters only.
	Engine hashfn.ID

	Commitment *pcs.Commitment
	Reps       []RepProof
	// WEvals[i] is w̃(ry_i[1:]) for repetition i, proven by Opening.
	WEvals  []field.Element
	Opening *pcs.OpeningProof
}

// SizeBytes returns the serialized proof size.
func (p *Proof) SizeBytes() int {
	n := p.Commitment.SizeBytes()
	for _, rp := range p.Reps {
		n += rp.Outer.SizeBytes() + rp.Inner.SizeBytes() + 3*8
	}
	n += 8 * len(p.WEvals)
	n += p.Opening.SizeBytes()
	return n
}

// effective returns the PCS params with Rows shrunk to fit small
// witnesses (test-scale instances); geometry stays a deterministic
// function of params and instance shape, so prover and verifier agree.
func (pp Params) effective(witnessLen int) pcs.Params {
	p := pp.PCS
	if p.Rows > witnessLen {
		p.Rows = witnessLen
	}
	if pp.Reps > p.MaxPoints {
		p.MaxPoints = pp.Reps
	}
	return p
}

// outerCombine is eq·(a·b − c), as a generic Combiner for the
// recomputation prover; the stored-array prover uses the dedicated cubic
// loop (sumcheck.ProveCubicCtx) for the same summand.
func outerCombine(v []field.Element) field.Element {
	return field.Mul(v[0], field.Sub(field.Mul(v[1], v[2]), v[3]))
}

// bindStatement absorbs everything both parties know up front: the
// instance digest, the public inputs and the repetition count.
func bindStatement(tr *transcript.Transcript, digest hashfn.Digest, io []field.Element, params Params) {
	tr.AppendDigest("instance", digest)
	tr.AppendElems("io", io)
	tr.AppendUint64("reps", uint64(params.Reps))
}

// statementDigest is the instance digest under the proof's engine,
// computed on its own goroutine beside the SpMV products and the witness
// commitment, neither of which touches the transcript. The value the
// goroutine computes is the value the transcript binds.
type statementDigest struct {
	done   chan struct{}
	stop   context.CancelFunc
	digest hashfn.Digest
	err    error
}

// startDigest starts hashing inst under eng. The caller must call close
// on every return path.
func startDigest(ctx context.Context, inst *r1cs.Instance, eng hashfn.Engine) *statementDigest {
	ctx, stop := context.WithCancel(ctx)
	sd := &statementDigest{done: make(chan struct{}), stop: stop}
	go func() {
		defer close(sd.done)
		defer zkerr.RecoverTo(&sd.err, "spartan.digest")
		sd.digest, sd.err = inst.DigestEngineCtx(ctx, eng)
	}()
	return sd
}

// wait returns the digest once the goroutine has finished.
func (sd *statementDigest) wait() (hashfn.Digest, error) {
	<-sd.done
	return sd.digest, sd.err
}

// close cancels a digest that is still running — it is then abandoned,
// not memoized — and joins its goroutine.
func (sd *statementDigest) close() {
	sd.stop()
	<-sd.done
}

// publicEval computes ũ(r) for u = (1, io, 0…) of length 2^len(r):
// Σ_{i<1+|io|} u[i]·eq(r, bits(i)), O(|io|·len(r)).
func publicEval(io []field.Element, r []field.Element) field.Element {
	eval := func(idx int) field.Element {
		acc := field.One
		for k, rk := range r {
			bit := (idx >> (len(r) - 1 - k)) & 1
			if bit == 1 {
				acc = field.Mul(acc, rk)
			} else {
				acc = field.Mul(acc, field.Sub(field.One, rk))
			}
		}
		return acc
	}
	out := eval(0) // u[0] = 1
	for i, v := range io {
		if v.IsZero() {
			continue
		}
		out = field.Add(out, field.Mul(v, eval(i+1)))
	}
	return out
}

// Prove generates a proof that the prover knows a witness satisfying the
// instance with the given public inputs.
//
// Fault containment: any panic during proving — including panics in
// worker goroutines, which internal/par re-raises on this goroutine — is
// converted to a zkerr.ErrInternal error, so one bad proving job cannot
// crash a process serving many.
func Prove(params Params, inst *r1cs.Instance, io, witness []field.Element) (*Proof, error) {
	return ProveCtx(context.Background(), params, inst, io, witness)
}

// checkpoint is the cooperative cancellation + fault-injection gate
// placed at every stage boundary of the pipeline: cancellation wins,
// then an armed chaos fault may fire at the named point.
func checkpoint(ctx context.Context, point string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return faultinject.Check(point)
}

// ProveCtx is Prove under a context: cancelling ctx (or passing one
// with an expired deadline) abandons the proof at the next cooperative
// checkpoint — between stages here, between sumcheck rounds, every few
// thousand points inside round evaluations, between worker-pool chunks,
// and between NTT passes — and returns an error satisfying
// errors.Is(err, context.Canceled) or context.DeadlineExceeded. All
// worker goroutines are drained before ProveCtx returns: a cancelled
// caller gets its goroutines and memory back immediately.
//
// A solo prove is a batch plan of one: it builds the statement's Shared
// plan and proves one member through it. Unlike NewSharedCtx it does not
// join the instance digest up front; the member joins it after the
// commitment, so hashing the statement overlaps SpMV and the commit.
func ProveCtx(ctx context.Context, params Params, inst *r1cs.Instance, io, witness []field.Element) (proof *Proof, err error) {
	defer zkerr.RecoverTo(&err, "spartan.Prove")
	if ctx == nil {
		ctx = context.Background()
	}
	sh, err := newShared(ctx, params, inst, io, witness, true)
	if err != nil {
		return nil, err
	}
	defer sh.release()
	defer sh.digest.close()
	return sh.prove(ctx)
}

// validateStatement checks the statement's shapes before any stage runs.
// A wrong count is the caller's error (ErrUsage): left to z assembly it
// would surface as a recovered panic, an internal error that the jobs
// layer retries.
func validateStatement(params Params, inst *r1cs.Instance, io, witness []field.Element) error {
	if params.Reps < 1 {
		return zkerr.Usagef("spartan: Reps must be ≥ 1")
	}
	if len(io) != inst.NumPublic {
		return zkerr.Usagef("spartan: %d public inputs, want %d", len(io), inst.NumPublic)
	}
	if half := inst.NumVars() / 2; len(witness) != half {
		return zkerr.Usagef("spartan: witness length %d, want %d", len(witness), half)
	}
	return nil
}

// spmvAndCheck fills az/bz/cz with the three sparse products and checks
// witness satisfaction directly on them.
func spmvAndCheck(ctx context.Context, inst *r1cs.Instance, z, az, bz, cz []field.Element) error {
	for _, p := range []struct {
		mat *r1cs.SparseMatrix
		dst []field.Element
	}{{inst.A, az}, {inst.B, bz}, {inst.C, cz}} {
		if err := p.mat.MulIntoCtx(ctx, p.dst, z); err != nil {
			return fmt.Errorf("spartan: spmv: %w", err)
		}
	}
	field.AddMulCount(uint64(len(az)))
	for i := range az {
		if field.Mul(az[i], bz[i]) != cz[i] {
			return fmt.Errorf("spartan: witness does not satisfy constraint %d", i)
		}
	}
	return nil
}

// Shared is the prover's shared-structure plan for one statement
// (DESIGN.md §15): every statement-level input that does not depend on a
// member's transcript or commitment randomness — the assembled z vector,
// the three SpMV products and the satisfaction check, and the instance
// digest (the transcript's first absorb) — computed once. A solo
// ProveCtx is a plan of one; a batch builds the plan with NewSharedCtx
// and proves each member through it. Per-member transcripts, ZK
// randomness, and proof bytes are untouched: a member proof is
// byte-identical to what solo ProveCtx would emit for the same
// statement.
//
// Plan data is read-only once built, so members may run concurrently.
// The plan borrows io and witness; the caller must not modify them while
// the plan is in use.
type Shared struct {
	params  Params
	inst    *r1cs.Instance
	io      []field.Element
	witness []field.Element
	z       []field.Element
	// az/bz/cz are nil when params.Recompute is set (products are
	// re-derived on demand from z during the outer sumcheck).
	az, bz, cz []field.Element
	// digest hashes the instance under the plan's engine beside SpMV and
	// the commitment; every member binds the value it computed.
	digest *statementDigest
	// pooled: z/az/bz/cz are arena checkouts, returned by release.
	pooled bool
}

// newShared runs the statement-level stages once: validation, z
// assembly, and the SpMV products with the satisfaction check, while the
// instance digest hashes on its own goroutine beside them. A pooled plan
// — a solo prove's plan of one, which lives exactly as long as its
// ProveCtx — checks its buffers out of the arena. A batch plan's buffers
// are plain allocations: the plan outlives any single member run, while
// arena accounting is run-scoped. On success the caller must close the
// plan's digest and release the plan; on failure both are already done.
func newShared(ctx context.Context, params Params, inst *r1cs.Instance, io, witness []field.Element, pooled bool) (*Shared, error) {
	if err := validateStatement(params, inst, io, witness); err != nil {
		return nil, err
	}
	if err := checkpoint(ctx, fiProveAssemble); err != nil {
		return nil, err
	}
	alloc := func(n int) []field.Element {
		if pooled {
			return arena.GetUninitCtx(ctx, n)
		}
		return make([]field.Element, n)
	}
	sh := &Shared{
		params:  params,
		inst:    inst,
		io:      io,
		witness: witness,
		z:       alloc(inst.NumVars()),
		digest:  startDigest(ctx, inst, params.PCS.Engine()),
		pooled:  pooled,
	}
	built := false
	defer func() {
		if !built {
			sh.digest.close()
			sh.release()
		}
	}()
	inst.AssembleZInto(sh.z, io, witness)

	// SpMV: the three sparse matrix-vector products (paper §V-A),
	// computed once and reused both for the witness satisfaction check
	// ((Az)∘(Bz) = Cz directly on the products — no separate Satisfied
	// pass) and, copied, as every repetition's outer DP arrays. With
	// recomputation on, products are re-derived on demand instead. The
	// transcript is untouched here, so running this stage before the
	// commitment leaves proof bytes unchanged.
	if err := checkpoint(ctx, fiProveSpMV); err != nil {
		return nil, err
	}
	if params.Recompute {
		if ok, i := inst.Satisfied(sh.z); !ok {
			return nil, fmt.Errorf("spartan: witness does not satisfy constraint %d", i)
		}
	} else {
		numCons := inst.NumConstraints()
		sh.az, sh.bz, sh.cz = alloc(numCons), alloc(numCons), alloc(numCons)
		if err := spmvAndCheck(ctx, inst, sh.z, sh.az, sh.bz, sh.cz); err != nil {
			return nil, err
		}
	}
	built = true
	return sh, nil
}

// release returns a pooled plan's buffers to the arena.
func (sh *Shared) release() {
	if sh.pooled {
		for _, b := range [][]field.Element{sh.z, sh.az, sh.bz, sh.cz} {
			arena.Put(b)
		}
	}
}

// NewSharedCtx builds the shared-structure plan for a batch proving one
// statement many times. It joins the instance digest before returning,
// so a batch fails at plan time and leaves no goroutine running.
func NewSharedCtx(ctx context.Context, params Params, inst *r1cs.Instance, io, witness []field.Element) (sh *Shared, err error) {
	defer zkerr.RecoverTo(&err, "spartan.NewShared")
	if ctx == nil {
		ctx = context.Background()
	}
	sh, err = newShared(ctx, params, inst, io, witness, false)
	if err != nil {
		return nil, err
	}
	defer sh.digest.close()
	if _, err := sh.digest.wait(); err != nil {
		return nil, fmt.Errorf("spartan: instance digest: %w", err)
	}
	return sh, nil
}

// ProveCtx proves the plan's statement as one batch member. The assemble
// and SpMV stages ran at plan time; their checkpoints fire again here so
// that cancellation and chaos faults behave as on the solo path and every
// checkpoint fires once per member. One member's cancellation or
// injected fault is contained to that member.
func (sh *Shared) ProveCtx(ctx context.Context) (proof *Proof, err error) {
	defer zkerr.RecoverTo(&err, "spartan.Prove")
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkpoint(ctx, fiProveAssemble); err != nil {
		return nil, err
	}
	if err := checkpoint(ctx, fiProveSpMV); err != nil {
		return nil, err
	}
	return sh.prove(ctx)
}

// prove is the member body: commit, the per-repetition outer/inner
// sumchecks, and the shared Orion opening. The transcript is created
// after the commitment, which never reads it, so the absorb order is the
// same as binding first, and a solo prove's digest goroutine hashes
// beside the commit. Every per-repetition buffer is arena scratch with a
// deferred Put.
func (sh *Shared) prove(ctx context.Context) (proof *Proof, err error) {
	params, inst, z := sh.params, sh.inst, sh.z
	numCons := inst.NumConstraints()
	rowDot := func(mat *r1cs.SparseMatrix, i int) field.Element {
		var acc field.Element
		for _, e := range mat.Rows[i] {
			acc = field.Add(acc, field.Mul(e.Val, z[e.Col]))
		}
		return acc
	}

	// 1. Commit to the witness.
	if err := checkpoint(ctx, fiProveCommit); err != nil {
		return nil, err
	}
	st, err := pcs.CommitCtx(ctx, params.effective(len(sh.witness)), sh.witness)
	if err != nil {
		return nil, fmt.Errorf("spartan: commit: %w", err)
	}
	defer st.Close()
	comm := st.Commitment()
	d, err := sh.digest.wait()
	if err != nil {
		return nil, fmt.Errorf("spartan: instance digest: %w", err)
	}
	eng := params.PCS.Engine()
	tr := transcript.NewEngine("spartan-orion", eng)
	bindStatement(tr, d, sh.io, params)
	tr.AppendDigest("witness-commitment", comm.Root)

	logM := inst.LogConstraints()
	proof = &Proof{Engine: eng.ID(), Commitment: comm, Reps: make([]RepProof, params.Reps)}
	openPoints := make([][]field.Element, params.Reps)

	for rep := 0; rep < params.Reps; rep++ {
		// Each repetition's DP arrays are rep-local arena scratch; the
		// closure scopes their deferred returns to the iteration.
		rp, point, repErr := func() (RepProof, []field.Element, error) {
			lbl := fmt.Sprintf("rep%d", rep)
			tau := tr.Challenges(lbl+"/tau", logM)

			// Outer sumcheck over x ∈ {0,1}^logM.
			if err := checkpoint(ctx, fiProveOuter); err != nil {
				return RepProof{}, nil, err
			}
			var outer *sumcheck.Proof
			var rx, finals []field.Element
			var err error
			if params.Recompute {
				eqTau := poly.EqTableCtx(ctx, tau)
				src := func(k, i int) field.Element {
					switch k {
					case 0:
						return eqTau[i]
					case 1:
						return rowDot(inst.A, i)
					case 2:
						return rowDot(inst.B, i)
					}
					return rowDot(inst.C, i)
				}
				// 2^20 elements = the 8 MB register-file capacity (§V-A).
				outer, rx, finals, err = sumcheck.ProveStreamedCtx(ctx, tr, lbl+"/outer", field.Zero, 4, logM, src, 3, outerCombine, 1<<20)
			} else {
				// The sumcheck folds its arrays in place, so eq(τ,·)
				// expands straight into scratch and the plan's az/bz/cz
				// are copied.
				eqTau := arena.GetUninitCtx(ctx, 1<<logM)
				azc := arena.GetUninitCtx(ctx, numCons)
				bzc := arena.GetUninitCtx(ctx, numCons)
				czc := arena.GetUninitCtx(ctx, numCons)
				defer arena.Put(eqTau)
				defer arena.Put(azc)
				defer arena.Put(bzc)
				defer arena.Put(czc)
				poly.EqTableIntoCtx(ctx, eqTau, tau)
				copy(azc, sh.az)
				copy(bzc, sh.bz)
				copy(czc, sh.cz)
				outer, rx, finals, err = sumcheck.ProveCubicCtx(ctx, tr, lbl+"/outer", field.Zero, eqTau, azc, bzc, czc)
			}
			if err != nil {
				return RepProof{}, nil, fmt.Errorf("spartan: outer sumcheck: %w", err)
			}
			va, vb, vc := finals[1], finals[2], finals[3]
			tr.AppendElems(lbl+"/claims", []field.Element{va, vb, vc})

			rABC := tr.Challenges(lbl+"/rabc", 3)
			claim := field.Add(field.Add(
				field.Mul(rABC[0], va), field.Mul(rABC[1], vb)), field.Mul(rABC[2], vc))

			// Build M(y) = Σ_i eq(rx,i)·(rA·A[i,y]+rB·B[i,y]+rC·C[i,y]):
			// three transpose SpMVs accumulating into zeroed scratch.
			if err := checkpoint(ctx, fiProveInner); err != nil {
				return RepProof{}, nil, err
			}
			eqRx := arena.GetUninitCtx(ctx, 1<<len(rx))
			defer arena.Put(eqRx)
			my := arena.GetCtx(ctx, inst.NumVars())
			defer arena.Put(my)
			zc := arena.GetUninitCtx(ctx, len(z))
			defer arena.Put(zc)
			poly.EqTableIntoCtx(ctx, eqRx, rx)
			copy(zc, z)
			for _, p := range []struct {
				mat   *r1cs.SparseMatrix
				coeff field.Element
			}{{inst.A, rABC[0]}, {inst.B, rABC[1]}, {inst.C, rABC[2]}} {
				if err := kernel.SpMVTCtx(ctx, my, p.mat.Rows, eqRx, p.coeff); err != nil {
					return RepProof{}, nil, err
				}
			}

			inner, ry, _, err := sumcheck.ProveProductCtx(ctx, tr, lbl+"/inner", claim, my, zc)
			if err != nil {
				return RepProof{}, nil, fmt.Errorf("spartan: inner sumcheck: %w", err)
			}

			return RepProof{Outer: outer, VA: va, VB: vb, VC: vc, Inner: inner}, ry[1:], nil
		}()
		if repErr != nil {
			return nil, repErr
		}
		proof.Reps[rep] = rp
		openPoints[rep] = point
	}

	// 2. One shared Orion opening for all repetitions' w̃ evaluations.
	if err := checkpoint(ctx, fiProveOpen); err != nil {
		return nil, err
	}
	opening, wEvals, err := st.OpenCtx(ctx, tr, openPoints)
	if err != nil {
		return nil, fmt.Errorf("spartan: open: %w", err)
	}
	proof.Opening = opening
	proof.WEvals = wEvals
	return proof, nil
}

// Verification errors, anchored in the zkerr taxonomy: final-check
// failures are soundness rejections of structurally valid proofs, while
// ErrShape is structural.
var (
	ErrOuterFinal = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed, "spartan: outer sumcheck final check failed")
	ErrInnerFinal = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed, "spartan: inner sumcheck final check failed")
	ErrShape      = zkerr.Wrap(zkerr.ErrMalformedProof, "spartan: malformed proof")
	// ErrEngineMismatch rejects a proof whose hash engine differs from
	// the verifier's parameters. Rejecting up front (rather than letting
	// the transcript diverge into an opaque soundness failure) keeps the
	// failure typed and diagnosable; it is a commitment-agreement error,
	// not a soundness hole — the diverged transcripts could never verify
	// anyway.
	ErrEngineMismatch = zkerr.Wrap(zkerr.ErrBadCommitment, "spartan: proof hash engine does not match verifier parameters")
)

// Verify checks a proof against the instance and public inputs. The proof
// is untrusted: Verify never panics on hostile contents (all rejection
// paths return taxonomy errors, and any internal invariant violation is
// contained as zkerr.ErrInternal) and performs the cheap structural
// checks before any cryptographic work.
func Verify(params Params, inst *r1cs.Instance, io []field.Element, proof *Proof) error {
	return VerifyCtx(context.Background(), params, inst, io, proof)
}

// VerifyCtx is Verify under a context, with cooperative checkpoints per
// repetition (the matrix MLE evaluations and the PCS opening dominate)
// and fault-injection points at each verification stage.
func VerifyCtx(ctx context.Context, params Params, inst *r1cs.Instance, io []field.Element, proof *Proof) (err error) {
	defer zkerr.RecoverTo(&err, "spartan.Verify")
	if ctx == nil {
		ctx = context.Background()
	}
	if proof == nil || proof.Commitment == nil || proof.Opening == nil {
		return fmt.Errorf("%w: missing proof component", ErrShape)
	}
	if params.Reps < 1 || len(proof.Reps) != params.Reps || len(proof.WEvals) != params.Reps {
		return fmt.Errorf("%w: repetition count", ErrShape)
	}
	for i := range proof.Reps {
		if proof.Reps[i].Outer == nil || proof.Reps[i].Inner == nil {
			return fmt.Errorf("%w: repetition %d missing sumcheck", ErrShape, i)
		}
	}
	half := inst.NumVars() / 2
	pcsParams := params.effective(half)

	eng := params.PCS.Engine()
	pe := proof.Engine
	if pe == 0 {
		pe = hashfn.IDSHA3 // legacy proofs predate the engine field
	}
	if pe != eng.ID() {
		return fmt.Errorf("%w: proof under engine %d, params say %q", ErrEngineMismatch, pe, eng.Name())
	}

	digest, err := inst.DigestEngineCtx(ctx, eng)
	if err != nil {
		return err
	}
	tr := transcript.NewEngine("spartan-orion", eng)
	bindStatement(tr, digest, io, params)
	tr.AppendDigest("witness-commitment", proof.Commitment.Root)

	logM := inst.LogConstraints()
	logN := inst.LogVars()
	openPoints := make([][]field.Element, params.Reps)

	for rep := 0; rep < params.Reps; rep++ {
		if err := checkpoint(ctx, fiVerifyRep); err != nil {
			return err
		}
		lbl := fmt.Sprintf("rep%d", rep)
		tau := tr.Challenges(lbl+"/tau", logM)
		rp := proof.Reps[rep]

		rx, outerFinal, err := sumcheck.Verify(tr, lbl+"/outer", field.Zero, logM, 3, rp.Outer)
		if err != nil {
			return fmt.Errorf("spartan: rep %d outer: %w", rep, err)
		}
		// g(rx) must equal eq(τ,rx)·(vA·vB − vC).
		eqTauRx := poly.EqEval(tau, rx)
		want := field.Mul(eqTauRx, field.Sub(field.Mul(rp.VA, rp.VB), rp.VC))
		if outerFinal != want {
			return fmt.Errorf("%w (rep %d)", ErrOuterFinal, rep)
		}
		tr.AppendElems(lbl+"/claims", []field.Element{rp.VA, rp.VB, rp.VC})

		rABC := tr.Challenges(lbl+"/rabc", 3)
		claim := field.Add(field.Add(
			field.Mul(rABC[0], rp.VA), field.Mul(rABC[1], rp.VB)), field.Mul(rABC[2], rp.VC))

		ry, innerFinal, err := sumcheck.Verify(tr, lbl+"/inner", claim, logN, 2, rp.Inner)
		if err != nil {
			return fmt.Errorf("spartan: rep %d inner: %w", rep, err)
		}

		// Final inner check: M̃(ry)·z̃(ry).
		if err := checkpoint(ctx, fiVerifyMatrixEvals); err != nil {
			return err
		}
		va2, vb2, vc2, err := inst.MatrixEvalsCtx(ctx, rx, ry)
		if err != nil {
			return err
		}
		mv := field.Add(field.Add(
			field.Mul(rABC[0], va2), field.Mul(rABC[1], vb2)), field.Mul(rABC[2], vc2))
		uEval := publicEval(io, ry[1:])
		zv := field.Add(
			field.Mul(field.Sub(field.One, ry[0]), uEval),
			field.Mul(ry[0], proof.WEvals[rep]))
		if innerFinal != field.Mul(mv, zv) {
			return fmt.Errorf("%w (rep %d)", ErrInnerFinal, rep)
		}
		openPoints[rep] = ry[1:]
	}

	// Check the shared Orion opening of w̃ at all repetition points.
	if err := checkpoint(ctx, fiVerifyOpening); err != nil {
		return err
	}
	if err := pcs.VerifyCtx(ctx, pcsParams, proof.Commitment, tr, openPoints, proof.WEvals, proof.Opening); err != nil {
		return fmt.Errorf("spartan: opening: %w", err)
	}
	return nil
}
