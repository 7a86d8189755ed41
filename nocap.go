// Package nocap is a reproduction of "Accelerating Zero-Knowledge Proofs
// Through Hardware-Algorithm Co-Design" (MICRO 2024): the Spartan+Orion
// hash-based zk-SNARK over the Goldilocks-64 field, together with a
// cycle-level model of the NoCap accelerator, its power/area models, the
// baselines it is compared against, and generators for every table and
// figure in the paper's evaluation.
//
// The package is a facade over the internal implementation:
//
//   - Build R1CS circuits with NewBuilder (or the prebuilt benchmark
//     circuits: AES, SHA256, RSA, Auction, Litmus, Synthetic).
//   - Prove and Verify run the real Spartan+Orion zk-SNARK.
//   - Simulate runs the NoCap cycle-level model for full-scale
//     statements; Power and Area report the hardware models.
//   - The Experiment generators regenerate the paper's evaluation.
//
// Quickstart:
//
//	b := nocap.NewBuilder()
//	x := b.Secret(nocap.NewElement(3))
//	sq := b.Square(nocap.FromVar(x))
//	pub := b.Public(b.Value(sq))
//	b.AssertEq(nocap.FromVar(sq), nocap.FromVar(pub))
//	inst, io, w := b.Build()
//	proof, err := nocap.Prove(nocap.TestParams(), inst, io, w)
//	...
//	err = nocap.Verify(nocap.TestParams(), inst, io, proof)
package nocap

import (
	"context"
	"io"

	"nocap/internal/circuits"
	"nocap/internal/experiments"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/power"
	"nocap/internal/r1cs"
	"nocap/internal/sim"
	"nocap/internal/spartan"
	"nocap/internal/tasks"
	"nocap/internal/wire"
	"nocap/internal/zkerr"
)

// Error taxonomy (trust boundary, DESIGN.md §7). Every rejection from
// Verify, UnmarshalProof, or Prove matches exactly one of these
// sentinels under errors.Is; callers branch on the category, never on
// message text.
var (
	// ErrMalformedProof: the byte stream or proof structure is invalid
	// (truncation, bad magic, shape mismatch, non-canonical field
	// element).
	ErrMalformedProof = zkerr.ErrMalformedProof
	// ErrBadCommitment: the commitment declares impossible or
	// mismatched geometry.
	ErrBadCommitment = zkerr.ErrBadCommitment
	// ErrSoundnessCheckFailed: well-formed but cryptographically
	// invalid — a soundness check (sum-check, proximity, Merkle path,
	// final evaluation) rejected.
	ErrSoundnessCheckFailed = zkerr.ErrSoundnessCheckFailed
	// ErrResourceLimit: decoding would exceed the configured
	// DecodeLimits.
	ErrResourceLimit = zkerr.ErrResourceLimit
	// ErrInternal: an invariant broke inside the library (contained
	// panic); never caused by proof bytes alone.
	ErrInternal = zkerr.ErrInternal
	// ErrUsage: invalid API usage (e.g. an unknown benchmark name in
	// CircuitByName or impossible parameters).
	ErrUsage = zkerr.ErrUsage
)

// Element is a Goldilocks-64 field element (p = 2^64 − 2^32 + 1).
type Element = field.Element

// NewElement returns the field element congruent to v.
func NewElement(v uint64) Element { return field.New(v) }

// Circuit construction (R1CS arithmetization, paper §II-B).
type (
	// Builder constructs an R1CS circuit and its witness together.
	Builder = r1cs.Builder
	// Instance is a padded R1CS statement.
	Instance = r1cs.Instance
	// Variable is a wire handle; LC a linear combination of wires.
	Variable = r1cs.Variable
	// LC is a linear combination of circuit wires.
	LC = r1cs.LC
)

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return r1cs.NewBuilder() }

// FromVar, Const and the LC combinators re-export the builder algebra.
func FromVar(v Variable) LC      { return r1cs.FromVar(v) }
func Const(v Element) LC         { return r1cs.Const(v) }
func AddLC(a, b LC) LC           { return r1cs.AddLC(a, b) }
func SubLC(a, b LC) LC           { return r1cs.SubLC(a, b) }
func ScaleLC(s Element, a LC) LC { return r1cs.ScaleLC(s, a) }

// Proving (the Spartan+Orion zk-SNARK, paper §II/§V).
type (
	// Params configures the SNARK (repetitions, Orion geometry, ZK).
	Params = spartan.Params
	// Proof is a non-interactive Spartan+Orion proof.
	Proof = spartan.Proof
)

// DefaultParams is the paper's configuration: 3 repetitions, 128-row
// Orion matrix, Reed-Solomon blowup 4 with 189 queries, zero-knowledge
// masking on.
func DefaultParams() Params { return spartan.DefaultParams() }

// TestParams is a small configuration for tests and examples.
func TestParams() Params { return spartan.TestParams() }

// HashEngineNames lists the registered hash engines, in id order: the
// "sha3" default (byte-compatible with every earlier release) and
// "keccak-x4", a second identity of the same function. Both hash batches
// through the multi-buffer datapath where the machine has one.
func HashEngineNames() []string { return hashfn.Names() }

// WithHashEngine returns p with the named hash engine selected for the
// Orion commitment's column leaves, Merkle tree, and Fiat–Shamir
// transcript. Prover and verifier must use the same engine: proofs
// carry the engine id and a verifier under different parameters rejects
// them with ErrBadCommitment. Unknown names are ErrUsage.
func WithHashEngine(p Params, name string) (Params, error) {
	eng, ok := hashfn.ByName(name)
	if !ok {
		return p, zkerr.Usagef("nocap: unknown hash engine %q (have %v)", name, hashfn.Names())
	}
	p.PCS.Hash = eng
	return p, nil
}

// FitParams returns p with the Orion matrix height shrunk to fit inst:
// a witness of NumVars/2 elements cannot fill more rows than it has
// elements. The prover and verifier apply the same clamp internally, so
// fitting never changes a proof; it matters wherever the geometry is
// observed from outside — the proving service folds the fitted row count
// into its proof-cache key — and this is the one place that rule is
// written down for such callers.
func FitParams(p Params, inst *Instance) Params {
	if half := inst.NumVars() / 2; p.PCS.Rows > half {
		p.PCS.Rows = half
	}
	return p
}

// Prove generates a proof that the witness satisfies the instance.
func Prove(p Params, inst *Instance, io, witness []Element) (*Proof, error) {
	return spartan.Prove(p, inst, io, witness)
}

// ProveCtx is Prove under a context (DESIGN.md §8): cancelling ctx or
// letting its deadline expire abandons the in-flight proof at the next
// cooperative checkpoint (between stages, between sumcheck rounds, and
// every few thousand points inside the parallel loops), drains every
// worker goroutine the prover started, and returns an error satisfying
// errors.Is(err, context.Canceled) or context.DeadlineExceeded. A
// subsequent ProveCtx on the same inputs succeeds: abandonment never
// corrupts shared state.
func ProveCtx(ctx context.Context, p Params, inst *Instance, io, witness []Element) (*Proof, error) {
	return spartan.ProveCtx(ctx, p, inst, io, witness)
}

// Verify checks a proof against an instance and public inputs.
func Verify(p Params, inst *Instance, io []Element, proof *Proof) error {
	return spartan.Verify(p, inst, io, proof)
}

// VerifyCtx is Verify under a context, with the same cancellation
// guarantees as ProveCtx.
func VerifyCtx(ctx context.Context, p Params, inst *Instance, io []Element, proof *Proof) error {
	return spartan.VerifyCtx(ctx, p, inst, io, proof)
}

// MarshalProof serializes a proof into the compact wire format.
func MarshalProof(proof *Proof) ([]byte, error) { return proof.MarshalBinary() }

// UnmarshalProof decodes a serialized proof (format validation only;
// call Verify for cryptographic checking). It applies
// DefaultDecodeLimits; use UnmarshalProofLimits to tighten them.
func UnmarshalProof(data []byte) (*Proof, error) { return spartan.UnmarshalProof(data) }

// DecodeLimits bounds the resources an untrusted proof may claim while
// being decoded: total input size, per-vector length, repetition count,
// opened-column count, and the cumulative allocation budget. The zero
// value of any field means "use the default".
type DecodeLimits = wire.Limits

// DefaultDecodeLimits returns the limits UnmarshalProof applies.
func DefaultDecodeLimits() DecodeLimits { return wire.DefaultLimits() }

// UnmarshalProofLimits decodes a serialized proof under caller-chosen
// resource limits; violations are reported as ErrResourceLimit.
func UnmarshalProofLimits(data []byte, limits DecodeLimits) (*Proof, error) {
	return spartan.UnmarshalProofLimits(data, limits)
}

// Benchmark circuits (paper §VII-B).
type Benchmark = circuits.Benchmark

// AES builds the AES-128 benchmark circuit (secret key).
func AES(key [16]byte, plaintext []byte) *Benchmark { return circuits.AES(key, plaintext) }

// SHA256 builds the SHA-256 benchmark circuit (secret preimage blocks).
func SHA256(paddedBlocks []byte) *Benchmark { return circuits.SHA256(paddedBlocks) }

// RSA builds the repeated-modular-squaring benchmark circuit.
func RSA(squarings, numLimbs int, seed int64) *Benchmark {
	return circuits.RSA(squarings, numLimbs, seed)
}

// Auction builds the sealed-bid second-price auction circuit.
func Auction(bids []uint64) *Benchmark { return circuits.Auction(bids) }

// Litmus builds the verifiable-database transaction-batch circuit.
func Litmus(numTxns, numAccounts int, seed int64) *Benchmark {
	return circuits.Litmus(numTxns, numAccounts, seed)
}

// Synthetic builds a banded multiply-accumulate chain of about the given
// number of constraints (for scaling studies).
func Synthetic(constraints int) *Benchmark { return circuits.Synthetic(constraints) }

// CircuitByName builds the named benchmark circuit at size parameter n
// (blocks, bids, squarings, transactions, or constraints, per circuit),
// clamped to the circuit's minimum meaningful size. It is the single
// untrusted-name entry point shared by the CLI and the proving service;
// unknown names return an ErrUsage-classified error. CircuitNames lists
// the accepted names.
func CircuitByName(name string, n int) (*Benchmark, error) { return circuits.ByName(name, n) }

// CircuitNames returns the benchmark names CircuitByName accepts.
func CircuitNames() []string { return circuits.Names() }

// Hardware model (paper §IV, §VI, §VII).
type (
	// HardwareConfig is a NoCap configuration (lanes, register file, HBM).
	HardwareConfig = sim.Config
	// SimResult is a cycle-level simulation outcome.
	SimResult = sim.Result
	// ProtocolOptions selects prover variants (recomputation,
	// repetitions).
	ProtocolOptions = tasks.Options
	// AreaBreakdown is the Table II area model.
	AreaBreakdown = power.AreaBreakdown
	// PowerBreakdown is the Fig. 5 power model.
	PowerBreakdown = power.PowerBreakdown
)

// DefaultHardware returns the paper's NoCap configuration (Table II).
func DefaultHardware() HardwareConfig { return sim.DefaultConfig() }

// DefaultProtocol returns the paper's protocol options (recomputation
// on, 3 repetitions).
func DefaultProtocol() ProtocolOptions { return tasks.DefaultOptions() }

// Simulate runs the cycle-level NoCap model for a 2^logN-constraint
// Spartan+Orion proof.
func Simulate(cfg HardwareConfig, logN int, opts ProtocolOptions) SimResult {
	return sim.Prover(cfg, logN, opts)
}

// Area evaluates the die-area model for a configuration.
func Area(cfg HardwareConfig) AreaBreakdown { return power.Area(cfg) }

// Power evaluates the power model on a simulation result.
func Power(r SimResult) PowerBreakdown { return power.Estimate(r) }

// WriteEvaluation regenerates the paper's full evaluation — every table
// and figure plus the §III/§VIII-C analyses and use cases — to w.
func WriteEvaluation(w io.Writer) error {
	sections := []string{
		experiments.TableI().Render(),
		experiments.TableII().Render(),
		experiments.TableIII().Render(),
		experiments.TableIV().Render(),
		experiments.TableV().Render(),
		experiments.Figure5().Render(),
		experiments.Figure6().Render(),
		experiments.Figure7().Render(),
		experiments.Figure8().Render(),
		experiments.MultiplyAnalysis(12).Render(),
		experiments.Ablations(12).Render(),
		experiments.Platforms().Render(),
		experiments.ProofComposition().Render(),
		experiments.HostInterface().Render(),
		experiments.RackScaleStudy(550_000_000).Render(),
		experiments.DatabaseThroughput().Render(),
		experiments.PhotoEdit().Render(),
	}
	for _, s := range sections {
		if _, err := io.WriteString(w, s+"\n"); err != nil {
			return err
		}
	}
	return nil
}
