package hashfn

import "nocap/internal/field"

// ID identifies a registered hash engine. The id is part of a proof's
// meaning: it is bound into the serialized proof header (spartan wire
// format v2) and into the Fiat–Shamir transcript seed, so proofs
// produced under one engine are rejected — with a typed error, before
// any cryptographic work — when verified under another.
type ID uint8

const (
	// IDSHA3 is the default SHA3-256 engine. It is bit-for-bit
	// transcript-identical to the pre-engine versions of this library:
	// proofs serialized before the engine layer existed verify unchanged
	// under it.
	IDSHA3 ID = 1
	// IDKeccakX4 is a second identity of the same SHA3-256 function: its
	// own wire id and transcript domain, exactly like a future
	// arithmetic-hash engine (Poseidon2/MiMC) will have, and — since the
	// batch datapath is chosen by capability, not by engine (batch.go) —
	// the same speed as IDSHA3. It stays registered because proofs carry
	// the id.
	IDKeccakX4 ID = 2
)

// Engine is one hash implementation behind the Merkle/transcript seam.
// The two batch entry points exist so implementations can keep many
// independent states in flight (the paper's hash FU holds 128): callers
// present whole Merkle levels and column groups, not one message at a
// time. All methods must be safe for concurrent use.
type Engine interface {
	// ID returns the engine's registered identity byte.
	ID() ID
	// Name returns the engine's registered name (CLI -hash values).
	Name() string
	// Sum hashes an arbitrary byte string.
	Sum(data []byte) Digest
	// Hash2 is the 2-to-1 Merkle compression H(a ‖ b).
	Hash2(a, b Digest) Digest
	// CompressMany fills dst[i] = Hash2(prev[2i], prev[2i+1]) — one
	// Merkle-level chunk. len(prev) must be 2·len(dst).
	CompressMany(dst, prev []Digest)
	// SumColumns fills leaves[k] = HashElems of column j+k of the
	// row-major matrix rows (rows[0][j+k], rows[1][j+k], …) for every
	// k < len(leaves) ≤ 8: one group of Merkle leaves, absorbed
	// straight from the rows into the sponge lanes.
	SumColumns(leaves []Digest, rows [][]field.Element, j int)
}

// sha3fn is the hash function every registered engine computes: SHA3-256,
// one message at a time through crypto/sha3, batches through whichever
// datapath batch.go selects for this machine. The engines embed it and
// differ only in identity.
type sha3fn struct{}

func (sha3fn) Sum(data []byte) Digest { return Sum(data) }

func (sha3fn) Hash2(a, b Digest) Digest { return Hash2(a, b) }

func (sha3fn) CompressMany(dst, prev []Digest) { compressMany(dst, prev) }

func (sha3fn) SumColumns(leaves []Digest, rows [][]field.Element, j int) {
	sumColumns(leaves, rows, j)
}

// sha3Engine is the default identity: its digests are exactly those of
// the pre-engine library.
type sha3Engine struct{ sha3fn }

func (sha3Engine) ID() ID       { return IDSHA3 }
func (sha3Engine) Name() string { return "sha3" }

// keccakX4Engine is the second registered identity of the same function,
// with its own wire id and transcript domain.
type keccakX4Engine struct{ sha3fn }

func (keccakX4Engine) ID() ID       { return IDKeccakX4 }
func (keccakX4Engine) Name() string { return "keccak-x4" }

// engines is the registry, indexed by registration order. Engines are
// stateless empty structs so interface values stay comparable (params
// structs holding an Engine remain ==-comparable).
var engines = []Engine{sha3Engine{}, keccakX4Engine{}}

// Default returns the sha3 engine.
func Default() Engine { return sha3Engine{} }

// ByID resolves a registered engine by identity byte.
func ByID(id ID) (Engine, bool) {
	for _, e := range engines {
		if e.ID() == id {
			return e, true
		}
	}
	return nil, false
}

// ByName resolves a registered engine by name.
func ByName(name string) (Engine, bool) {
	for _, e := range engines {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists the registered engine names in registration order (the
// default engine first).
func Names() []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.Name()
	}
	return out
}
