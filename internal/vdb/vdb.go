// Package vdb is a small verifiable database engine — the substrate of
// the paper's flagship use case (§I, §VIII-A: "real-time verifiable
// databases"). It keeps an in-memory account table, accepts transfer
// transactions, and commits them in batches: each commit produces a
// Spartan+Orion proof that the batch was applied correctly (solvency,
// range, conservation, and the audit accumulator), in the style of
// Litmus [84]. Clients verify batch proofs without seeing individual
// transactions.
package vdb

import (
	"errors"
	"fmt"

	"nocap/internal/circuits"
	"nocap/internal/field"
	"nocap/internal/spartan"
)

// DB is a verifiable account database. Not safe for concurrent use.
type DB struct {
	params   spartan.Params
	balances []uint64
	pending  []circuits.Transfer
	// batchStart holds the balances at the start of the pending batch.
	batchStart []uint64
	seq        int
}

// maxBalance mirrors the circuit's 32-bit range checks.
const maxBalance = 1<<32 - 1

// New creates a database with the given initial balances.
func New(params spartan.Params, initial []uint64) (*DB, error) {
	if len(initial) < 2 {
		return nil, errors.New("vdb: need at least two accounts")
	}
	for i, b := range initial {
		if b > maxBalance {
			return nil, fmt.Errorf("vdb: account %d balance out of range", i)
		}
	}
	return &DB{
		params:     params,
		balances:   append([]uint64(nil), initial...),
		batchStart: append([]uint64(nil), initial...),
	}, nil
}

// Balance returns an account's current (post-pending) balance.
func (db *DB) Balance(account int) (uint64, error) {
	if account < 0 || account >= len(db.balances) {
		return 0, fmt.Errorf("vdb: no account %d", account)
	}
	return db.balances[account], nil
}

// NumAccounts returns the table size.
func (db *DB) NumAccounts() int { return len(db.balances) }

// Pending returns the number of uncommitted transactions.
func (db *DB) Pending() int { return len(db.pending) }

// Submit queues a transfer, validating it against the current state
// exactly as the circuit will.
func (db *DB) Submit(t circuits.Transfer) error {
	n := len(db.balances)
	if t.From < 0 || t.From >= n || t.To < 0 || t.To >= n || t.From == t.To {
		return fmt.Errorf("vdb: invalid accounts %d→%d", t.From, t.To)
	}
	if t.Amount > db.balances[t.From] {
		return fmt.Errorf("vdb: account %d has %d, cannot send %d",
			t.From, db.balances[t.From], t.Amount)
	}
	if db.balances[t.To]+t.Amount > maxBalance {
		return fmt.Errorf("vdb: transfer overflows account %d", t.To)
	}
	db.balances[t.From] -= t.Amount
	db.balances[t.To] += t.Amount
	db.pending = append(db.pending, t)
	return nil
}

// BatchProof is a committed batch with its correctness proof. Verifiers
// need only the public fields.
type BatchProof struct {
	// Seq numbers batches from 0.
	Seq int
	// NumTxns and NumAccounts fix the circuit shape.
	NumTxns, NumAccounts int
	// IO is the statement: initial balances ‖ final balances ‖ audit
	// accumulator.
	IO []field.Element
	// Proof is the Spartan+Orion proof.
	Proof *spartan.Proof
}

// FinalBalances extracts the post-batch balances from the statement.
func (bp *BatchProof) FinalBalances() []uint64 {
	out := make([]uint64, bp.NumAccounts)
	for i := range out {
		out[i] = bp.IO[bp.NumAccounts+i].Uint64()
	}
	return out
}

// Accumulator returns the batch's audit accumulator.
func (bp *BatchProof) Accumulator() field.Element { return bp.IO[2*bp.NumAccounts] }

// Commit proves the pending batch and starts a new one.
func (db *DB) Commit() (*BatchProof, error) {
	if len(db.pending) == 0 {
		return nil, errors.New("vdb: nothing to commit")
	}
	bm := circuits.LitmusCircuit(db.batchStart, db.pending)
	params := db.params
	proof, err := spartan.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		return nil, fmt.Errorf("vdb: prove batch: %w", err)
	}
	bp := &BatchProof{
		Seq:         db.seq,
		NumTxns:     len(db.pending),
		NumAccounts: len(db.balances),
		IO:          bm.IO,
		Proof:       proof,
	}
	db.seq++
	db.pending = nil
	db.batchStart = append([]uint64(nil), db.balances...)
	return bp, nil
}

// VerifyBatch checks a batch proof. The verifier rebuilds the circuit
// structure from the public shape (synthesis is data-oblivious, so any
// solvent placeholder batch yields identical matrices) and additionally
// checks that the batch's starting balances chain from prev (nil for
// the first batch, whose starting state is genesis).
func VerifyBatch(params spartan.Params, genesis []uint64, prev *BatchProof, bp *BatchProof) error {
	if bp.NumTxns < 1 || bp.NumAccounts < 2 || len(bp.IO) != 2*bp.NumAccounts+1 {
		return errors.New("vdb: malformed batch statement")
	}
	// Chain check: this batch's public initial balances must equal the
	// previous batch's final balances (or genesis for batch 0).
	start := genesis
	if prev != nil {
		if prev.Seq+1 != bp.Seq || prev.NumAccounts != bp.NumAccounts {
			return errors.New("vdb: batch does not chain from previous")
		}
		start = prev.FinalBalances()
	} else if bp.Seq != 0 {
		return errors.New("vdb: missing previous batch")
	}
	if len(start) != bp.NumAccounts {
		return errors.New("vdb: account-table size mismatch")
	}
	for i, b := range start {
		if bp.IO[i] != field.New(b) {
			return fmt.Errorf("vdb: batch does not chain: account %d starts at %v, prior state says %d",
				i, bp.IO[i], b)
		}
	}

	// Rebuild the circuit shape with a placeholder batch of the same
	// geometry (account 0 → 1, amount 0 is always solvent).
	placeholder := make([]circuits.Transfer, bp.NumTxns)
	for i := range placeholder {
		placeholder[i] = circuits.Transfer{From: 0, To: 1, Amount: 0}
	}
	shape := circuits.LitmusCircuit(start, placeholder)
	if err := spartan.Verify(params, shape.Inst, bp.IO, bp.Proof); err != nil {
		return fmt.Errorf("vdb: batch %d: %w", bp.Seq, err)
	}
	return nil
}
