package nocap

import (
	"context"

	"nocap/internal/spartan"
)

// BatchPlan is a shared-structure plan for proving the same statement
// many times (DESIGN.md §15). Building the plan performs the
// once-per-batch work — circuit synthesis, z assembly, the three SpMV
// products and the satisfaction check, the instance-digest hash — and
// each ProveMemberCtx call then proves one member against that shared
// state. Member proofs are byte-identical to solo ProveCtx proofs of
// the same statement (with ZK enabled the proofs are nondeterministic
// either way; the shared state is witness-randomness-free, so the
// distribution is unchanged).
//
// The plan is read-only once built: members may run concurrently.
type BatchPlan struct {
	sh *spartan.Shared
}

// NewBatchPlanCtx builds the shared-structure plan for the named
// benchmark circuit at size parameter n (the same name/size resolution
// as CircuitByName). The once-per-batch work runs under ctx and is
// attributed to its collector, if any.
func NewBatchPlanCtx(ctx context.Context, p Params, circuit string, n int) (*BatchPlan, error) {
	bm, err := CircuitByName(circuit, n)
	if err != nil {
		return nil, err
	}
	return NewBatchPlanForCtx(ctx, p, bm)
}

// NewBatchPlanForCtx builds the shared-structure plan for an explicit
// statement. The plan borrows bm's public inputs and witness: do not
// modify them while the plan is in use.
func NewBatchPlanForCtx(ctx context.Context, p Params, bm *Benchmark) (*BatchPlan, error) {
	sh, err := spartan.NewSharedCtx(ctx, p, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		return nil, err
	}
	return &BatchPlan{sh: sh}, nil
}

// ProveMemberCtx proves one batch member through the shared plan. Each
// call gets its own transcript and (with ZK) its own randomness;
// cancellation and fault injection apply to this member only. Attach a
// per-member Collector to ctx for per-job stats attribution, then
// credit each member its share of the plan's own work with
// SplitProveStats + AddStats.
func (p *BatchPlan) ProveMemberCtx(ctx context.Context) (*Proof, error) {
	return p.sh.ProveCtx(ctx)
}
