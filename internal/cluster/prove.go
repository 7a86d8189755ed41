package cluster

import "nocap/internal/prover"

// A worker node's real prover is internal/prover (DESIGN.md §17): the
// same executor the coordinator's own process uses, so a proof and its
// per-run stats are identical no matter which node ran the attempt.
// These names remain for callers that configure a node through this
// package.
type (
	ProverConfig = prover.Config
	Prover       = prover.Prover
)

// NewProver builds a worker node's prover.
func NewProver(cfg ProverConfig) *Prover { return prover.New(cfg) }
