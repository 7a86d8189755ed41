// Package cluster promotes the process-local jobs manager to a
// coordinator/worker architecture (DESIGN.md §16). The coordinator owns
// the existing journal/admission/tenant/batch stack — it plugs into
// jobs.Config as the executor — and dispatches ready units to N
// prover nodes over unencrypted HTTP/2 with lease-based execution:
//
//   - Workers pull work (work-stealing): POST /cluster/poll long-polls
//     until an assignment is ready, so a slow or dead node never strands
//     the queue — whichever node polls next takes the next unit.
//   - Every assignment carries a lease ID and TTL. Workers heartbeat at
//     a fully jittered interval in [TTL/6, TTL/3] to renew; a lease that
//     misses renewal past its TTL is expired by the reaper and the unit
//     is resolved with ErrLeaseLost, which the jobs manager converts to
//     a journal-backed attempt refund (crash-replay semantics: node
//     death costs the job nothing).
//   - Nodes carry a health state machine (healthy/suspect/dead) that
//     doubles as a per-node circuit breaker: lease losses mark a node
//     suspect (probation: one unit in flight), repeated losses mark it
//     dead, and a dead node is re-admitted by a single jittered probe
//     unit rather than a thundering reconnect.
//   - Placement is locality-aware: within the stride-scheduled tenant,
//     the coordinator prefers a unit whose (circuit, n, reps) key is
//     warm on the polling node, so same-shape jobs land where the
//     twiddle/encoder caches are already built.
//   - Duplicate completions from a resurrected lease are detected and
//     discarded — the first terminal record wins — and counted in
//     nocap_cluster_duplicate_completions_total.
//
// Degradation is graceful at every layer: with zero live workers the
// coordinator either runs attempts through its local executor
// (Config.Local) or the server sheds new jobs with a typed 503
// {"code":"no_workers"} whose Retry-After tracks an EWMA of worker poll
// arrivals. Batches are dispatched whole to one node but fail
// member-scoped: each member classifies, refunds, and retries
// independently.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// Fault-injection points covering every new RPC boundary and the two
// failure clocks (heartbeat, lease expiry). points_test.go asserts each
// one is registered and armable.
var (
	// FIRPCSend fires in the worker's rpc helper before the request is
	// sent: a poll/heartbeat/complete that never leaves the node.
	FIRPCSend = faultinject.Register("cluster.rpc.send")
	// FIRPCRecv fires at the top of every coordinator handler: a
	// request that arrives but is dropped (500) before processing.
	FIRPCRecv = faultinject.Register("cluster.rpc.recv")
	// FIHeartbeatMiss fires in the worker's heartbeat loop, skipping
	// one renewal beat.
	FIHeartbeatMiss = faultinject.Register("cluster.heartbeat.miss")
	// FIWorkerExec fires in the worker before each member's proving
	// attempt, surfacing as a failed outcome.
	FIWorkerExec = faultinject.Register("cluster.worker.exec")
	// FILeaseExpire fires in the coordinator's reaper, force-expiring a
	// live lease as if its renewals were lost.
	FILeaseExpire = faultinject.Register("cluster.lease.expire")
)

// PollRequest is a worker asking for work. Warm lists the locality keys
// the node has hot caches for; WaitMS is how long the worker is willing
// to long-poll (the coordinator caps it at its MaxPollWait).
type PollRequest struct {
	Node   string   `json:"node"`
	Warm   []string `json:"warm,omitempty"`
	WaitMS int64    `json:"wait_ms,omitempty"`
}

// AssignedJob is one job of an assignment: the journaled payload plus
// the job ID completions must echo.
type AssignedJob struct {
	ID      string          `json:"id"`
	Payload json.RawMessage `json:"payload"`
}

// Assignment is one leased unit of work: one job or several
// (dispatched whole, failed member-scoped). The worker must heartbeat
// the lease within TTLMS or the coordinator reassigns the unit.
type Assignment struct {
	Lease string        `json:"lease"`
	TTLMS int64         `json:"ttl_ms"`
	Key   string        `json:"key,omitempty"`
	Jobs  []AssignedJob `json:"jobs"`
}

// PollResponse carries an assignment, or nothing (poll timeout — poll
// again).
type PollResponse struct {
	Assignment *Assignment `json:"assignment,omitempty"`
}

// HeartbeatRequest renews the listed leases for a node.
type HeartbeatRequest struct {
	Node   string   `json:"node"`
	Leases []string `json:"leases"`
}

// HeartbeatResponse: Lost lists lease IDs the coordinator no longer
// recognizes (expired and reassigned — the worker must abandon them
// without completing); Cancelled lists job IDs whose attempt contexts
// were cancelled (DELETE /jobs/id) — the worker should cancel those
// members promptly.
type HeartbeatResponse struct {
	Lost      []string `json:"lost,omitempty"`
	Cancelled []string `json:"cancelled,omitempty"`
}

// JobOutcome is one member's terminal result: proof bytes on success,
// or an (error, code) pair the coordinator rebuilds into the zkerr
// taxonomy so retry classification is identical to local execution.
type JobOutcome struct {
	ID    string          `json:"id"`
	Proof []byte          `json:"proof,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
	Error string          `json:"error,omitempty"`
	Code  string          `json:"code,omitempty"`
}

// CompleteRequest reports a finished assignment.
type CompleteRequest struct {
	Node     string       `json:"node"`
	Lease    string       `json:"lease"`
	Outcomes []JobOutcome `json:"outcomes"`
}

// CompleteResponse acknowledges a completion. Discarded means the lease
// was unknown (expired and reassigned): the coordinator dropped the
// outcomes because the first terminal record wins.
type CompleteResponse struct {
	Discarded bool `json:"discarded,omitempty"`
}

// NodeInfo is one node's health snapshot (GET /cluster/nodes).
type NodeInfo struct {
	Node       string   `json:"node"`
	State      string   `json:"state"`
	Inflight   int      `json:"inflight"`
	Fails      int      `json:"fails"`
	LastSeenMS int64    `json:"last_seen_ms"`
	Warm       []string `json:"warm,omitempty"`
}

// outcomeCode classifies a worker-side attempt error into the wire
// code. Context sentinels get their own codes so the coordinator can
// rebuild errors the jobs manager classifies exactly like local ones.
func outcomeCode(err error) string {
	switch {
	case err == nil:
		return ""
	case isCanceled(err):
		return "canceled"
	case isDeadline(err):
		return "deadline"
	}
	if c := zkerr.Code(err); c != "" {
		return c
	}
	return "internal"
}

func isCanceled(err error) bool { return errors.Is(err, context.Canceled) }
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// outcomeError rebuilds a typed error from a wire (error, code) pair so
// the jobs manager's retry/terminal classification of a remote attempt
// matches what the same failure would produce locally.
func outcomeError(msg, code string) error {
	if msg == "" {
		msg = "cluster: worker reported failure"
	}
	switch code {
	case "canceled":
		return fmt.Errorf("%s: %w", msg, context.Canceled)
	case "deadline":
		return fmt.Errorf("%s: %w", msg, context.DeadlineExceeded)
	case "usage":
		return zkerr.Usagef("%s", msg)
	case "malformed-proof":
		return zkerr.Malformedf("%s", msg)
	case "bad-commitment":
		return zkerr.BadCommitmentf("%s", msg)
	case "soundness-check-failed":
		return zkerr.Soundnessf("%s", msg)
	case "resource-limit":
		return zkerr.Resourcef("%s", msg)
	default:
		return zkerr.Internalf("%s", msg)
	}
}
