package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"nocap/internal/cluster"
	"nocap/internal/jobs"
	"nocap/internal/prover"
	"nocap/internal/zkerr"
)

// Cluster mode (DESIGN.md §16). With Config.ClusterEnabled the server
// becomes a coordinator: async jobs keep their journal, admission,
// quotas, and batch planner exactly as before, but attempts execute on
// remote worker nodes (cmd/nocap-worker) over unencrypted HTTP/2 with
// lease-based reassignment. The worker-facing RPC surface is:
//
//	POST /cluster/poll       long-poll for a leased assignment
//	POST /cluster/heartbeat  renew leases, learn losses/cancellations
//	POST /cluster/complete   report outcomes (duplicates discarded)
//	GET  /cluster/nodes      node health table (operator visibility)
//
// All four require X-Cluster-Key when Config.ClusterKey is set — the
// worker plane authenticates separately from the tenant plane.

// openCluster builds the coordinator and mounts the worker-facing
// endpoints. Called from New before openJobs starts, so the job
// manager's executors can capture s.coord.
func (s *Server) openCluster() error {
	if s.cfg.DataDir == "" {
		return zkerr.Usagef("server: cluster mode requires DataDir (the coordinator owns the job journal)")
	}
	s.coord = cluster.New(cluster.Config{
		LeaseTTL:      s.cfg.ClusterLeaseTTL,
		DeadAfter:     s.cfg.ClusterDeadAfter,
		ProbeBase:     s.cfg.ClusterProbeBase,
		Local:         pooledExecutor{s},
		LocalFallback: s.cfg.ClusterLocalFallback,
		Seed:          s.cfg.ClusterSeed,
		TenantWeight: func(tenantID string) int {
			if t, ok := s.reg.ByID(tenantID); ok {
				return t.Weight
			}
			return s.reg.Default().Weight
		},
		LocalityKey: func(payload json.RawMessage) (string, bool) {
			return prover.BatchKey(jobs.Spec{Payload: payload})
		},
	})
	s.mux.HandleFunc("POST /cluster/poll", s.withClusterKey(s.coord.HandlePoll))
	s.mux.HandleFunc("POST /cluster/heartbeat", s.withClusterKey(s.coord.HandleHeartbeat))
	s.mux.HandleFunc("POST /cluster/complete", s.withClusterKey(s.coord.HandleComplete))
	s.mux.HandleFunc("GET /cluster/nodes", s.withClusterKey(s.coord.HandleNodes))
	return nil
}

// pooledExecutor is the coordinator's in-process fallback: the server's
// own executors, run on the worker pool through jobGate like every
// other in-process prove — so a fleet outage cannot turn the job
// dispatchers (which deliberately bypass the gate in cluster mode,
// because they normally park on RPC) into extra proving concurrency
// outside the -workers budget and the tenant scheduler. The coordinator
// calls it after the attempt's running record is journaled, so a shed
// (tenant queue full, pool stopping) is reported as jobs.ErrLeaseLost:
// the attempt never reached a prover, and the manager refunds it with
// the same journal-backed retry record a dead node's lease gets.
type pooledExecutor struct{ s *Server }

// pooled runs one fallback attempt proving cost jobs on the pool. The
// pool goroutine is outside the manager's containment boundary, so a
// panicking attempt must still surface as a retryable internal error,
// not a crash.
func (p pooledExecutor) pooled(ctx context.Context, tenantID string, cost int, run func()) (err error) {
	shed := p.s.jobGate(ctx, tenantID, cost, func() {
		defer zkerr.RecoverTo(&err, "server: in-process fallback attempt")
		run()
	})
	if shed != nil {
		return fmt.Errorf("server: in-process fallback shed by the worker pool (%v): %w", shed, jobs.ErrLeaseLost)
	}
	return err
}

func (p pooledExecutor) Exec(ctx context.Context, spec jobs.Spec) (res jobs.Result, err error) {
	if perr := p.pooled(ctx, spec.Tenant, 1, func() { res, err = p.s.soloExec()(ctx, spec) }); perr != nil {
		return jobs.Result{}, perr
	}
	return res, err
}

func (p pooledExecutor) BatchExec(ctx context.Context, members []jobs.BatchMember) []jobs.BatchOutcome {
	var outs []jobs.BatchOutcome
	if err := p.pooled(ctx, members[0].Spec.Tenant, len(members), func() { outs = p.s.prover.BatchExec(ctx, members) }); err != nil {
		outs = make([]jobs.BatchOutcome, len(members))
		for i := range outs {
			outs[i].Err = err
		}
	}
	return outs
}

// withClusterKey gates the worker plane: when a cluster key is
// configured every worker RPC must present it as X-Cluster-Key. Tenant
// API keys deliberately do not work here.
func (s *Server) withClusterKey(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ClusterKey != "" && r.Header.Get("X-Cluster-Key") != s.cfg.ClusterKey {
			s.metrics.authRejected.Add(1)
			writeError(w, http.StatusUnauthorized, "missing or unknown cluster key", "unknown-cluster-key")
			return
		}
		h(w, r)
	}
}

// Coordinator exposes the coordinator (test hook; nil outside cluster
// mode).
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// ClusterMetrics snapshots the coordinator counters; the zero snapshot
// outside cluster mode (test hook).
func (s *Server) ClusterMetrics() cluster.Metrics {
	if s.coord == nil {
		return cluster.Metrics{}
	}
	return s.coord.Metrics()
}

// renderClusterMetrics appends the coordinator counter set to the
// Prometheus exposition.
func (s *Server) renderClusterMetrics(counter, gauge func(name, help string, v int64)) {
	if s.coord == nil {
		return
	}
	m := s.coord.Metrics()
	counter("nocap_cluster_dispatches_total", "units leased to worker nodes", m.Dispatches)
	counter("nocap_cluster_completions_total", "unit completions accepted", m.Completions)
	counter("nocap_cluster_duplicate_completions_total", "completions discarded because the lease was already expired and reassigned (first terminal record wins)", m.Duplicates)
	counter("nocap_cluster_lease_expiries_total", "leases expired by the reaper (node death or missed heartbeats)", m.LeaseExpiries)
	counter("nocap_cluster_heartbeats_total", "lease renewal heartbeats received", m.Heartbeats)
	counter("nocap_cluster_polls_total", "worker poll requests received", m.Polls)
	counter("nocap_cluster_local_fallbacks_total", "attempts executed in-process because no live worker existed", m.LocalFallbacks)
	gauge("nocap_cluster_queue_depth", "units queued for dispatch", int64(m.QueuedUnits))
	gauge("nocap_cluster_live_leases", "leases currently held by workers", int64(m.LiveLeases))
	states := map[string]int64{"healthy": 0, "suspect": 0, "dead": 0}
	for _, n := range m.Nodes {
		states[n.State]++
	}
	for _, st := range []string{"healthy", "suspect", "dead"} {
		gauge("nocap_cluster_nodes_"+st, "worker nodes in the "+st+" state", states[st])
	}
}
