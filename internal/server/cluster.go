package server

import (
	"context"
	"fmt"
	"net/http"

	"nocap/internal/cluster"
	"nocap/internal/jobs"
	"nocap/internal/prover"
	"nocap/internal/tenant"
	"nocap/internal/zkerr"
)

// One route (DESIGN.md §16). Every server with a DataDir owns a
// coordinator, and the job manager's executor is always that
// coordinator: a unit goes to a worker node's lease when one is live and
// to the in-process executor (proveLocal) otherwise. A standalone server
// is the coordinator with zero nodes and local fallback on.
// Config.ClusterEnabled decides only what is exposed — the worker-facing
// RPC surface over unencrypted HTTP/2, the healthz cluster block and the
// nocap_cluster_* series:
//
//	POST /cluster/poll       long-poll for a leased assignment
//	POST /cluster/heartbeat  renew leases, learn losses/cancellations
//	POST /cluster/complete   report outcomes (duplicates discarded)
//	GET  /cluster/nodes      node health table (operator visibility)
//
// All four require X-Cluster-Key when Config.ClusterKey is set — the
// worker plane authenticates separately from the tenant plane.

// jobTenant resolves a journaled tenant ID. One no longer configured
// (keyfile changed across a restart) still owes its attempts: its jobs
// run as the default tenant's rather than stranding.
func (s *Server) jobTenant(id string) *tenant.Tenant {
	if t, ok := s.reg.ByID(id); ok {
		return t
	}
	return s.reg.Default()
}

// localFallback reports whether a unit may prove in-process when no
// live worker exists: always on a standalone server (nothing else could
// prove it), by ClusterLocalFallback on a cluster coordinator.
func (c Config) localFallback() bool { return c.ClusterLocalFallback || !c.ClusterEnabled }

// openCluster builds the coordinator and, in cluster mode, mounts the
// worker-facing endpoints. Called from New before openJobs starts, so
// the job manager can take s.coord as its executor.
func (s *Server) openCluster() {
	var local jobs.BatchExec
	if s.cfg.localFallback() {
		local = s.proveLocal
	}
	s.coord = cluster.New(cluster.Config{
		LeaseTTL:     s.cfg.ClusterLeaseTTL,
		Local:        local,
		Seed:         s.cfg.ClusterSeed,
		TenantWeight: func(tenantID string) int { return s.jobTenant(tenantID).Weight },
		LocalityKey:  prover.BatchKey,
	})
	if !s.cfg.ClusterEnabled {
		return
	}
	s.mux.HandleFunc("POST /cluster/poll", s.workerPlane(s.coord.HandlePoll))
	s.mux.HandleFunc("POST /cluster/heartbeat", s.workerPlane(s.coord.HandleHeartbeat))
	s.mux.HandleFunc("POST /cluster/complete", s.workerPlane(s.coord.HandleComplete))
	s.mux.HandleFunc("GET /cluster/nodes", s.workerPlane(s.coord.HandleNodes))
}

// proveLocal is the coordinator's in-process executor — a standalone
// server's only one, a cluster's fallback — and the one place async work
// is admitted to the worker pool. It joins the same scheduler and
// bounded pool that serve synchronous requests, so "workers" is one
// concurrency budget and the DRR fairness policy governs all work no
// matter how it arrives; a unit of k jobs is charged k against its
// tenant's deficit, so batching amortizes proving work without
// amortizing fairness accounting. The attempt's running record is
// already journaled, so a pool that refuses it (tenant queue full, pool
// stopping) answers jobs.ErrPoolShed: no prover saw the attempt, and the
// manager refunds it for free. The pool goroutine is outside the
// manager's containment boundary, so a panicking attempt is turned into
// a retryable internal error here.
func (s *Server) proveLocal(ctx context.Context, members []jobs.BatchMember) []jobs.BatchOutcome {
	var outs []jobs.BatchOutcome
	var err error
	run := func() {
		defer zkerr.RecoverTo(&err, "server: in-process attempt")
		outs = s.exec(ctx, members)
	}
	if shed := s.runPooled(s.jobTenant(members[0].Spec.Tenant).ID, len(members), run); shed != nil {
		err = fmt.Errorf("server: attempt shed by the worker pool (%v): %w", shed, jobs.ErrPoolShed)
	}
	if err != nil {
		outs = make([]jobs.BatchOutcome, len(members))
		for i := range outs {
			outs[i].Err = err
		}
	}
	return outs
}

// workerPlane gates a worker-facing endpoint: when a cluster key is
// configured every worker RPC must present it as X-Cluster-Key (tenant
// API keys deliberately do not work here), and no request body may
// exceed what the largest honest one — a completion carrying one proof
// per member of a full batch, each within the memory envelope — needs.
func (s *Server) workerPlane(h http.HandlerFunc) http.HandlerFunc {
	members := 1
	if s.cfg.JobBatchWindow > 0 {
		members = s.cfg.JobBatchMax
		if members <= 0 {
			members = jobs.DefaultBatchMax
		}
	}
	limit := int64(s.cfg.MemoryBudgetMB) << 20 * int64(members)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ClusterKey != "" && r.Header.Get("X-Cluster-Key") != s.cfg.ClusterKey {
			s.metrics.authRejected.Add(1)
			writeError(w, http.StatusUnauthorized, "missing or unknown cluster key", "unknown-cluster-key")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h(w, r)
	}
}

// renderClusterMetrics appends the coordinator counter set to the
// Prometheus exposition in cluster mode.
func (s *Server) renderClusterMetrics(counter, gauge func(name, help string, v int64)) {
	if !s.cfg.ClusterEnabled {
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
