package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"nocap/internal/jobs"
	"nocap/internal/prover"
	"nocap/internal/tenant"
	"nocap/internal/zkerr"
)

// Async job API (DESIGN.md §11). When Config.DataDir is set the server
// opens a durable jobs.Manager over it and exposes:
//
//	POST   /jobs       submit a ProveRequest for async execution → 202
//	GET    /jobs/{id}  poll; proof + per-run stats once done
//	DELETE /jobs/{id}  cancel (best-effort for running attempts)
//	GET    /readyz     readiness: 503 while recovering, draining, or
//	                   the breaker is open; /healthz stays liveness
//
// Journal recovery runs in the background so the listener can come up
// immediately; /readyz answers 503 {"code":"recovering"} until replay
// finishes, which is what a load balancer should gate traffic on.

// JobResponse is the body of POST /jobs (202) and GET /jobs/{id} (200).
// ProofB64 is populated only when the poll asks for it (?proof=1): a
// status poll stays cheap instead of paying the full proof transfer on
// every request once the job is done.
type JobResponse struct {
	ID              string          `json:"id"`
	State           string          `json:"state"`
	Tenant          string          `json:"tenant,omitempty"`
	Attempts        int             `json:"attempts"`
	MaxAttempts     int             `json:"max_attempts"`
	Recovered       bool            `json:"recovered,omitempty"`
	Cached          bool            `json:"cached,omitempty"`
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	JournalLost     bool            `json:"journal_lost,omitempty"`
	Error           string          `json:"error,omitempty"`
	Code            string          `json:"code,omitempty"`
	ProofB64        string          `json:"proof_b64,omitempty"`
	ProofBytes      int             `json:"proof_bytes,omitempty"`
	Stats           json.RawMessage `json:"stats,omitempty"`
}

// jobResponse maps a manager snapshot onto the wire form.
func jobResponse(info jobs.JobInfo) JobResponse {
	return JobResponse{
		ID:              info.ID,
		State:           string(info.State),
		Tenant:          info.Tenant,
		Attempts:        info.Attempts,
		MaxAttempts:     info.MaxAttempts,
		Recovered:       info.Recovered,
		Cached:          info.Cached,
		CancelRequested: info.CancelRequested,
		JournalLost:     info.JournalLost,
		Error:           info.Error,
		Code:            info.Code,
		ProofBytes:      info.ProofBytes,
		Stats:           info.Stats,
	}
}

// openJobs opens the durable job manager over cfg.DataDir, with the
// coordinator as its executor. It runs in a background goroutine started
// by New so journal replay (which scales with journal size) never delays
// the listener; /readyz reports 503 until it finishes.
func (s *Server) openJobs() {
	var batchKey func(jobs.Spec) (string, bool)
	if s.cfg.JobBatchWindow > 0 {
		batchKey = prover.BatchKey
	}
	mgr, err := jobs.Open(jobs.Config{
		Dir:               s.cfg.DataDir,
		BatchExec:         s.coord.BatchExec,
		BatchKey:          batchKey,
		BatchWindow:       s.cfg.JobBatchWindow,
		BatchMax:          s.cfg.JobBatchMax,
		Workers:           s.cfg.JobWorkers,
		MaxPending:        s.cfg.JobMaxPending,
		MaxAttempts:       s.cfg.JobMaxAttempts,
		BackoffBase:       s.cfg.JobBackoffBase,
		BackoffMax:        s.cfg.JobBackoffMax,
		BreakerThreshold:  s.cfg.JobBreakerThreshold,
		BreakerCooldown:   s.cfg.JobBreakerCooldown,
		JournalMaxBytes:   int64(s.cfg.JobJournalMaxMB) << 20,
		JournalMaxRecords: s.cfg.JobJournalMaxRecords,
		Retention:         s.cfg.JobRetention,
		DegradedThreshold: s.cfg.JobDegradedThreshold,
		ProbeInterval:     s.cfg.JobProbeInterval,
		CompactCheck:      s.cfg.JobCompactCheck,
		TenantLimit:       func(tenantID string) int { return s.jobTenant(tenantID).MaxJobs },
	})
	s.jobsMu.Lock()
	s.jobsMgr, s.jobsErr = mgr, err
	s.jobsMu.Unlock()
	close(s.recovered)
}

// jobsManager returns the manager once recovery has finished.
func (s *Server) jobsManager() (*jobs.Manager, error) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobsMgr, s.jobsErr
}

// jobsUnavailable writes the 503 for an endpoint that needs the manager
// when it is not (yet, or at all) available. Returns true if it wrote.
func (s *Server) jobsUnavailable(w http.ResponseWriter) bool {
	if s.cfg.DataDir == "" {
		writeError(w, http.StatusNotImplemented, "async jobs disabled: server started without -data-dir", "jobs-disabled")
		return true
	}
	if s.JobsRecovering() {
		w.Header().Set("Retry-After", s.retryAfter(time.Second, 2))
		writeError(w, http.StatusServiceUnavailable, "journal recovery in progress", "recovering")
		return true
	}
	if _, err := s.jobsManager(); err != nil {
		s.metrics.serverErrors.Add(1)
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("job manager failed to open: %v", err), "jobs-init-failed")
		return true
	}
	return false
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobSubmits.Add(1)
	if s.jobsUnavailable(w) {
		return
	}
	if s.draining.Load() {
		s.metrics.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining", "draining")
		return
	}
	var req ProveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	// Validate before journaling: a request that could never prove gets
	// its 400 now instead of an accepted job that fails permanently.
	if _, err := s.prover.Check(req); err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	// No local fallback and zero live workers means an accepted job
	// could only sit and time out, so shed it now with a typed 503 whose
	// Retry-After tracks the EWMA of worker poll arrivals. Checked before
	// the rate gate so the shed does not charge the tenant's token bucket.
	if !s.cfg.localFallback() && !s.coord.HasLiveWorkers() {
		s.metrics.jobShedNoWorkers.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(s.coord.RetryAfterHint(), 2))
		writeError(w, http.StatusServiceUnavailable, "no live worker nodes", "no_workers")
		return
	}
	ten, ok := s.rateGate(w, r)
	if !ok {
		return
	}
	payload, err := json.Marshal(req)
	if err != nil {
		s.writeTaxonomyError(w, zkerr.Internalf("encode job payload: %v", err))
		return
	}
	mgr, _ := s.jobsManager()
	id, err := mgr.Submit(jobs.Spec{Payload: payload, Tenant: ten.ID})
	switch {
	case errors.Is(err, jobs.ErrBreakerOpen):
		s.metrics.jobShedBreaker.Add(1)
		_, remaining := mgr.BreakerState()
		w.Header().Set("Retry-After", s.retryAfter(remaining, 2))
		writeError(w, http.StatusServiceUnavailable, "proving backend circuit breaker is open", "breaker-open")
		return
	case errors.Is(err, jobs.ErrQueueFull):
		s.metrics.rejectedQueueFull.Add(1)
		w.Header().Set("Retry-After", s.drainRetryAfter())
		writeError(w, http.StatusTooManyRequests, "job queue is full", "queue-full")
		return
	case errors.Is(err, jobs.ErrTenantQuota):
		ten.RecordJobQuotaReject()
		s.metrics.rejectedTenantQuota.Add(1)
		w.Header().Set("Retry-After", s.drainRetryAfter())
		s.quotaHeaders(w, ten)
		writeTenantError(w, http.StatusTooManyRequests, "tenant live-job quota exceeded", "tenant-jobs-quota", ten.ID)
		return
	case errors.Is(err, jobs.ErrDegraded):
		// The data disk is refusing writes, so a new job could not be
		// made durable — but sync /prove, /verify, and polls of already
		// accepted jobs still work, so this is a typed shed of exactly
		// the durable path, not a blanket outage.
		s.metrics.jobShedDegraded.Add(1)
		w.Header().Set("Retry-After", s.drainRetryAfter())
		writeError(w, http.StatusServiceUnavailable, "durable job storage is degraded: journal writes are failing", "degraded")
		return
	case errors.Is(err, jobs.ErrClosed):
		s.metrics.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining", "draining")
		return
	case err != nil:
		s.writeTaxonomyError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+id)
	resp := JobResponse{ID: id, State: string(jobs.StateAccepted), Tenant: ten.ID}
	if info, err := mgr.Get(id); err == nil {
		resp = jobResponse(info)
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// jobVisible enforces tenant isolation on job reads: with API keys
// configured, a tenant sees only its own jobs (pre-tenancy jobs with no
// attribution belong to the default tenant). An unkeyed deployment is
// single-tenant and sees everything. Invisible jobs answer 404, not
// 403: existence itself is tenant data.
func (s *Server) jobVisible(ten *tenant.Tenant, info jobs.JobInfo) bool {
	if !s.reg.Keyed() {
		return true
	}
	owner := info.Tenant
	if owner == "" {
		owner = s.reg.Default().ID
	}
	return owner == ten.ID
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnavailable(w) {
		return
	}
	mgr, _ := s.jobsManager()
	info, err := mgr.Get(r.PathValue("id"))
	if errors.Is(err, jobs.ErrUnknownJob) || (err == nil && !s.jobVisible(s.tenantFor(r), info)) {
		writeError(w, http.StatusNotFound, jobs.ErrUnknownJob.Error(), "unknown-job")
		return
	}
	resp := jobResponse(info)
	// The proof payload is returned only on request: polls watch state
	// (and proof_bytes) for free, then fetch the proof exactly once.
	if wantProof := r.URL.Query().Get("proof"); (wantProof == "1" || wantProof == "true") && info.State == jobs.StateDone {
		proof, perr := mgr.Proof(info.ID)
		if perr != nil {
			s.writeTaxonomyError(w, perr)
			return
		}
		// An empty proof leaves proof_b64 out, as its omitempty tag does.
		if len(proof) > 0 {
			resp.ProofB64 = proofSlot
			writeProof(w, resp, proof, nil)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobCancel implements idempotent DELETE /jobs/{id}: the status
// is a pure function of the job's state, so double-cancels and
// cancel/complete races always land on one of three consistent typed
// responses instead of racing to ambiguous ones:
//
//	cancelled (now or earlier)  → 200 {"state":"cancelled"}
//	running, cancel in flight   → 202 {"cancel_requested":true}
//	done/failed first           → 409 {"code":"terminal"} (repeatable)
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnavailable(w) {
		return
	}
	mgr, _ := s.jobsManager()
	id := r.PathValue("id")
	ten := s.tenantFor(r)
	// Visibility first: cancelling another tenant's job must look
	// exactly like cancelling a job that does not exist.
	if info, err := mgr.Get(id); err == nil && !s.jobVisible(ten, info) {
		writeError(w, http.StatusNotFound, jobs.ErrUnknownJob.Error(), "unknown-job")
		return
	}
	info, err := mgr.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err.Error(), "unknown-job")
		return
	case errors.Is(err, jobs.ErrTerminal):
		// The job completed (done/failed) before any cancel arrived — and
		// repeating the DELETE repeats this same answer.
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error(), Code: "terminal", Tenant: info.Tenant})
		return
	case err != nil:
		s.writeTaxonomyError(w, err)
		return
	}
	s.metrics.jobCancels.Add(1)
	if info.State == jobs.StateCancelled {
		writeJSON(w, http.StatusOK, jobResponse(info))
		return
	}
	writeJSON(w, http.StatusAccepted, jobResponse(info))
}

// handleReadyz is the readiness probe: 200 only when the server should
// receive traffic. Unlike /healthz (liveness: "the process is up"),
// readiness goes false during graceful drain, while journal recovery is
// still replaying, and while the proving backend's circuit breaker is
// open — a load balancer should route around all three.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "code": "draining"})
		return
	}
	if s.cfg.DataDir != "" {
		if s.JobsRecovering() {
			w.Header().Set("Retry-After", s.retryAfter(time.Second, 2))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering", "code": "recovering"})
			return
		}
		mgr, err := s.jobsManager()
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "jobs-init-failed", "code": "jobs-init-failed", "error": err.Error()})
			return
		}
		if st, remaining := mgr.BreakerState(); st == jobs.BreakerOpen {
			w.Header().Set("Retry-After", s.retryAfter(remaining, 2))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "breaker-open", "code": "breaker-open"})
			return
		}
		// Degraded durable storage does NOT flip readiness: sync /prove,
		// /verify, cached proofs, and job polls all still serve, and only
		// POST /jobs sheds (with its own typed 503). A load balancer that
		// routed around a degraded replica would drop the traffic it can
		// still handle. The body reports it so operators see the state.
		if degraded, since := mgr.Degraded(); degraded {
			writeJSON(w, http.StatusOK, map[string]any{
				"status":           "ready",
				"degraded":         true,
				"degraded_seconds": int64(since.Seconds()),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// JobsRecovering reports whether journal recovery is still running.
func (s *Server) JobsRecovering() bool {
	select {
	case <-s.recovered:
		return false
	default:
		return true
	}
}

// JobsMetrics snapshots the job manager's counters, or a zero snapshot
// when jobs are disabled or still recovering (test hook).
func (s *Server) JobsMetrics() jobs.Metrics {
	if mgr, err := s.jobsManager(); err == nil && mgr != nil {
		return mgr.Metrics()
	}
	return jobs.Metrics{}
}

// renderJobsMetrics appends the job/journal/breaker gauge set to the
// Prometheus text exposition.
func (s *Server) renderJobsMetrics(counter, gauge func(name, help string, v int64)) {
	if s.cfg.DataDir == "" {
		return
	}
	recovering := int64(0)
	if s.JobsRecovering() {
		recovering = 1
	}
	gauge("nocap_jobs_recovering", "1 while journal recovery is replaying", recovering)
	mgr, err := s.jobsManager()
	if err != nil || mgr == nil {
		return
	}
	m := mgr.Metrics()
	counter("nocap_jobs_accepted_total", "jobs durably accepted", m.Accepted)
	counter("nocap_jobs_done_total", "jobs completed with a proof", m.Done)
	counter("nocap_jobs_failed_total", "jobs terminally failed", m.Failed)
	counter("nocap_jobs_cancelled_total", "jobs cancelled", m.Cancelled)
	counter("nocap_jobs_retries_total", "attempt retries scheduled", m.Retries)
	counter("nocap_jobs_lease_reassigns_total", "attempts refunded after a worker lease expired (node death)", m.LeaseReassigns)
	counter("nocap_jobs_recovered_total", "jobs re-enqueued by crash recovery", m.RecoveredJobs)
	counter("nocap_jobs_torn_records_total", "torn journal records dropped at recovery", m.TornRecords)
	counter("nocap_jobs_journal_append_errors_total", "journal append failures", m.JournalAppendErrors)
	counter("nocap_jobs_journal_lost_total", "jobs whose terminal record could not be journaled", m.JournalLostJobs)
	counter("nocap_jobs_breaker_trips_total", "circuit breaker trips", m.BreakerTrips)
	counter("nocap_jobs_journal_corrupt_records_total", "checksum-failed or undecodable journal records skipped at recovery", m.CorruptRecords)
	counter("nocap_jobs_compactions_total", "journal compactions completed", m.Compactions)
	counter("nocap_jobs_retired_total", "terminal jobs garbage-collected by retention", m.RetiredJobs)
	counter("nocap_jobs_orphans_swept_total", "orphaned temp/proof files deleted at recovery", m.OrphansSwept)
	counter("nocap_jobs_degraded_entries_total", "times the manager entered degraded mode", m.DegradedEntries)
	counter("nocap_jobs_probe_writes_total", "disk-recovery probe writes attempted while degraded", m.ProbeWrites)
	gauge("nocap_jobs_active", "jobs in a non-terminal state", m.Active)
	gauge("nocap_jobs_journal_records", "records in the journal", m.JournalRecords)
	gauge("nocap_jobs_journal_bytes", "journal size in bytes", m.JournalBytes)
	gauge("nocap_jobs_snapshot_bytes", "size of the last compaction snapshot", m.SnapshotBytes)
	gauge("nocap_jobs_breaker_state", "breaker state (0 closed, 1 open, 2 half-open)", int64(m.BreakerState))
	if s.cfg.JobBatchWindow > 0 {
		counter("nocap_batches_total", "batched proving attempts dispatched", m.Batches)
		counter("nocap_batch_jobs_total", "jobs proved through batched attempts", m.BatchJobs)
		counter("nocap_batch_amortized_saves_total", "jobs that skipped redundant shared-structure work because a batch-mate already did it", m.BatchAmortizedSaves)
		gauge("nocap_batch_size", "size of the most recently dispatched batch", m.LastBatchSize)
	}
	degraded := int64(0)
	if m.Degraded {
		degraded = 1
	}
	gauge("nocap_jobs_degraded", "1 while durable job storage is refusing writes", degraded)
}
