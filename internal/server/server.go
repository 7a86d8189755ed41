// Package server implements the multi-session proving service: an HTTP
// front end over internal/prover (the one statement→proof executor,
// DESIGN.md §17) with the admission control a shared prover needs. Proving is seconds of CPU and hundreds
// of megabytes of scratch per request, so the server never lets HTTP
// concurrency become proving concurrency: a fixed worker pool executes
// the cryptographic work and bounded per-tenant queues in front of it
// shed load with 429 the moment a tenant's backlog is full, instead of
// stacking requests until the process dies.
//
// Admission is multi-tenant (DESIGN.md §12): requests authenticate with
// a static API key (or fall to the anonymous default tenant), pass the
// tenant's token-bucket rate limit, and join the tenant's own bounded
// queue. A weighted deficit-round-robin scheduler hands queued requests
// to the worker pool, so one saturating tenant cannot starve the rest —
// a light tenant's head-of-queue request is served within a bounded
// number of dequeues. A content-addressed proof cache (verify-on-insert,
// singleflight) sits behind admission so repeat proofs cost a lookup.
//
// Per-request accounting rides on the stats Collector (nocap.Collector):
// each request attaches its own collector to the proving context, so the
// five-stage kernel breakdown and arena behavior returned in responses
// describe exactly that request's work even when eight proves overlap —
// the process-global counters stay what they are, an aggregate across
// all runs, and /metrics exposes them as such.
//
// Error taxonomy (DESIGN.md §7) maps onto HTTP status codes:
//
//	usage                  → 400
//	malformed-proof        → 400
//	bad-commitment         → 400
//	unknown API key        → 401
//	resource-limit         → 413 (request bounds) or 504 (deadline)
//	internal               → 500
//	queue/rate/quota full  → 429 (typed per-tenant, Retry-After set)
//	draining               → 503
//
// A proof that parses but fails verification is not a transport error:
// POST /verify answers 200 with {"valid": false} and the taxonomy code.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nocap"
	"nocap/internal/backoff"
	"nocap/internal/cluster"
	"nocap/internal/jobs"
	"nocap/internal/proofcache"
	"nocap/internal/prover"
	"nocap/internal/tenant"
	"nocap/internal/zkerr"
)

// Config parameterizes the service. The zero value of any field means
// "use the default" (see Normalize).
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:8080".
	Addr string
	// Workers bounds concurrent proving/verification runs. Default 2.
	Workers int
	// QueueDepth bounds requests admitted but not yet running, per
	// tenant (it is the default tenant queue depth; individual tenants
	// may override). Beyond it the server answers 429. Default 2×Workers.
	QueueDepth int
	// RequestTimeout caps every request's proving deadline; a request's
	// own timeout_ms may shorten it but never extend it. Default 2m.
	RequestTimeout time.Duration
	// MemoryBudgetMB is the per-request decode envelope: request bodies
	// and decoded proofs may not exceed it. Default 64 MB.
	MemoryBudgetMB int
	// MaxN caps the circuit size parameter a request may ask for.
	// Default 1 << 16.
	MaxN int
	// Params are the proving parameters (Reps is overridden per request
	// when the request sets reps). Default nocap.DefaultParams().
	Params nocap.Params

	// Tenants are the keyed tenants (API key required); empty means the
	// service runs single-tenant on the anonymous default tenant.
	Tenants []tenant.Config
	// TenantDefaults configures the anonymous default tenant and
	// supplies fallback values for keyed tenants' zero fields. Its zero
	// value means weight 1, queue depth QueueDepth, no rate limit.
	TenantDefaults tenant.Config
	// CacheMB is the content-addressed proof cache budget; <= 0
	// disables the cache (and singleflight coalescing with it).
	CacheMB int

	// DataDir enables the durable async job API (POST/GET/DELETE /jobs):
	// the job journal and proof payloads live here and survive restarts.
	// Empty disables the endpoints.
	DataDir string
	// JobWorkers / JobMaxPending / JobMaxAttempts / JobBackoffBase /
	// JobBackoffMax / JobBreakerThreshold / JobBreakerCooldown tune the
	// job manager; zero values take the jobs package defaults (except
	// JobWorkers in cluster mode, see Normalize).
	JobWorkers          int
	JobMaxPending       int
	JobMaxAttempts      int
	JobBackoffBase      time.Duration
	JobBackoffMax       time.Duration
	JobBreakerThreshold int
	JobBreakerCooldown  time.Duration
	// JobJournalMaxMB / JobJournalMaxRecords bound the job journal:
	// past either, a background compaction snapshots live state and
	// truncates the journal. Zero for both disables compaction.
	JobJournalMaxMB      int
	JobJournalMaxRecords int64
	// JobRetention garbage-collects terminal jobs (and their proof
	// files) older than this at compaction time; zero keeps them until
	// the operator cleans up.
	JobRetention time.Duration
	// JobDegradedThreshold / JobProbeInterval / JobCompactCheck tune
	// degraded-mode entry, the disk-recovery probe cadence, and the
	// compaction poll tick; zero values take the jobs package defaults.
	JobDegradedThreshold int
	JobProbeInterval     time.Duration
	JobCompactCheck      time.Duration
	// JobsExec overrides the in-process solo recipe for async jobs (test
	// hook; nil means internal/prover).
	JobsExec jobs.Exec
	// JobBatchWindow enables the batch planner (DESIGN.md §15): queued
	// jobs for the same tenant with the same (circuit, n, reps) key that
	// arrive within this window coalesce into one batched attempt proved
	// through a shared-structure plan. Zero disables batching.
	// JobBatchMax caps the batch size (zero takes the jobs default, 8).
	JobBatchWindow time.Duration
	JobBatchMax    int

	// ClusterEnabled exposes the server's coordinator to worker nodes
	// (DESIGN.md §16): the /cluster/* endpoints over h2c, through which
	// async job attempts are leased to nodes instead of proving
	// in-process. Requires DataDir.
	ClusterEnabled bool
	// ClusterKey, when set, is required as X-Cluster-Key on every
	// worker RPC.
	ClusterKey string
	// ClusterLeaseTTL is the assignment lease TTL (default 3s); a node
	// silent for 3×TTL is dead (cluster.Config defaults).
	ClusterLeaseTTL time.Duration
	// ClusterLocalFallback lets the coordinator prove in-process when
	// zero live workers exist; false sheds new jobs with a typed 503
	// {"code":"no_workers"} instead.
	ClusterLocalFallback bool
	// ClusterSeed seeds lease/probe jitter for deterministic tests.
	ClusterSeed int64
}

// Normalize fills zero fields with defaults.
func (c Config) Normalize() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MemoryBudgetMB <= 0 {
		c.MemoryBudgetMB = 64
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 16
	}
	var zero nocap.Params
	if c.Params == zero {
		c.Params = nocap.DefaultParams()
	}
	if c.JobWorkers <= 0 && c.ClusterEnabled {
		// Dispatchers feeding worker nodes spend their time parked on
		// RPC, not holding a pool slot, so a coordinator runs more of
		// them than the jobs default of 2.
		c.JobWorkers = 8
	}
	return c
}

// decodeLimits derives the per-request DecodeLimits from the memory
// envelope: no decode may allocate more than the budget, and no proof
// larger than the budget is even parsed.
func (c Config) decodeLimits() nocap.DecodeLimits {
	budget := int64(c.MemoryBudgetMB) << 20
	l := nocap.DefaultDecodeLimits()
	l.MaxTotalAlloc = budget
	if int64(l.MaxProofBytes) > budget {
		l.MaxProofBytes = int(budget)
	}
	return l
}

// job is one admitted request waiting for a worker. The handler
// goroutine blocks on done until the worker has written the response, so
// a response is never half-written when the handler returns (the drain
// guarantee rides on this: http.Server.Shutdown waits for handlers,
// handlers wait for workers).
type job struct {
	run  func()
	done chan struct{}
	// dropped is set (before done closes) when the shutdown sweep
	// completed this entry without running it; runPooled reads it after
	// <-done to tell "ran" from "provably shed".
	dropped bool
}

// drainEstimator measures the worker pool's service rate so Retry-After
// on shed requests reflects the actual backlog instead of a fixed
// constant: a queue of B items draining through W workers at mean
// service time s clears in about s·(B+1)/W.
type drainEstimator struct {
	completions atomic.Int64
	serviceNs   atomic.Int64
}

func (d *drainEstimator) observe(service time.Duration) {
	d.completions.Add(1)
	d.serviceNs.Add(service.Nanoseconds())
}

// retryAfter estimates when a shed request is worth retrying, clamped
// to [1s, 30s]. With no completed work yet it falls back to the 1s
// floor (the pre-estimator behaviour).
func (d *drainEstimator) retryAfter(backlog, workers int) time.Duration {
	n := d.completions.Load()
	if n <= 0 {
		return time.Second
	}
	mean := time.Duration(d.serviceNs.Load() / n)
	if workers < 1 {
		workers = 1
	}
	return backoff.ClampRetryAfter(mean * time.Duration(backlog+1) / time.Duration(workers))
}

// Server is the proving service. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg      Config
	limits   nocap.DecodeLimits
	mux      *http.ServeMux
	http     *http.Server
	reg      *tenant.Registry
	sched    *tenant.Scheduler
	cache    *proofcache.Cache
	prover   *prover.Prover
	exec     jobs.BatchExec // proves an async unit in-process: jobs.Unit over the prover's two recipes
	coord    *cluster.Coordinator
	drainEst drainEstimator
	// rng jitters every Retry-After the server sends; guarded by rngMu.
	rngMu    sync.Mutex
	rng      *rand.Rand
	draining atomic.Bool
	inflight atomic.Int64
	metrics  metrics

	baseCtx    context.Context
	cancelBase context.CancelFunc

	workerWG sync.WaitGroup
	// workersDone closes after the last worker exits; anything still
	// queued in the scheduler at that point will never run and must be
	// swept.
	workersDone chan struct{}

	// Async job state: the manager opens in the background (journal
	// replay can be slow) and recovered closes once it is usable (at
	// once without a data dir).
	jobsMu    sync.Mutex
	jobsMgr   *jobs.Manager
	jobsErr   error
	recovered chan struct{}

	listenerMu sync.Mutex
	listener   net.Listener
}

// New returns an unstarted server. It fails only on invalid tenant
// configuration (duplicate IDs or API keys, keyless tenants).
func New(cfg Config) (*Server, error) {
	cfg = cfg.Normalize()
	defaults := cfg.TenantDefaults
	if defaults.QueueDepth <= 0 {
		defaults.QueueDepth = cfg.QueueDepth
	}
	reg, err := tenant.NewRegistry(defaults, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	queues := make([]tenant.QueueConfig, 0, len(reg.All()))
	for _, t := range reg.All() {
		queues = append(queues, tenant.QueueConfig{
			ID:          t.ID,
			Weight:      t.Weight,
			Depth:       t.QueueDepth,
			MaxInflight: t.MaxInflight,
		})
	}
	s := &Server{
		cfg:         cfg,
		limits:      cfg.decodeLimits(),
		mux:         http.NewServeMux(),
		reg:         reg,
		sched:       tenant.NewScheduler(queues),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		workersDone: make(chan struct{}),
		recovered:   make(chan struct{}),
	}
	if cfg.CacheMB > 0 {
		s.cache = proofcache.New(proofcache.Config{MaxBytes: int64(cfg.CacheMB) << 20})
	}
	s.prover = prover.New(prover.Config{
		Params:  cfg.Params,
		MaxN:    cfg.MaxN,
		Timeout: cfg.RequestTimeout,
		Cache:   s.cache,
		Limits:  s.limits,
	})
	solo := jobs.Exec(s.prover.Exec)
	if cfg.JobsExec != nil {
		solo = cfg.JobsExec
	}
	s.exec = jobs.Unit(solo, s.prover.BatchExec)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /prove", s.withTenant(s.handleProve))
	s.mux.HandleFunc("POST /verify", s.withTenant(s.handleVerify))
	s.mux.HandleFunc("POST /jobs", s.withTenant(s.handleJobCreate))
	s.mux.HandleFunc("GET /jobs/{id}", s.withTenant(s.handleJobGet))
	s.mux.HandleFunc("DELETE /jobs/{id}", s.withTenant(s.handleJobCancel))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.DataDir != "" {
		s.openCluster()
	} else if cfg.ClusterEnabled {
		s.cancelBase()
		return nil, zkerr.Usagef("server: cluster mode requires DataDir (the coordinator owns the job journal)")
	}
	s.http = &http.Server{
		Addr:    cfg.Addr,
		Handler: s.mux,
		BaseContext: func(net.Listener) context.Context {
			// Request contexts descend from baseCtx so a drain deadline can
			// cancel every in-flight prove at once.
			return s.baseCtx
		},
		ReadHeaderTimeout: 10 * time.Second,
	}
	if cfg.ClusterEnabled {
		// Workers speak unencrypted HTTP/2 (h2c) for multiplexed
		// long-polls and completions; HTTP/1.1 clients keep working.
		protos := new(http.Protocols)
		protos.SetHTTP1(true)
		protos.SetUnencryptedHTTP2(true)
		s.http.Protocols = protos
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if cfg.DataDir != "" {
		go s.openJobs()
	} else {
		close(s.recovered)
	}
	return s, nil
}

// Handler returns the HTTP handler, for tests driving the server through
// httptest without a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds the configured address and returns it, so callers (and
// tests using port 0) learn the concrete address before serving.
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.listenerMu.Lock()
	s.listener = ln
	s.listenerMu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections on the listener bound by Listen until
// Shutdown. It returns nil after a clean shutdown.
func (s *Server) Serve() error {
	s.listenerMu.Lock()
	ln := s.listener
	s.listenerMu.Unlock()
	if ln == nil {
		return zkerr.Internalf("server: Serve before Listen")
	}
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: stop admitting (new requests get 503),
// wait for queued and in-flight requests to finish, then stop the
// workers. If ctx expires first, every in-flight proving context is
// cancelled — the provers abandon work at their next checkpoint and the
// handlers still write complete (error) responses before exiting.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Stop the job manager first: it quits dispatching onto the worker
	// pool and cancels in-flight attempts WITHOUT journaling terminal
	// states, so interrupted jobs replay on the next start exactly as
	// after a crash. Wait out a still-running recovery so the journal is
	// closed cleanly when possible.
	select {
	case <-s.recovered:
	case <-ctx.Done():
	}
	if mgr, _ := s.jobsManager(); mgr != nil {
		_ = mgr.Close(ctx)
	}
	// Stop the coordinator after the manager (its Exec callers are gone)
	// and before the HTTP drain so parked worker long-polls wake up.
	if s.coord != nil {
		s.coord.Close()
	}
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Drain deadline hit: cancel all request contexts and collect the
		// (now fast) stragglers.
		s.cancelBase()
		err = s.http.Shutdown(context.Background())
	}
	s.sched.Stop()
	s.workerWG.Wait()
	// If the manager's Close hit the drain deadline above, its
	// dispatchers can still be parked in proveLocal on entries the (now
	// exited) workers never picked up. Publish that the pool is gone and
	// sweep the queues so every waiter is released instead of leaking.
	close(s.workersDone)
	s.drainJobQueue()
	s.cancelBase()
	return err
}

// drainJobQueue completes every entry still sitting in the scheduler
// after the workers have exited, without running it. Safe to call
// concurrently (runPooled waiters sweep too): Drain hands each entry out
// exactly once.
func (s *Server) drainJobQueue() {
	for _, v := range s.sched.Drain() {
		j := v.(*job)
		j.dropped = true
		close(j.done)
	}
}

// worker executes scheduled jobs one at a time until the scheduler
// stops.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		v, tenantID, wait, ok := s.sched.Dequeue()
		if !ok {
			return
		}
		j := v.(*job)
		s.metrics.queueWaitNs.Add(wait.Nanoseconds())
		start := time.Now()
		j.run()
		s.drainEst.observe(time.Since(start))
		s.sched.Done(tenantID)
		close(j.done)
	}
}

// runPooled enqueues run on the tenant's scheduler queue at the given
// fairness cost and blocks until a pool worker has run it. A non-nil
// error means run never ran: the scheduler's own refusal (queue full,
// unknown tenant, stopped), or tenant.ErrStopped when the entry was
// swept at shutdown. Handlers are waited on before the workers stop, so
// only async attempts can be stranded by a blown drain deadline: the
// workers exit with entries still queued, and when workersDone fires
// the waiter sweeps the queue itself — every stranded entry (possibly
// including this one) is completed without running, and dropped says
// the attempt was provably shed.
func (s *Server) runPooled(tenantID string, cost int, run func()) error {
	j := &job{run: run, done: make(chan struct{})}
	if err := s.sched.Enqueue(tenantID, j, cost); err != nil {
		return err
	}
	select {
	case <-j.done:
	case <-s.workersDone:
		s.drainJobQueue()
		<-j.done
	}
	if j.dropped {
		return tenant.ErrStopped
	}
	return nil
}

// admit runs work on the pool under the tenant's queue, or rejects it
// (writing the response itself) when the server is draining or the
// tenant's queue is full. A full queue is a per-tenant condition: other
// tenants' backlog can never cause this 429.
func (s *Server) admit(w http.ResponseWriter, ten *tenant.Tenant, run func()) bool {
	err := tenant.ErrStopped // a draining server refuses like a stopped scheduler
	if !s.draining.Load() {
		err = s.runPooled(ten.ID, 1, run)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, tenant.ErrStopped):
		s.metrics.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining", "draining")
	default:
		s.metrics.rejectedQueueFull.Add(1)
		w.Header().Set("Retry-After", s.drainRetryAfter())
		s.quotaHeaders(w, ten)
		writeTenantError(w, http.StatusTooManyRequests, "tenant admission queue is full", "queue-full", ten.ID)
	}
	return false
}

// rateGate resolves the request's tenant and charges its token bucket.
// A refusal is a per-tenant 429 with the quota headers and a
// Retry-After equal to the bucket's refill horizon.
func (s *Server) rateGate(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, bool) {
	ten := s.tenantFor(r)
	if ok, retryIn := ten.Allow(); !ok {
		ten.RecordRateReject()
		s.metrics.rejectedRateLimited.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(retryIn, 1))
		s.quotaHeaders(w, ten)
		writeTenantError(w, http.StatusTooManyRequests, "tenant rate limit exceeded", "rate-limited", ten.ID)
		return nil, false
	}
	return ten, true
}

// quotaHeaders attaches the tenant's limits to a response so shed
// clients learn their budget, not just that they exceeded it.
func (s *Server) quotaHeaders(w http.ResponseWriter, ten *tenant.Tenant) {
	h := w.Header()
	h.Set("X-Quota-Tenant", ten.ID)
	h.Set("X-Quota-Weight", strconv.Itoa(ten.Weight))
	h.Set("X-Quota-Queue-Depth", strconv.Itoa(ten.QueueDepth))
	if ten.RatePerSec > 0 {
		h.Set("X-RateLimit-Limit", strconv.FormatFloat(ten.RatePerSec, 'f', -1, 64))
		h.Set("X-RateLimit-Burst", strconv.Itoa(ten.Burst))
	}
	if ten.MaxJobs > 0 {
		h.Set("X-Quota-Max-Jobs", strconv.Itoa(ten.MaxJobs))
	}
}

// ProveRequest is the POST /prove and POST /jobs body.
type ProveRequest = prover.Request

// ProveResponse is the POST /prove success body.
type ProveResponse struct {
	Circuit    string       `json:"circuit"`
	N          int          `json:"n"`
	Cached     bool         `json:"cached"`
	ProofB64   string       `json:"proof_b64"`
	ProofBytes int          `json:"proof_bytes"`
	ElapsedMS  float64      `json:"elapsed_ms"`
	QueueMS    float64      `json:"queue_ms"`
	Stats      prover.Stats `json:"stats"`
}

// VerifyRequest is the POST /verify body.
type VerifyRequest struct {
	Circuit   string `json:"circuit"`
	N         int    `json:"n"`
	Reps      int    `json:"reps,omitempty"`
	ProofB64  string `json:"proof_b64"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// VerifyResponse is the POST /verify body for any proof that was
// structurally decodable: Valid reports the cryptographic outcome, and
// on rejection Code carries the taxonomy class.
type VerifyResponse struct {
	Valid     bool         `json:"valid"`
	Code      string       `json:"code,omitempty"`
	Error     string       `json:"error,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Stats     prover.Stats `json:"stats"`
}

// ErrorResponse is every non-2xx body. Tenant names whose quota caused
// a 429 (absent on non-tenant errors).
type ErrorResponse struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Tenant string `json:"tenant,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// proofSlot is what a reply's proof_b64 holds while writeProof marshals
// the rest of the reply; proofMark is how the slot reads in the JSON.
// The mark cannot occur inside another string value, where every quote
// is escaped.
const (
	proofSlot = "-"
	proofMark = `"proof_b64":"` + proofSlot + `"`
)

// writeProof answers 200 with reply v — a ProveResponse or JobResponse
// whose ProofB64 is proofSlot — carrying b64, the standard base64 text
// of proof, in that field: the body is byte-identical to writeJSON of
// the reply with the text in place. Only the small rest of the reply is
// marshalled; the text is written as it is, under an explicit
// Content-Length, with no copy and no JSON string scan. b64 is the proof
// cache's stored form when the proof came through it; nil encodes proof
// once here.
func writeProof(w http.ResponseWriter, v any, proof, b64 []byte) {
	msg, err := json.Marshal(v)
	i := bytes.Index(msg, []byte(proofMark))
	if err != nil || i < 0 {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("server: marshal proof reply: %v", err), "internal")
		return
	}
	if b64 == nil {
		b64 = base64.StdEncoding.AppendEncode(nil, proof)
	}
	head := msg[:i+len(proofMark)-len(proofSlot)-1]
	tail := append(msg[i+len(proofMark)-1:], '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(b64)+len(tail)))
	w.WriteHeader(http.StatusOK)
	for _, part := range [][]byte{head, b64, tail} {
		if _, err := w.Write(part); err != nil {
			return
		}
	}
}

func writeError(w http.ResponseWriter, status int, msg, code string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

func writeTenantError(w http.ResponseWriter, status int, msg, code, tenantID string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, Tenant: tenantID})
}

// statusFor maps a taxonomy-classified error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away or the drain deadline fired; the status is
		// for the log line more than the (likely absent) reader.
		return http.StatusServiceUnavailable
	}
	switch zkerr.Code(err) {
	case "usage", "malformed-proof", "bad-commitment":
		return http.StatusBadRequest
	case "resource-limit":
		return http.StatusRequestEntityTooLarge
	case "soundness-check-failed":
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeTaxonomyError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status >= 500 {
		s.metrics.serverErrors.Add(1)
	} else {
		s.metrics.clientErrors.Add(1)
	}
	code := zkerr.Code(err)
	if code == "" {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			code = "deadline"
		case errors.Is(err, context.Canceled):
			code = "canceled"
		default:
			code = "error"
		}
	}
	writeError(w, status, err.Error(), code)
}

// decodeBody reads and unmarshals a JSON request body bounded by the
// memory envelope.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, int64(s.cfg.MemoryBudgetMB)<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return zkerr.Resourcef("request body exceeds %d MB envelope", s.cfg.MemoryBudgetMB)
		}
		return zkerr.Usagef("decode request: %v", err)
	}
	return nil
}

// drainRetryAfter is the Retry-After for a request shed on backlog:
// the pool's measured drain time for the current queue, jittered.
func (s *Server) drainRetryAfter() string {
	return s.retryAfter(s.drainEst.retryAfter(s.sched.Len(), s.cfg.Workers), 2)
}

// retryAfter renders a jittered Retry-After header value (see
// backoff.RetryAfter) from the server's own source.
func (s *Server) retryAfter(min time.Duration, spread int) string {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return backoff.RetryAfter(s.rng, min, spread)
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	s.metrics.proveRequests.Add(1)
	var req ProveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	timeout, err := s.prover.Check(req)
	if err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	ten, ok := s.rateGate(w, r)
	if !ok {
		return
	}
	admitted := time.Now()
	var flight *proofcache.Flight
	if !s.admit(w, ten, func() {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		// A repeat request is answered from the cache's front index
		// before its circuit is built.
		if out, ok := s.prover.Lookup(req); ok {
			s.writeProve(w, req, out, time.Since(admitted))
			return
		}
		st, err := s.prover.Build(req)
		if err != nil {
			s.writeTaxonomyError(w, err)
			return
		}
		queued := time.Since(admitted)
		var out prover.Outcome
		// An identical prove already in flight on another worker hands
		// its flight back: the handler waits for it OUTSIDE the worker
		// pool — a follower must not burn a worker slot idling.
		if out, flight, err = s.prover.Prove(r.Context(), st); err != nil {
			s.writeTaxonomyError(w, err)
		} else if flight == nil {
			s.writeProve(w, req, out, queued)
		}
	}) || flight == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	proof, err := flight.Wait(ctx)
	if err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	s.writeProve(w, req, prover.FromCache(proof), time.Since(admitted))
}

// writeProve answers 200 for a proved or cache-served statement. For
// cached bytes no prove ran for this request, so elapsed is 0 and the
// stats block is empty (provesOK counts real proves only; hits show up
// in the proofcache metrics).
func (s *Server) writeProve(w http.ResponseWriter, req ProveRequest, out prover.Outcome, queued time.Duration) {
	if out.Cached {
		out.Stats.Stages = map[string]prover.StageStats{}
	} else {
		s.metrics.provesOK.Add(1)
		s.metrics.proveNs.Add(out.Elapsed.Nanoseconds())
	}
	writeProof(w, ProveResponse{
		Circuit:    req.Circuit,
		N:          req.N,
		Cached:     out.Cached,
		ProofB64:   proofSlot,
		ProofBytes: len(out.Proof),
		ElapsedMS:  float64(out.Elapsed) / float64(time.Millisecond),
		QueueMS:    float64(queued) / float64(time.Millisecond),
		Stats:      out.Stats,
	}, out.Proof, out.B64)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.metrics.verifyRequests.Add(1)
	var req VerifyRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	stmt := ProveRequest{Circuit: req.Circuit, N: req.N, Reps: req.Reps, TimeoutMS: req.TimeoutMS}
	timeout, err := s.prover.Check(stmt)
	if err != nil {
		s.writeTaxonomyError(w, err)
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.ProofB64)
	if err != nil {
		s.writeTaxonomyError(w, zkerr.Malformedf("proof_b64: %v", err))
		return
	}
	ten, ok := s.rateGate(w, r)
	if !ok {
		return
	}
	s.admit(w, ten, func() {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		// Structural decode under the memory envelope happens before the
		// expensive circuit build: hostile bytes are rejected at the cost
		// of parsing, not proving.
		proof, err := nocap.UnmarshalProofLimits(raw, s.limits)
		if err != nil {
			s.writeTaxonomyError(w, err)
			return
		}
		st, err := s.prover.Build(stmt)
		if err != nil {
			s.writeTaxonomyError(w, err)
			return
		}
		col := nocap.NewCollector()
		start := time.Now()
		verr := st.Verify(col.Attach(ctx), proof)
		elapsed := time.Since(start)
		resp := VerifyResponse{
			Valid:     verr == nil,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
			Stats:     prover.StatsOf(col.Stats()),
		}
		switch {
		case verr == nil:
			s.metrics.verifiesOK.Add(1)
		case errors.Is(verr, context.Canceled) || errors.Is(verr, context.DeadlineExceeded):
			s.writeTaxonomyError(w, verr)
			return
		default:
			// The proof was examined and rejected: that is a completed
			// verification, answered 200 with the taxonomy class, not a
			// transport failure.
			s.metrics.verifiesRejected.Add(1)
			resp.Code = zkerr.Code(verr)
			resp.Error = verr.Error()
		}
		s.metrics.verifyNs.Add(elapsed.Nanoseconds())
		writeJSON(w, http.StatusOK, resp)
	})
}

// handleHealthz is the liveness probe: it answers 200 for as long as
// the process can serve HTTP at all — including during graceful drain,
// when the orchestrator must NOT restart the process (that would kill
// the drain). Whether traffic should be routed here is /readyz's
// question, not this one's.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	body := map[string]any{
		"status":         status,
		"draining":       s.draining.Load(),
		"workers":        s.cfg.Workers,
		"queue_depth":    s.sched.Len(),
		"queue_capacity": s.sched.Capacity(),
		"inflight":       s.inflight.Load(),
	}
	if s.cfg.ClusterEnabled {
		cm := s.coord.Metrics()
		body["cluster"] = map[string]any{
			"nodes":          len(cm.Nodes),
			"live_nodes":     cm.LiveNodes,
			"live_leases":    cm.LiveLeases,
			"queued_units":   cm.QueuedUnits,
			"local_fallback": s.cfg.ClusterLocalFallback,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.renderMetrics())
}

// Queue reports current backlog and in-flight counts (test hook).
func (s *Server) Queue() (depth, capacity, inflight int) {
	return s.sched.Len(), s.sched.Capacity(), int(s.inflight.Load())
}

// CacheMetrics snapshots the proof cache counters; the zero snapshot
// when the cache is disabled (test hook).
func (s *Server) CacheMetrics() proofcache.Metrics {
	if s.cache == nil {
		return proofcache.Metrics{}
	}
	return s.cache.Metrics()
}

// TenantStats snapshots the per-tenant scheduler counters (test hook).
func (s *Server) TenantStats() []tenant.QueueStats {
	return s.sched.Stats()
}
