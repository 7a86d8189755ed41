// Command nocap-serve runs the multi-session proving service: an HTTP
// front end over the one request→proof executor (internal/prover,
// DESIGN.md §17) with multi-tenant bounded admission
// (per-tenant queues under a weighted deficit-round-robin scheduler,
// token-bucket rate limits, per-tenant 429s), a verified content-
// addressed proof cache, per-request deadlines and decode limits,
// per-request stats attribution, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	nocap-serve -addr 127.0.0.1:8080 -workers 4 -queue 8
//	nocap-serve -addr :8080 -timeout 60s -mem-mb 128 -drain 30s
//	nocap-serve -tenant-keys tenants.json -cache-mb 64
//	nocap-serve -data-dir /var/lib/nocap -journal-max-mb 64 -job-retention 24h
//	nocap-serve -data-dir /var/lib/nocap -batch-window 5ms -batch-max 8
//
// Tenancy (DESIGN.md §12): -tenant-keys names a JSON keyfile
// ({"tenants":[{"id":"acme","key":"...","weight":4,...}]}) mapping
// static API keys (X-API-Key or Authorization: Bearer) to tenants with
// weights and quotas. Requests without a key run as the anonymous
// "default" tenant, whose limits the -tenant-default-* flags set.
// Unknown keys are 401.
//
// Endpoints:
//
//	POST   /prove     {"circuit":"synthetic","n":1024,"reps":1}
//	POST   /verify    {"circuit":"synthetic","n":1024,"proof_b64":"..."}
//	POST   /jobs      async prove (requires -data-dir) → 202 + job id
//	GET    /jobs/{id} poll a job; stats + proof size once done, the
//	                  proof payload itself only with ?proof=1
//	DELETE /jobs/{id} cancel a job
//	GET    /healthz   liveness: 200 whenever the process is up
//	GET    /readyz    readiness: 503 while recovering, draining, or the
//	                  job breaker is open
//	GET    /metrics   Prometheus text: admission/latency counters, the
//	                  five-stage kernel breakdown, arena behavior, and
//	                  (with -data-dir) job/journal/breaker gauges
//
// With -data-dir the server keeps a durable job journal there: jobs
// accepted before a crash or restart are recovered and re-run on the
// next start (DESIGN.md §11). -journal-max-mb bounds the journal by
// compacting it into an atomic snapshot in the background, and
// -job-retention garbage-collects terminal jobs (and their proof
// files) older than that age at compaction time (DESIGN.md §13). If
// the data disk starts refusing writes the server enters degraded
// mode: POST /jobs answers a typed 503 {"code":"degraded"} with
// Retry-After while synchronous /prove, /verify, and job polls keep
// serving, and a background probe exits degraded mode on the first
// successful write.
//
// -batch-window enables the async batch planner (DESIGN.md §15):
// queued jobs for the same tenant with the same (circuit, n, reps) key
// arriving within the window coalesce into one batched attempt, capped
// at -batch-max jobs, and prove through a shared-structure plan that
// computes the per-statement setup once. Member proofs are
// byte-identical to solo proofs; the batch is charged its full size
// against the tenant's fairness account. /metrics grows nocap_batch_*
// counters and the nocap_batch_size gauge.
//
// Every server with -data-dir dispatches async attempts through one
// coordinator (DESIGN.md §16); -cluster exposes it to nocap-worker
// nodes over /cluster/* (unencrypted HTTP/2) with lease-based
// reassignment — a worker that dies mid-proof forfeits its lease after
// -lease-ttl and the attempt is refunded and re-dispatched. With zero
// live workers the coordinator proves in-process, exactly as a server
// without -cluster always does (-local-fallback, default) — on the same
// -workers pool and tenant scheduler as every other prove — or sheds
// new jobs with a typed 503 {"code":"no_workers"} and an EWMA
// Retry-After.
// -cluster-key authenticates the worker plane.
//
// On SIGINT/SIGTERM the server stops admitting (503), lets queued and
// in-flight requests finish (cancelling them if -drain expires), then
// exits. Exit codes follow the taxonomy (DESIGN.md §7): 0 clean, 2
// usage, otherwise 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nocap"
	"nocap/internal/server"
	"nocap/internal/tenant"
	"nocap/internal/zkerr"
)

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent proving workers")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2×workers)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request proving deadline cap")
	memMB := flag.Int("mem-mb", 64, "per-request memory envelope, MB (bodies and decoded proofs)")
	maxN := flag.Int("max-n", 1<<16, "largest circuit size parameter a request may ask for")
	reps := flag.Int("reps", 0, "default soundness repetitions (0 = library default)")
	hash := flag.String("hash", "sha3", "hash engine for proving/verification: "+strings.Join(nocap.HashEngineNames(), "|"))
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	dataDir := flag.String("data-dir", "", "durable job journal directory; enables the async /jobs API")
	jobWorkers := flag.Int("job-workers", 0, "async job dispatchers (0 = 2, or 8 with -cluster)")
	jobPending := flag.Int("job-pending", 0, "max non-terminal async jobs before 429 (0 = jobs default)")
	jobAttempts := flag.Int("job-attempts", 0, "per-job attempt budget (0 = jobs default)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive internal failures that trip the job breaker (0 = jobs default)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "job breaker open→half-open delay (0 = jobs default)")
	journalMaxMB := flag.Int("journal-max-mb", 0, "journal size that triggers snapshot+compaction, MB (0 = never compact)")
	jobRetention := flag.Duration("job-retention", 0, "terminal jobs older than this are GC'd at compaction (0 = keep forever)")
	tenantKeys := flag.String("tenant-keys", "", "JSON keyfile of tenants (id, key, weight, quotas); empty = single anonymous tenant")
	tenantWeight := flag.Int("tenant-default-weight", 1, "default tenant's DRR weight (also the fallback for keyfile tenants)")
	tenantRate := flag.Float64("tenant-default-rate", 0, "default tenant's requests/sec token-bucket rate (0 = unlimited)")
	tenantBurst := flag.Int("tenant-default-burst", 0, "default tenant's token-bucket burst (0 = rate+1)")
	tenantMaxJobs := flag.Int("tenant-default-max-jobs", 0, "default tenant's live async-job cap (0 = unlimited)")
	cacheMB := flag.Int("cache-mb", 64, "content-addressed proof cache budget, MB (0 disables)")
	batchWindow := flag.Duration("batch-window", 0, "coalesce same-key async jobs arriving within this window into one batched attempt (0 disables; requires -data-dir)")
	batchMax := flag.Int("batch-max", 8, "max jobs per coalesced batch")
	clusterMode := flag.Bool("cluster", false, "expose the coordinator: lease async jobs to nocap-worker nodes over /cluster/* (requires -data-dir)")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "cluster assignment lease TTL; a lease not heartbeat-renewed within it is reassigned")
	localFallback := flag.Bool("local-fallback", true, "with zero live workers, prove in-process; false sheds new jobs with a typed 503 {\"code\":\"no_workers\"}")
	clusterKey := flag.String("cluster-key", "", "shared secret workers must present as X-Cluster-Key (empty = open worker plane)")
	flag.Parse()

	if *workers < 1 {
		return zkerr.Usagef("-workers must be positive, got %d", *workers)
	}
	if *queue < 0 {
		return zkerr.Usagef("-queue must be non-negative, got %d", *queue)
	}
	if *timeout <= 0 || *drain <= 0 {
		return zkerr.Usagef("-timeout and -drain must be positive")
	}
	if *reps < 0 || *reps > 64 {
		return zkerr.Usagef("-reps must be in [0,64], got %d", *reps)
	}
	if *jobWorkers < 0 || *jobPending < 0 || *jobAttempts < 0 || *breakerThreshold < 0 || *breakerCooldown < 0 {
		return zkerr.Usagef("job flags must be non-negative")
	}
	if *batchWindow < 0 || *batchMax < 1 {
		return zkerr.Usagef("-batch-window must be non-negative and -batch-max positive")
	}
	if *journalMaxMB < 0 || *jobRetention < 0 {
		return zkerr.Usagef("-journal-max-mb and -job-retention must be non-negative")
	}
	if *jobRetention > 0 && *journalMaxMB == 0 {
		// Retention GC only runs during compaction; a retention with no
		// compaction trigger would silently never fire.
		return zkerr.Usagef("-job-retention requires -journal-max-mb")
	}
	if *dataDir != "" {
		// Fail fast on an unusable data dir instead of serving 503s: the
		// background open would only discover this after the listener is up.
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return zkerr.Usagef("-data-dir %s: %v", *dataDir, err)
		}
	} else if *jobWorkers > 0 || *jobPending > 0 || *jobAttempts > 0 || *breakerThreshold > 0 || *breakerCooldown > 0 || *journalMaxMB > 0 || *jobRetention > 0 || *batchWindow > 0 {
		return zkerr.Usagef("job flags require -data-dir")
	}
	if *clusterMode && *dataDir == "" {
		return zkerr.Usagef("-cluster requires -data-dir (the coordinator owns the job journal)")
	}
	if !*clusterMode && (*clusterKey != "" || !*localFallback) {
		return zkerr.Usagef("-cluster-key and -local-fallback=false require -cluster")
	}
	if *leaseTTL <= 0 {
		return zkerr.Usagef("-lease-ttl must be positive, got %v", *leaseTTL)
	}

	if *tenantWeight < 1 {
		return zkerr.Usagef("-tenant-default-weight must be >= 1, got %d", *tenantWeight)
	}
	if *tenantRate < 0 || *tenantBurst < 0 || *tenantMaxJobs < 0 || *cacheMB < 0 {
		return zkerr.Usagef("tenant and cache flags must be non-negative")
	}
	var tenants []tenant.Config
	if *tenantKeys != "" {
		var err error
		if tenants, err = tenant.LoadKeyfile(*tenantKeys); err != nil {
			return zkerr.Usagef("-tenant-keys: %v", err)
		}
	}

	params := nocap.DefaultParams()
	if *reps > 0 {
		params.Reps = *reps
	}
	params, err := nocap.WithHashEngine(params, *hash)
	if err != nil {
		return err
	}
	s, err := server.New(server.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MemoryBudgetMB: *memMB,
		MaxN:           *maxN,
		Params:         params,

		Tenants: tenants,
		TenantDefaults: tenant.Config{
			Weight:     *tenantWeight,
			RatePerSec: *tenantRate,
			Burst:      *tenantBurst,
			MaxJobs:    *tenantMaxJobs,
		},
		CacheMB: *cacheMB,

		DataDir:             *dataDir,
		JobWorkers:          *jobWorkers,
		JobMaxPending:       *jobPending,
		JobMaxAttempts:      *jobAttempts,
		JobBreakerThreshold: *breakerThreshold,
		JobBreakerCooldown:  *breakerCooldown,
		JobJournalMaxMB:     *journalMaxMB,
		JobRetention:        *jobRetention,
		JobBatchWindow:      *batchWindow,
		JobBatchMax:         *batchMax,

		ClusterEnabled:       *clusterMode,
		ClusterKey:           *clusterKey,
		ClusterLeaseTTL:      *leaseTTL,
		ClusterLocalFallback: *localFallback,
	})
	if err != nil {
		return zkerr.Usagef("tenant config: %v", err)
	}
	bound, err := s.Listen()
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	log.Printf("nocap-serve: listening on %s (%d workers, queue %d, timeout %v, mem %d MB)",
		bound, *workers, *queue, *timeout, *memMB)
	if len(tenants) > 0 {
		log.Printf("nocap-serve: %d keyed tenants loaded from %s", len(tenants), *tenantKeys)
	}
	if *cacheMB > 0 {
		log.Printf("nocap-serve: proof cache enabled (%d MB budget)", *cacheMB)
	}
	if *dataDir != "" {
		log.Printf("nocap-serve: async jobs enabled, journal in %s", *dataDir)
		if *journalMaxMB > 0 {
			log.Printf("nocap-serve: journal compaction at %d MB (retention %v)", *journalMaxMB, *jobRetention)
		}
	}
	if *clusterMode {
		log.Printf("nocap-serve: coordinator mode (lease TTL %v, local fallback %v); point nocap-worker at http://%s", *leaseTTL, *localFallback, bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	log.Printf("nocap-serve: draining (budget %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		log.Printf("nocap-serve: drain budget expired; in-flight runs were cancelled")
	}
	if err := <-serveErr; err != nil {
		return err
	}
	log.Printf("nocap-serve: drained cleanly")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nocap-serve: %v\n", err)
		if errors.Is(err, zkerr.ErrUsage) {
			fmt.Fprintln(os.Stderr, "run with -h for usage")
		}
		os.Exit(zkerr.ExitCode(err))
	}
}
