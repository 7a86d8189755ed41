package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocap"
	"nocap/internal/cluster"
	"nocap/internal/faultinject"
	"nocap/internal/jobs"
	"nocap/internal/leakcheck"
	"nocap/internal/prover"
	"nocap/internal/server"
	"nocap/internal/tenant"
)

// soak is one run: its settings and the state its lifecycle shares.
type soak struct {
	clients, requests int
	duration          time.Duration
	n, workers, queue int
	params            nocap.Params

	h *harness
	// snap and arenaBefore are the process baseline of an in-process
	// run; snap is nil when driving an external server.
	snap        *leakcheck.Snapshot
	arenaBefore nocap.ArenaStats
	// dir holds the in-process run's data directories.
	dir string
}

// boot starts an in-process server on a loopback port, waits until it
// reports ready, and points the harness at it. cfg carries only what
// the mode changes; boot fills in the settings every soak shares.
func (s *soak) boot(cfg server.Config) (*server.Server, error) {
	cfg.Addr, cfg.Workers, cfg.QueueDepth, cfg.MemoryBudgetMB = "127.0.0.1:0", s.workers, s.queue, 8
	cfg.Params = s.params
	cfg.JobBackoffBase, cfg.JobBackoffMax = 5*time.Millisecond, 50*time.Millisecond
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	bound, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	s.h.base = "http://" + bound.String()
	fmt.Printf("nocap-loadgen: in-process server on %s (%d workers, queue %d, %d tenants, data dir %q)\n",
		bound, s.workers, s.queue, len(cfg.Tenants), cfg.DataDir)
	return srv, s.h.waitReady(10 * time.Second)
}

var trafficMix = []string{
	"prove", "prove", "verify", "verify", "corrupt", "malformed", "oversized", "cancel",
}

// jobTrafficMix drives -jobs runs: mostly full submit→poll→done cycles,
// with cancels and malformed submissions mixed in.
var jobTrafficMix = []string{
	"job-prove", "job-prove", "job-prove", "job-cancel", "job-bad",
}

// traffic is the default mode: the mixed synchronous traffic, against
// an in-process server or the one at -addr.
func (s *soak) traffic() (bool, error) {
	var srv *server.Server
	if s.snap != nil {
		var err error
		if srv, err = s.boot(server.Config{}); err != nil {
			return true, err
		}
	}
	seed, err := s.h.seedProof()
	if err != nil {
		return true, err
	}
	return s.finish(srv, "", s.mixed(trafficMix, seed), false, "")
}

// mixed drives the kinds of mix in rotation; each client pauses now and
// then for a few milliseconds so arrivals interleave.
func (s *soak) mixed(mix []string, seed string) time.Duration {
	rngs := make([]*rand.Rand, s.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(c)))
	}
	return drive(s.clients, s.requests, s.duration, func(c, i int) {
		s.h.fire(mix[i%len(mix)], seed)
		if rngs[c].Intn(4) == 0 {
			time.Sleep(time.Duration(rngs[c].Intn(5)) * time.Millisecond)
		}
	})
}

// fire sends one request of the given kind and records the outcome.
func (h *harness) fire(kind string, seedProof string) {
	ok := []int{http.StatusOK}
	switch kind {
	case "prove":
		var proof string
		h.expect(kind, http.MethodPost, "/prove", "", proveBody(h.n), ok, proved(&proof))
	case "verify":
		h.expect(kind, http.MethodPost, "/verify", "", verifyBody(h.n, seedProof), ok, verdict(true))
	case "corrupt":
		c := []byte(seedProof)
		i := len(c) / 2
		if c[i] == 'A' {
			c[i] = 'B'
		} else {
			c[i] = 'A'
		}
		// Corruption may break framing (a typed 400) instead of failing
		// a soundness check (a 200 naming the failure).
		h.expect(kind, http.MethodPost, "/verify", "", verifyBody(h.n, string(c)), []int{http.StatusOK, http.StatusBadRequest}, verdict(false))
	case "malformed":
		h.expect(kind, http.MethodPost, "/prove", "", []byte("{definitely not json"), []int{http.StatusBadRequest}, typed)
	case "oversized":
		big := `{"circuit":"synthetic","n":64,"proof_b64":"` + strings.Repeat("A", 9<<20) + `"}`
		h.expect(kind, http.MethodPost, "/verify", "", []byte(big), []int{http.StatusRequestEntityTooLarge}, typed)
	case "cancel":
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, "POST", h.base+"/prove", bytes.NewReader(proveBody(4*h.n)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := h.client.Do(req)
		if err == nil {
			resp.Body.Close() // finished before the cancel landed; fine
		}
		// Either way the server must survive; violations show up as
		// failures in the other kinds or the final invariants.
		h.record(kind, false, "")
	case "job-prove":
		if id, ok := h.submitJobAs(kind, h.n, ""); ok {
			h.finishJob(kind, id, "", "")
		}
	case "job-cancel":
		id, ok := h.submitJobAs(kind, 4*h.n, "")
		// 202 means the cancel landed on a running job, 200 that the job
		// was already cancelled when the cancel was applied, 409 that it
		// raced to done/failed first. All three are legal — anything else
		// is not.
		if !ok || !h.send(kind, http.MethodDelete, "/jobs/"+id, "", nil,
			[]int{http.StatusAccepted, http.StatusOK, http.StatusConflict}, typed) {
			return
		}
		info, err := h.pollJobAs(id, time.Minute, "")
		switch {
		case err != nil:
			h.record(kind, false, err.Error())
		case info.State != string(jobs.StateCancelled) && info.State != string(jobs.StateDone):
			h.record(kind, false, fmt.Sprintf("cancelled job %s ended %q (code %q)", id, info.State, info.Code))
		default:
			h.record(kind, false, "")
		}
	case "job-bad":
		// Validation happens before the journal: a bad spec must be a
		// synchronous typed 400, never an accepted job that later fails.
		h.expect(kind, http.MethodPost, "/jobs", "", []byte(`{"circuit":"no-such-circuit","n":64}`), []int{http.StatusBadRequest}, typed)
	}
}

// tenants is the -tenants mode: an in-process server with N keyed
// tenants (t0 carries DRR weight 4, the rest weight 1), skewed traffic
// (zipf concentrates most load on t0), and fairness assertions over the
// scheduler's ledger on top of the usual typed-response, leak, and arena
// invariants:
//
//   - light tenants are never shed by t0's backlog (zero queue-full
//     429s on their queues — per-tenant isolation),
//   - every light-tenant request admitted is served (no starvation),
//   - light tenants do not queue dramatically longer than the heavy
//     tenant that is causing all the contention.
func (s *soak) tenants(nTenants int, skew string) (bool, error) {
	cfgs := make([]tenant.Config, nTenants)
	for i := range cfgs {
		w := 1
		depth := s.clients // a light tenant can absorb every client at once
		if i == 0 {
			w = 4
			depth = s.queue // the heavy tenant's queue is the one meant to overflow
		}
		cfgs[i] = tenant.Config{ID: fmt.Sprintf("t%d", i), Key: fmt.Sprintf("key-t%d", i), Weight: w, QueueDepth: depth}
	}
	srv, err := s.boot(server.Config{Tenants: cfgs})
	if err != nil {
		return true, err
	}
	seed, err := s.h.seedProof()
	if err != nil {
		return true, err
	}
	rngs := make([]*rand.Rand, s.clients)
	zipfs := make([]*rand.Zipf, s.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(c) + 1))
		// Zipf rank 0 is tenant t0: the heavy hitter.
		zipfs[c] = rand.NewZipf(rngs[c], 1.5, 1, uint64(nTenants-1))
	}
	elapsed := drive(s.clients, s.requests, s.duration, func(c, i int) {
		ti := int(zipfs[c].Uint64())
		if skew == "uniform" {
			ti = rngs[c].Intn(nTenants)
		}
		kind := "prove"
		if i%3 == 2 {
			kind = "verify"
		}
		s.h.fireTenant(cfgs[ti], kind, seed)
	})
	failed := s.ledger(srv.TenantStats(), cfgs, "", "t0")
	return s.finish(srv, "", elapsed, failed, fmt.Sprintf("tenants run clean (%d tenants, %s skew)", nTenants, skew))
}

// fireTenant sends one prove or verify as tenant t. Outcomes are
// recorded under the tenant's ID so the fairness report reads per
// tenant, and a 429 naming any OTHER tenant is a protocol violation —
// quota errors must never bleed across tenants.
func (h *harness) fireTenant(t tenant.Config, kind, seedProof string) {
	path, body := "/prove", proveBody(h.n)
	if kind == "verify" {
		path, body = "/verify", verifyBody(h.n, seedProof)
	}
	resp, data, err := h.call(http.MethodPost, path, t.Key, body)
	shed, problem := classify(resp, data, err, []int{http.StatusOK}, nil)
	if shed && problem == "" {
		var er server.ErrorResponse
		_ = json.Unmarshal(data, &er) // classify found it typed, so it decodes
		if er.Tenant != t.ID {
			problem = fmt.Sprintf("429 for tenant %s blamed on %q: cross-tenant quota bleed", t.ID, er.Tenant)
		}
	}
	h.record(t.ID, shed, problem)
}

// jobs is the -jobs mode: an in-process server with a durable data dir,
// async submit/poll/cancel traffic, then a crash-window pass that parks
// jobs in flight, drains the server (crash-equivalent: interrupted
// attempts leave no terminal record), tears the journal's final record
// in half, restarts against the same directory, and checks every job
// comes back with exactly one typed terminal state. The durability soak
// follows on a data dir of its own.
func (s *soak) jobs() (bool, error) {
	cfg := server.Config{DataDir: filepath.Join(s.dir, "jobs")}
	srv, err := s.boot(cfg)
	if err != nil {
		return true, err
	}
	elapsed := s.mixed(jobTrafficMix, "")

	// Crash window: park a few jobs in flight and drain mid-run. The
	// drain is deliberately crash-equivalent — interrupted attempts
	// revert in memory without terminal journal records — and the tear
	// below adds the torn write a real crash can leave mid-append.
	var crashIDs []string
	for i := 0; i < 3; i++ {
		if id, ok := s.h.submitJobAs("job-crash", 4*s.n, ""); ok {
			crashIDs = append(crashIDs, id)
		}
	}
	if err := drain(srv); err != nil {
		return true, fmt.Errorf("drain before crash window: %w", err)
	}
	journal := filepath.Join(cfg.DataDir, "journal.jsonl")
	if err := tearJournal(journal); err != nil {
		return true, fmt.Errorf("tear journal: %w", err)
	}
	if srv, err = s.boot(cfg); err != nil {
		return true, fmt.Errorf("restart after crash window: %w", err)
	}

	// The restarted server must have noticed exactly the one tear.
	s.h.expect("job-crash", http.MethodGet, "/metrics", "", nil, []int{http.StatusOK}, metricsSay(func(v []int64) string {
		if v[0] != 1 {
			return fmt.Sprintf("restarted server reported %d torn journal records, want exactly 1", v[0])
		}
		return ""
	}, "nocap_jobs_torn_records_total"))

	// Every crash-window job must land in exactly one typed terminal
	// state: done (recovered and re-proved, or proved before the drain),
	// or a typed 404 if the torn record was its own accepted record —
	// tearing one record can lose at most one job.
	notFound := 0
	for _, id := range crashIDs {
		if resp, data, err := s.h.call(http.MethodGet, "/jobs/"+id, "", nil); err == nil && resp.StatusCode == http.StatusNotFound {
			notFound++
			s.h.record("job-crash", false, typed(resp, data))
			continue
		}
		s.h.finishJob("job-crash", id, "", "")
	}
	if notFound > 1 {
		s.h.record("job-crash", false, fmt.Sprintf("%d jobs lost, but tearing one record can lose at most one", notFound))
	}
	if err := drain(srv); err != nil {
		return true, fmt.Errorf("final drain: %w", err)
	}

	// Durable-state lifecycle soak (DESIGN.md §13): compaction keeps the
	// journal bounded with zero lost terminal states, and sustained disk
	// failure degrades — then recovers — the durable path only.
	if err := s.durability(); err != nil {
		return true, err
	}
	return s.finish(nil, journal, elapsed, false, "")
}

// durability runs the durable-state lifecycle passes on a fresh data
// directory (DESIGN.md §13):
//
//  1. Compaction soak — a tight journal record cap with a fast
//     compaction tick while jobs churn. The journal must stay bounded,
//     compactions must actually happen, and a restart over the
//     compacted state (snapshot + tail) must recover every terminal
//     job with byte-identical proofs: zero lost terminal states.
//  2. Degraded-mode pass — injected journal-append failure (the
//     ENOSPC equivalent) must fail the first DegradedThreshold
//     submissions loudly, then flip POST /jobs to a typed 503
//     "degraded" with Retry-After while synchronous /prove and polls
//     of done jobs keep serving; disarming the fault must exit
//     degraded mode through the background probe with no restart.
func (s *soak) durability() error {
	const recordCap = 16
	const degradedThreshold = 3
	cfg := server.Config{
		DataDir:              filepath.Join(s.dir, "durable"),
		JobJournalMaxRecords: recordCap,
		JobCompactCheck:      10 * time.Millisecond,
		JobDegradedThreshold: degradedThreshold,
		JobProbeInterval:     10 * time.Millisecond,
	}
	srv, err := s.boot(cfg)
	if err != nil {
		return fmt.Errorf("durability soak boot: %w", err)
	}

	// Pass 1: churn enough jobs that the journal overruns its cap
	// several times over, keeping every proof for the restart check.
	proofs := make(map[string]string)
	var ids []string
	for i := 0; i < 20; i++ {
		if id, ok := s.h.submitJobAs("job-compact", s.n, ""); ok {
			if proof := s.h.finishJob("job-compact", id, "", ""); proof != "" {
				ids = append(ids, id)
				proofs[id] = proof
			}
		}
	}
	var jm jobs.Metrics
	if eventually(15*time.Second, func() bool {
		jm = srv.JobsMetrics()
		return jm.Compactions >= 1 && jm.JournalRecords < 2*recordCap
	}) {
		fmt.Printf("nocap-loadgen: %d compactions, journal at %d records (cap %d), %d B snapshot\n",
			jm.Compactions, jm.JournalRecords, recordCap, jm.SnapshotBytes)
	} else {
		s.h.record("job-compact", false,
			fmt.Sprintf("journal never compacted under cap: %d compactions, %d records", jm.Compactions, jm.JournalRecords))
	}
	if err := drain(srv); err != nil {
		return fmt.Errorf("drain before compacted restart: %w", err)
	}

	// Restart over snapshot + tail: every terminal job must come back
	// with the exact proof bytes it finished with.
	if srv, err = s.boot(cfg); err != nil {
		return fmt.Errorf("restart over compacted state: %w", err)
	}
	for _, id := range ids {
		s.h.finishJob("job-compact", id, "", proofs[id])
	}

	// Pass 2: sustained disk failure. All workers are idle (every job is
	// terminal), so the only journal writes are the submissions below
	// and, once degraded, the recovery probe.
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{
		Point: "jobs.journal.append",
		Kind:  faultinject.Error,
		Count: 1 << 30,
	})
	body := proveBody(s.n)
	for i := 0; i < degradedThreshold; i++ {
		s.h.expect("job-degraded", http.MethodPost, "/jobs", "", body, []int{http.StatusInternalServerError}, typed)
	}
	s.h.expect("job-degraded", http.MethodPost, "/jobs", "", body, []int{http.StatusServiceUnavailable},
		func(resp *http.Response, data []byte) string {
			var er server.ErrorResponse
			switch {
			case resp.Header.Get("Retry-After") == "":
				return "degraded 503 missing Retry-After"
			case json.Unmarshal(data, &er) != nil || er.Code != "degraded":
				return fmt.Sprintf("degraded 503 code %q", er.Code)
			}
			return ""
		})
	// The non-durable surface must not notice: sync prove and polls of
	// already-terminal jobs keep answering 200.
	var proof string
	s.h.expect("job-degraded", http.MethodPost, "/prove", "", body, []int{http.StatusOK}, proved(&proof))
	if len(ids) > 0 {
		s.h.finishJob("job-degraded", ids[0], "", proofs[ids[0]])
	}

	// Disk heals: the probe's first successful write exits degraded mode
	// and submissions are accepted again, with the job running to done.
	faultinject.Disarm()
	var id, last string
	if eventually(10*time.Second, func() bool {
		resp, data, err := s.h.call(http.MethodPost, "/jobs", "", body)
		shed, problem := classify(resp, data, err, []int{http.StatusAccepted}, accepted(&id))
		last = fmt.Sprintf("shed %v %s", shed, problem)
		return !shed && problem == ""
	}) {
		s.h.finishJob("job-degraded", id, "", "")
	} else {
		s.h.record("job-degraded", false, "server never recovered from degraded mode (last answer: "+last+")")
	}
	return drain(srv)
}

// equalTenants returns two equal-weight keyed tenants whose queues can
// hold every client's job plus the shared queue.
func (s *soak) equalTenants() []tenant.Config {
	return []tenant.Config{
		{ID: "t0", Key: "key-t0", Weight: 1, QueueDepth: s.clients + s.queue},
		{ID: "t1", Key: "key-t1", Weight: 1, QueueDepth: s.clients + s.queue},
	}
}

// batch is the -batch mode: an in-process server with the async batch
// planner on (DESIGN.md §15), two equal-weight keyed tenants, and ZK
// disabled so proofs are deterministic. Each tenant first proves one job
// solo (a singleton group bypasses BatchExec), then all clients burst
// same-key jobs for both tenants. Every batched proof must be
// byte-identical to its tenant's solo proof, coalescing must actually
// have happened (batch counters on /metrics), and the scheduler ledger
// must show no cross-tenant fairness regression: no queue-full sheds, no
// stranded work, no wait-time divergence under equal load. The usual
// journal, leak, and arena invariants close the run.
func (s *soak) batch() (bool, error) {
	// ZK off so batched output can be byte-compared against the solo
	// path. The plan never shares witness randomness, so this only makes
	// the equality checkable — it does not paper over a leak.
	s.params.PCS.ZK = false
	cfgs := s.equalTenants()
	dir := filepath.Join(s.dir, "batch")
	srv, err := s.boot(server.Config{
		Tenants:        cfgs,
		DataDir:        dir,
		JobBatchWindow: 20 * time.Millisecond,
		JobBatchMax:    8,
	})
	if err != nil {
		return true, err
	}

	// Per-tenant solo baselines: a lone job's group times out alone and
	// proves through the solo Exec path, pinning the reference bytes.
	solo := make([]string, len(cfgs))
	for ti, t := range cfgs {
		if id, ok := s.h.submitJobAs("batch-"+t.ID, s.n, t.Key); ok {
			solo[ti] = s.h.finishJob("batch-"+t.ID, id, t.Key, "")
		}
		if solo[ti] == "" {
			return true, fmt.Errorf("solo baseline for %s failed: %v", t.ID, s.h.problems)
		}
	}

	// Burst: the clients alternate tenants submitting the same job key,
	// so the planner sees coalescing opportunities under contention.
	ids := make([][]string, len(cfgs))
	var mu sync.Mutex
	start := time.Now()
	drive(s.clients, s.requests, s.duration, func(_, i int) {
		ti := i % len(cfgs)
		if id, ok := s.h.submitJobAs("batch-"+cfgs[ti].ID, s.n, cfgs[ti].Key); ok {
			mu.Lock()
			ids[ti] = append(ids[ti], id)
			mu.Unlock()
		}
	})
	// Every admitted job must land done with the solo proof bytes: the
	// shared-structure plan may amortize work, never change output — and
	// batching one tenant's jobs must not strand the other's.
	for ti, tenantIDs := range ids {
		for _, id := range tenantIDs {
			s.h.finishJob("batch-"+cfgs[ti].ID, id, cfgs[ti].Key, solo[ti])
		}
	}
	elapsed := time.Since(start)

	// The run only says something if coalescing actually happened.
	s.h.expect("batch-metrics", http.MethodGet, "/metrics", "", nil, []int{http.StatusOK}, metricsSay(func(v []int64) string {
		if v[0] < 1 || v[1] < 1 {
			return fmt.Sprintf("no coalescing observed (%d batches, %d amortized saves): widen -batch window or raise -clients", v[0], v[1])
		}
		fmt.Printf("nocap-loadgen: %d batches coalesced, %d member setups amortized away\n", v[0], v[1])
		return ""
	}, "nocap_batches_total", "nocap_batch_amortized_saves_total"))

	failed := s.ledger(srv.TenantStats(), cfgs, "batch-", "")
	return s.finish(srv, filepath.Join(dir, "journal.jsonl"), elapsed, failed, "batch run clean (byte-identical proofs, fairness intact)")
}

// cluster is the -cluster mode: the in-process server runs as a cluster
// coordinator (DESIGN.md §16) with local fallback off (the Config zero
// value) and a short lease TTL, and two in-process worker nodes prove
// with the real prover over the h2c worker plane. Two equal-weight keyed
// tenants drive async jobs end to end; mid-run, worker w0 is Kill()ed
// while it provably holds a lease (its exec is trapped first), and a
// replacement node joins. The soak asserts:
//
//   - zero 5xx ever reaches a client — every submit is a 202 (or a
//     typed 429 shed) and every poll a 200; the node death is absorbed
//     entirely by lease expiry + reassignment,
//   - the parked attempt is refunded and re-proved (lease-expiry and
//     reassign counters move; local fallback stays at zero),
//   - every admitted job of either tenant runs to done (no starvation),
//   - the drained journal holds at most one terminal record per job,
//   - zero leaked goroutines and a balanced arena.
//
// Cluster units execute on worker nodes under the coordinator's stride
// scheduler and never enter the server's DRR ledger, so cross-node
// weight order is gated by internal/cluster's TestClusterStrideFairness.
func (s *soak) cluster() (bool, error) {
	const leaseTTL = 500 * time.Millisecond
	cfgs := s.equalTenants()
	dir := filepath.Join(s.dir, "cluster")
	srv, err := s.boot(server.Config{
		Tenants:         cfgs,
		DataDir:         dir,
		ClusterEnabled:  true,
		ClusterLeaseTTL: leaseTTL,
		ClusterSeed:     1,
	})
	if err != nil {
		return true, err
	}

	// The nodes prove with the real prover — the same Params the
	// coordinator would use in-process, fitted per circuit.
	node := prover.New(prover.Config{Params: s.params, Timeout: time.Minute})

	// w0's exec can be "trapped": once armed, its next assignment parks
	// until the node dies. That pins a lease on w0 at kill time, so the
	// death deterministically exercises expiry + reassignment instead of
	// racing the prover.
	var trap atomic.Bool
	var trapOnce sync.Once
	trapped := make(chan struct{})
	trapExec := func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		if trap.Load() {
			trapOnce.Do(func() { close(trapped) })
			<-ctx.Done()
			return jobs.Result{}, ctx.Err()
		}
		return node.Exec(ctx, spec)
	}
	startWorker := func(id string, exec jobs.Exec, seed int64) (*cluster.Worker, error) {
		w, werr := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: s.h.base,
			ID:          id,
			Slots:       2,
			PollWait:    200 * time.Millisecond,
			RetryBase:   5 * time.Millisecond,
			Exec:        exec,
			BatchExec:   node.BatchExec,
			Seed:        seed,
		})
		if werr != nil {
			return nil, werr
		}
		w.Start()
		return w, nil
	}
	w0, err := startWorker("w0", trapExec, 21)
	if err != nil {
		return true, err
	}
	w1, err := startWorker("w1", node.Exec, 22)
	if err != nil {
		return true, err
	}

	// A node only exists once its first poll lands; traffic before that
	// would be shed no_workers. Gate each phase on the health table.
	waitLive := func(want int) error {
		if !eventually(10*time.Second, func() bool {
			var body struct {
				Cluster struct {
					LiveNodes int `json:"live_nodes"`
				} `json:"cluster"`
			}
			resp, data, err := s.h.call(http.MethodGet, "/healthz", "", nil)
			return err == nil && resp.StatusCode == http.StatusOK &&
				json.Unmarshal(data, &body) == nil && body.Cluster.LiveNodes >= want
		}) {
			return fmt.Errorf("cluster never reached %d live nodes", want)
		}
		return nil
	}
	if err := waitLive(2); err != nil {
		return true, err
	}

	// Full submit→poll→done cycles as alternating tenants. Any non-202
	// submit (beyond a typed 429 shed) and any non-200 poll is recorded
	// as a violation — that is the zero-5xx assertion.
	fire := func(_, i int) {
		t := cfgs[i%len(cfgs)]
		if id, ok := s.h.submitJobAs("cluster-"+t.ID, s.n, t.Key); ok {
			s.h.finishJob("cluster-"+t.ID, id, t.Key, "")
		}
	}
	start := time.Now()
	drive(s.clients, s.requests/2, s.duration, fire)

	// Node death. Arm the trap, then queue enough work that w0's free
	// slots must pull an assignment; once it provably holds one, kill it
	// without a goodbye and bring up a replacement. The parked jobs must
	// still finish — through w1 or the replacement — after the lease
	// expires and the attempt is refunded.
	trap.Store(true)
	var victims [][2]string // id, tenant key
	for i := 0; i < 4; i++ {
		key := cfgs[i%len(cfgs)].Key
		if id, ok := s.h.submitJobAs("cluster-kill", 4*s.n, key); ok {
			victims = append(victims, [2]string{id, key})
		}
	}
	select {
	case <-trapped:
	case <-time.After(15 * time.Second):
		return true, fmt.Errorf("worker w0 never picked up a kill-window assignment")
	}
	w0.Kill()
	fmt.Printf("nocap-loadgen: killed worker w0 holding a lease; starting replacement w0b\n")
	w0b, err := startWorker("w0b", node.Exec, 23)
	if err != nil {
		return true, err
	}
	if err := waitLive(2); err != nil { // w1 + w0b; w0 decays to dead
		return true, err
	}
	for _, v := range victims {
		s.h.finishJob("cluster-kill", v[0], v[1], "")
	}

	// Second traffic phase over the reshaped fleet (w1 + w0b), within
	// what is left of the run's time budget.
	drive(s.clients, s.requests-s.requests/2, s.duration-time.Since(start), fire)
	elapsed := time.Since(start)

	// The run only says something if the death was actually absorbed by
	// the lease machinery — and never papered over by local fallback.
	s.h.expect("cluster-metrics", http.MethodGet, "/metrics", "", nil, []int{http.StatusOK}, metricsSay(func(v []int64) string {
		expiries, reassigns, fallbacks, completions := v[0], v[1], v[2], v[3]
		switch {
		case expiries < 1 || reassigns < 1:
			return fmt.Sprintf("node death left no trace (%d lease expiries, %d reassigns)", expiries, reassigns)
		case fallbacks != 0:
			return fmt.Sprintf("%d local fallbacks with fallback disabled", fallbacks)
		case completions < 1:
			return "no completions went through the worker plane"
		}
		fmt.Printf("nocap-loadgen: %d worker completions, %d lease expiries, %d attempt refunds, 0 local fallbacks\n",
			completions, expiries, reassigns)
		return ""
	}, "nocap_cluster_lease_expiries_total", "nocap_jobs_lease_reassigns_total",
		"nocap_cluster_local_fallbacks_total", "nocap_cluster_completions_total"))

	// Starvation-freedom, per tenant: under equal load every admitted
	// job must have run to done.
	failed := false
	for _, t := range cfgs {
		var okN, sent int64
		if o := s.h.outcomes["cluster-"+t.ID]; o != nil {
			okN, sent = o.ok, o.sent
		}
		if okN == 0 || okN != sent {
			failed = true
			fmt.Printf("FAIL: tenant %s finished %d of %d cluster jobs: starved under equal load\n", t.ID, okN, sent)
		}
	}

	// Tear down the fleet before the leak check: live workers drain,
	// the killed one just needs its goroutines reaped.
	stopCtx, stopCancel := context.WithTimeout(context.Background(), 15*time.Second)
	for _, w := range []*cluster.Worker{w1, w0b, w0} {
		if serr := w.Stop(stopCtx); serr != nil {
			failed = true
			fmt.Printf("FAIL: worker stop: %v\n", serr)
		}
	}
	stopCancel()
	return s.finish(srv, filepath.Join(dir, "journal.jsonl"), elapsed, failed, "cluster run clean (node death absorbed, zero 5xx)")
}
