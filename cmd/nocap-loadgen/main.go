// Command nocap-loadgen hammers a nocap-serve instance with mixed
// traffic — proves, valid verifies, corrupt proofs, malformed JSON,
// oversized bodies, and client-cancelled requests — and checks that
// every answer is a complete, correctly-typed response: 200 with per-
// request stats, 400/413 with a taxonomy code, 429 when the admission
// queue sheds load. Anything else (an untyped error, a 5xx, a proof
// accepted that should not be) counts as a protocol violation and fails
// the run.
//
// With -addr pointing at a running server it is a plain load generator.
// With -addr "" (the default) it starts an in-process server, runs the
// same traffic over loopback, drains it, and additionally asserts the
// process-level invariants only visible from inside: zero leaked
// goroutines (internal/leakcheck) and the arena checkout balance back
// at its baseline. That self-contained mode is what `make serve-smoke`
// runs in CI.
//
// With -jobs (in-process only) the traffic instead exercises the
// durable async API: submit/poll/cancel over POST /jobs, plus a
// crash-window pass that parks jobs in flight, drains the server,
// tears the journal's final record in half the way a crash mid-append
// would, restarts against the same data directory, and checks every
// job lands in exactly one typed terminal state with no lost or
// duplicated proofs. The same leak and arena invariants apply.
//
// With -batch (in-process only) the server runs the async batch
// planner (DESIGN.md §15) with two equal-weight keyed tenants and ZK
// disabled: each tenant pins a solo baseline proof, then all clients
// burst same-key jobs so the planner coalesces them into shared-
// structure batched attempts. Every batched proof must be byte-
// identical to its tenant's solo proof, /metrics must show real
// coalescing, and the scheduler ledger must show zero cross-tenant
// fairness regression — on top of the journal, leak, and arena
// invariants.
//
// With -cluster (in-process only) the server runs as a cluster
// coordinator (DESIGN.md §16) with local fallback off, a short lease
// TTL, and two in-process worker nodes proving with the real prover.
// Two equal-weight keyed tenants drive async jobs through the worker
// plane; mid-run, worker w0 is Kill()ed while holding a lease — node
// death, no goodbye — and a replacement node joins. The lease must
// expire and the parked attempt reassign with its budget refunded,
// clients must never see a 5xx, every admitted job of either tenant
// must finish, and the usual journal, leak, and arena invariants close
// the run. Cluster work never enters the server's DRR ledger, so
// cross-node weight order is gated by internal/cluster's
// TestClusterStrideFairness, not here.
//
// Every mode runs one lifecycle: boot an in-process server, drive the
// mode's traffic, check its own invariants, then finish (journal,
// report, process invariants).
//
// Usage:
//
//	nocap-loadgen                          # in-process smoke, 8 clients, 15s cap
//	nocap-loadgen -requests 64 -clients 8
//	nocap-loadgen -addr 127.0.0.1:8080 -duration 30s
//	nocap-loadgen -jobs -requests 40       # async-jobs + crash-recovery smoke
//	nocap-loadgen -batch -requests 48      # batched-proving byte-identity + fairness soak
//	nocap-loadgen -cluster -requests 32    # distributed proving + node-death soak
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"nocap"
	"nocap/internal/leakcheck"
)

func run() (failed bool, err error) {
	addr := flag.String("addr", "", "server address; empty starts an in-process server")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	requests := flag.Int("requests", 64, "total requests to send (0 = until -duration)")
	duration := flag.Duration("duration", 15*time.Second, "time budget for the run")
	n := flag.Int("n", 256, "circuit size parameter for prove/verify traffic")
	workers := flag.Int("workers", 4, "in-process mode: proving workers")
	queue := flag.Int("queue", 4, "in-process mode: admission queue depth")
	jobsMode := flag.Bool("jobs", false, "exercise the durable async /jobs API (in-process only), including a crash-window journal-tear restart")
	tenants := flag.Int("tenants", 0, "multi-tenant fairness mode (in-process only): N keyed tenants, tenant t0 weighted 4x")
	skew := flag.String("skew", "zipf", "-tenants traffic skew: zipf (t0-heavy) or uniform")
	batchMode := flag.Bool("batch", false, "batched-proving soak (in-process only): coalesced async jobs must prove byte-identical to solo with no cross-tenant fairness regression")
	clusterMode := flag.Bool("cluster", false, "distributed-proving soak (in-process only): coordinator + worker nodes with a mid-run node kill; no client may see a 5xx")
	flag.Parse()

	s := &soak{
		clients: *clients, requests: *requests, duration: *duration,
		n: *n, workers: *workers, queue: *queue,
		params: nocap.TestParams(),
		h:      &harness{client: &http.Client{Timeout: 2 * time.Minute}, n: *n, outcomes: make(map[string]*outcome)},
	}
	var name string
	var mode func() (bool, error)
	switch {
	case *clusterMode:
		name, mode = "cluster", s.cluster
	case *batchMode:
		name, mode = "batch", s.batch
	case *jobsMode:
		name, mode = "jobs", s.jobs
	case *tenants > 0:
		name, mode = "tenants", func() (bool, error) { return s.tenants(*tenants, *skew) }
	}
	if mode != nil && *addr != "" {
		return true, fmt.Errorf("-%s mode is in-process only; drop -addr", name)
	}
	if name == "tenants" {
		if *tenants < 2 {
			return true, fmt.Errorf("-tenants needs at least 2 tenants to say anything about fairness")
		}
		if *skew != "zipf" && *skew != "uniform" {
			return true, fmt.Errorf("-skew must be zipf or uniform, got %q", *skew)
		}
	}
	if mode == nil {
		mode = s.traffic
	}
	if *addr != "" {
		s.h.base = "http://" + *addr
		return mode()
	}

	s.snap = leakcheck.Take()
	s.arenaBefore = nocap.ReadProveStats().Arena
	if s.dir, err = os.MkdirTemp("", "nocap-loadgen-"); err != nil {
		return true, err
	}
	defer os.RemoveAll(s.dir)
	return mode()
}

func main() {
	failed, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocap-loadgen: %v\n", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "nocap-loadgen: FAIL")
		os.Exit(1)
	}
	fmt.Println("nocap-loadgen: PASS")
}
