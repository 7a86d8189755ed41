package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"nocap"
	"nocap/internal/jobs"
	"nocap/internal/prover"
	"nocap/internal/tenant"
)

// jobStages decodes a done job's per-run stats block.
func jobStages(t *testing.T, jr JobResponse) map[string]prover.StageStats {
	t.Helper()
	if jr.State != "done" {
		t.Fatalf("job %s: state %s (err %q code %q)", jr.ID, jr.State, jr.Error, jr.Code)
	}
	var stats prover.Stats
	if err := json.Unmarshal(jr.Stats, &stats); err != nil {
		t.Fatalf("job %s stats %q: %v", jr.ID, jr.Stats, err)
	}
	return stats.Stages
}

// TestProvePathsAgree: the same (circuit, n, reps) request through
// every path that proves on a request's behalf — synchronous POST
// /prove, an async solo job, a member of an async batch, and a job
// dispatched to a cluster worker node — yields byte-identical proof
// bytes and a non-empty per-run stage breakdown. ZK masking is off
// (masked proofs are randomized by design); everything else is the
// production pipeline. All four rows run internal/prover's one recipe;
// before it existed the worker row carried no stats at all.
func TestProvePathsAgree(t *testing.T) {
	params := nocap.TestParams()
	params.PCS.ZK = false

	local := jobsConfig(t)
	local.Params = params
	local.JobBatchWindow = 150 * time.Millisecond
	local.JobBatchMax = 4
	_, localBase, _ := startServer(t, local)

	coord := clusterConfig(t)
	coord.Params = params
	_, coordBase, _ := startServer(t, coord)

	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, localBase)
	waitReady(t, client, coordBase)
	startInProcessWorker(t, coordBase, "node-a", params, "")
	waitLiveNodes(t, client, coordBase, 1)

	for _, req := range []ProveRequest{
		{Circuit: "synthetic", N: 256},
		{Circuit: "auction", N: 8, Reps: 2},
	} {
		type row struct {
			path   string
			proof  string
			stages int
		}
		var rows []row

		status, body := postJSON(t, client, localBase+"/prove", req)
		if status != http.StatusOK {
			t.Fatalf("%v: sync prove: %d: %s", req, status, body)
		}
		var pr ProveResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{"sync /prove", pr.ProofB64, len(pr.Stats.Stages)})

		// A lone job's group closes with one member and takes the solo
		// executor.
		solo := pollJob(t, client, localBase, submitJob(t, client, localBase, req))
		rows = append(rows, row{"async solo", solo.ProofB64, len(jobStages(t, solo))})

		// JobBatchMax same-key jobs flush as one batched attempt.
		batchesBefore := metricValue(t, client, localBase, "nocap_batches_total")
		ids := make([]string, local.JobBatchMax)
		for i := range ids {
			ids[i] = submitJob(t, client, localBase, req)
		}
		for _, id := range ids {
			jr := pollJob(t, client, localBase, id)
			rows = append(rows, row{"async batch member", jr.ProofB64, len(jobStages(t, jr))})
		}
		if got := metricValue(t, client, localBase, "nocap_batches_total") - batchesBefore; got != 1 {
			t.Fatalf("%v: %d batched attempts for %d same-key jobs, want 1", req, got, len(ids))
		}

		remote := pollJob(t, client, coordBase, submitJob(t, client, coordBase, req))
		rows = append(rows, row{"cluster worker", remote.ProofB64, len(jobStages(t, remote))})

		for _, r := range rows {
			if r.proof == "" || r.proof != rows[0].proof {
				t.Errorf("%v: %s proof differs from %s (%d vs %d b64 bytes)", req, r.path, rows[0].path, len(r.proof), len(rows[0].proof))
			}
			if r.stages == 0 {
				t.Errorf("%v: %s reported no per-run stages", req, r.path)
			}
		}
	}
	if got := metricValue(t, client, coordBase, "nocap_cluster_local_fallbacks_total"); got != 0 {
		t.Fatalf("cluster row proved in-process %d times, want every job on the worker", got)
	}
}

// TestClusterLocalFallbackStaysInPool: with zero live workers and local
// fallback on, the coordinator's in-process proves run on the server's
// worker pool like every other prove — never more than Workers at once,
// through the tenant scheduler — instead of on the (up to 8) job
// dispatcher goroutines. Attempts the full pool sheds are refunded, so
// no job pays an attempt for waiting.
func TestClusterLocalFallbackStaysInPool(t *testing.T) {
	const n = 6
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	cfg := clusterConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.ClusterLocalFallback = true
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			if old := peak.Load(); cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		select {
		case <-release:
		case <-ctx.Done():
			return jobs.Result{}, ctx.Err()
		}
		return jobs.Result{Proof: []byte("ok")}, nil
	}
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	}
	// One attempt holds the only worker and one waits in the depth-1
	// queue, so the rest must be shed by the pool — and refunded.
	deadline := time.Now().Add(10 * time.Second)
	for s.JobsMetrics().LeaseReassigns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no in-process fallback attempt was ever shed by the full pool")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		jr := pollJob(t, client, base, id)
		if jr.State != "done" || jr.Attempts != 1 {
			t.Errorf("job %s: state %s attempts %d (err %q), want done after exactly 1 charged attempt", id, jr.State, jr.Attempts, jr.Error)
		}
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak concurrent in-process proves = %d with Workers=1", got)
	}
	for _, q := range s.TenantStats() {
		if q.ID == tenant.DefaultID && q.Dequeued != n {
			t.Errorf("tenant scheduler dequeued %d fallback attempts, want %d", q.Dequeued, n)
		}
	}
	if got := s.ClusterMetrics().LocalFallbacks; got < n {
		t.Errorf("local fallbacks = %d, want >= %d", got, n)
	}
}
