package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// journalSteps reads a data directory's journal and returns each job's
// record sequence as "state/attempt" steps in journal order.
func journalSteps(t *testing.T, dir string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string][]string{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r struct {
			Job     string `json:"job"`
			State   string `json:"state"`
			Attempt int    `json:"attempt"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		steps[r.Job] = append(steps[r.Job], r.State+"/"+strconv.Itoa(r.Attempt))
	}
	return steps
}

// TestProvePathsAgree: the same (circuit, n, reps) request through
// every path that proves on a request's behalf — synchronous POST
// /prove, an async solo job, a member of an async batch, a job a cluster
// coordinator with no workers proves in-process, and a job dispatched to
// a cluster worker node — yields byte-identical proof bytes and a
// non-empty per-run stage breakdown. ZK masking is off (masked proofs
// are randomized by design); everything else is the production
// pipeline. All rows run internal/prover's one recipe, and a standalone
// server and a cluster in fallback take the same route to it: their
// journals record the same steps for the same job.
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

	fallback := clusterConfig(t)
	fallback.Params = params
	fallback.ClusterLocalFallback = true
	_, fallbackBase, _ := startServer(t, fallback)

	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, localBase)
	waitReady(t, client, coordBase)
	waitReady(t, client, fallbackBase)
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

		inProcess := pollJob(t, client, fallbackBase, submitJob(t, client, fallbackBase, req))
		rows = append(rows, row{"cluster fallback", inProcess.ProofB64, len(jobStages(t, inProcess))})
		want := []string{"accepted/0", "running/1", "done/1"}
		if got := journalSteps(t, local.DataDir)[solo.ID]; !slices.Equal(got, want) {
			t.Errorf("%v: standalone journal steps %v, want %v", req, got, want)
		}
		if got := journalSteps(t, fallback.DataDir)[inProcess.ID]; !slices.Equal(got, want) {
			t.Errorf("%v: cluster-fallback journal steps %v, want %v", req, got, want)
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
	if got := metricValue(t, client, fallbackBase, "nocap_cluster_local_fallbacks_total"); got != 2 {
		t.Fatalf("fallback row proved in-process %d times, want 2", got)
	}
}

// TestStandaloneExposesNoCluster: a standalone server runs the same
// coordinator a cluster does, but none of it shows — no worker plane, no
// h2c, no cluster block or series — and with zero nodes it proves
// in-process rather than shedding no_workers.
func TestStandaloneExposesNoCluster(t *testing.T) {
	_, base, _ := startServer(t, jobsConfig(t))
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	for _, path := range []string{"/cluster/poll", "/cluster/heartbeat", "/cluster/complete"} {
		if status, body := postJSON(t, client, base+path, map[string]string{"node": "n"}); status != http.StatusNotFound {
			t.Errorf("POST %s: %d %s, want 404", path, status, body)
		}
	}
	get := func(path string) (int, string) {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	if status, _ := get("/cluster/nodes"); status != http.StatusNotFound {
		t.Errorf("GET /cluster/nodes: %d, want 404", status)
	}
	if _, body := get("/healthz"); strings.Contains(body, "cluster") {
		t.Errorf("standalone healthz mentions the cluster: %s", body)
	}
	h2c := new(http.Protocols)
	h2c.SetUnencryptedHTTP2(true)
	if resp, err := (&http.Client{Transport: &http.Transport{Protocols: h2c}, Timeout: 5 * time.Second}).Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Errorf("standalone server answered an h2c request (%s)", resp.Proto)
	}

	if jr := pollJob(t, client, base, submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})); jr.State != "done" {
		t.Fatalf("standalone job: state %s (err %q), want done", jr.State, jr.Error)
	}
	if _, body := get("/metrics"); strings.Contains(body, "nocap_cluster_") {
		t.Error("standalone /metrics carries nocap_cluster_* series")
	}
}

// TestPoolShedIsNotANodeDeath: async attempts the worker pool sheds
// (their tenant's queue is full of sync traffic) cost nothing — no
// attempt, no retry, no lease reassignment, one running record however
// often the attempt is re-dispatched — and they do not hold another
// tenant's jobs up behind them in the dispatchers.
func TestPoolShedIsNotANodeDeath(t *testing.T) {
	cfg := keyedConfig()
	cfg.DataDir = t.TempDir()
	cfg.Workers = 1
	cfg.JobWorkers = 3 // two end up parked in beta's queue, one keeps retrying acme's
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		return jobs.Result{Proof: []byte("ok")}, nil
	}
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	// Occupy the only worker, then fill acme's depth-1 queue with a sync
	// prove: from here on the pool sheds everything of acme's.
	release := make(chan struct{})
	var released atomic.Bool
	releaseWorker := func() {
		if released.CompareAndSwap(false, true) {
			close(release)
		}
	}
	t.Cleanup(releaseWorker)
	blocker := &job{run: func() { <-release }, done: make(chan struct{})}
	if err := s.sched.Enqueue("default", blocker, 1); err != nil {
		t.Fatal(err)
	}
	waitWorkerBusy(t, s)
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		doJSON(t, client, http.MethodPost, base+"/prove", "key-acme", ProveRequest{Circuit: "synthetic", N: 64})
	}()
	waitTenantDepth(t, s, "acme", 1)

	submit := func(key string) string {
		status, body, _ := doJSON(t, client, http.MethodPost, base+"/jobs", key, ProveRequest{Circuit: "synthetic", N: 64})
		if status != http.StatusAccepted {
			t.Fatalf("POST /jobs as %q: %d %s", key, status, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		return jr.ID
	}
	keys := map[string]string{}
	for _, key := range []string{"key-acme", "key-acme", "key-beta", "key-beta"} {
		keys[submit(key)] = key
	}
	// The dispatchers meet acme's jobs first and are shed; beta's jobs
	// must still reach beta's queue while the worker is busy and acme's
	// keep being shed.
	waitTenantDepth(t, s, "beta", 2)
	sheds := func() (n int64) {
		for _, qs := range s.TenantStats() {
			if qs.ID == "acme" {
				n = qs.RejectedFull
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); sheds() < 5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("acme's attempts were shed %d times, want them re-dispatched into the full queue again and again", sheds())
		}
	}
	releaseWorker()
	<-blocker.done
	<-parked

	for id, key := range keys {
		var jr JobResponse
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			_, body, _ := doJSON(t, client, http.MethodGet, base+"/jobs/"+id, key, nil)
			if err := json.Unmarshal(body, &jr); err != nil {
				t.Fatalf("job body %s: %v", body, err)
			}
			if jr.State == "done" || jr.State == "failed" || jr.State == "cancelled" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, jr.State)
			}
		}
		if jr.State != "done" || jr.Attempts != 1 {
			t.Errorf("job %s (%s): state %s attempts %d (err %q), want done on attempt 1", id, key, jr.State, jr.Attempts, jr.Error)
		}
	}
	if m := s.JobsMetrics(); m.LeaseReassigns != 0 || m.Retries != 0 {
		t.Errorf("pool sheds were booked as lease_reassigns %d / retries %d, want 0 / 0", m.LeaseReassigns, m.Retries)
	}
	steps := journalSteps(t, cfg.DataDir)
	for id := range keys {
		if want := []string{"accepted/0", "running/1", "done/1"}; !slices.Equal(steps[id], want) {
			t.Errorf("job %s journal steps %v, want %v", id, steps[id], want)
		}
	}
}

// TestClusterLocalFallbackStaysInPool: with zero live workers and local
// fallback on, the coordinator's in-process proves run on the server's
// worker pool like every other prove — never more than Workers at once,
// through the tenant scheduler — instead of on the (up to 8) job
// dispatcher goroutines. Attempts the full pool sheds cost nothing, so
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
	shed := func() (n int64) {
		for _, q := range s.TenantStats() {
			n += q.RejectedFull
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); shed() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no in-process fallback attempt was ever shed by the full pool")
		}
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
	if got := s.coord.Metrics().LocalFallbacks; got < n {
		t.Errorf("local fallbacks = %d, want >= %d", got, n)
	}
	if got := s.JobsMetrics().LeaseReassigns; got != 0 {
		t.Errorf("pool sheds booked as %d lease reassignments in a process with no leases", got)
	}
}
