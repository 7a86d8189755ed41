package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nocap"
	"nocap/internal/cluster"
	"nocap/internal/leakcheck"
	"nocap/internal/prover"
)

// clusterConfig is jobsConfig plus coordinator mode with a short lease
// TTL so node-death tests converge fast.
func clusterConfig(t *testing.T) Config {
	t.Helper()
	cfg := jobsConfig(t)
	cfg.ClusterEnabled = true
	cfg.ClusterLeaseTTL = 300 * time.Millisecond
	cfg.ClusterLocalFallback = false
	cfg.ClusterSeed = 1
	return cfg
}

// startInProcessWorker attaches an in-process prover node (the same
// cluster.Worker the CLI runs) to a coordinator server, using the given
// params so proofs are comparable with the server's own local path.
func startInProcessWorker(t *testing.T, base, id string, params nocap.Params, key string) *cluster.Worker {
	t.Helper()
	node := prover.New(prover.Config{Params: params, Timeout: time.Minute})
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: base,
		ID:          id,
		Slots:       2,
		Key:         key,
		PollWait:    200 * time.Millisecond,
		RetryBase:   5 * time.Millisecond,
		Exec:        node.Exec,
		BatchExec:   node.BatchExec,
		Seed:        7,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = w.Stop(ctx)
	})
	return w
}

// waitLiveNodes polls /healthz until the cluster map reports n live
// nodes.
func waitLiveNodes(t *testing.T, client *http.Client, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var body struct {
				Cluster struct {
					LiveNodes int `json:"live_nodes"`
				} `json:"cluster"`
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if json.Unmarshal(data, &body) == nil && body.Cluster.LiveNodes >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d live cluster nodes", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue scrapes one counter/gauge value from /metrics.
func metricValue(t *testing.T, client *http.Client, base, name string) int64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics", name)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClusterServerWorkerProves: a job submitted to a coordinator-mode
// server is proved by a worker node, and the resulting proof is
// byte-identical to the same request proved through the server's own
// synchronous local path — placement must not change proof bytes. ZK
// masking is disabled for this test (masked proofs are randomized by
// design); everything else is the production pipeline.
func TestClusterServerWorkerProves(t *testing.T) {
	snap := leakcheck.Take()
	cfg := clusterConfig(t)
	cfg.Params.PCS.ZK = false
	_, base, stop := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	w := startInProcessWorker(t, base, "node-a", cfg.Params, "")
	waitLiveNodes(t, client, base, 1)

	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 256})
	jr := pollJob(t, client, base, id)
	if jr.State != "done" {
		t.Fatalf("job state = %s (err %q code %q)", jr.State, jr.Error, jr.Code)
	}
	if jr.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", jr.Attempts)
	}
	if jr.ProofB64 == "" {
		t.Fatal("done job carried no proof")
	}

	// The sync path proves locally even in cluster mode; deterministic
	// params mean the worker's bytes must match exactly.
	status, body := postJSON(t, client, base+"/prove", ProveRequest{Circuit: "synthetic", N: 256})
	if status != http.StatusOK {
		t.Fatalf("local prove: %d: %s", status, body)
	}
	var pr ProveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ProofB64 != jr.ProofB64 {
		t.Fatal("worker-proved bytes differ from the local path for identical params")
	}

	// And it verifies.
	status, body = postJSON(t, client, base+"/verify", VerifyRequest{Circuit: "synthetic", N: 256, ProofB64: jr.ProofB64})
	if status != http.StatusOK {
		t.Fatalf("verify: %d: %s", status, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("worker-proved proof rejected: %s %s", vr.Code, vr.Error)
	}

	if got := metricValue(t, client, base, "nocap_cluster_completions_total"); got < 1 {
		t.Fatalf("cluster completions = %d, want >= 1", got)
	}

	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Stop(wctx); err != nil {
		t.Errorf("worker stop: %v", err)
	}
	stop()
	snap.Check(t)
}

// TestClusterServerNoWorkers: with -local-fallback=false and zero live
// workers, POST /jobs is shed with a typed 503 no_workers and a
// Retry-After hint; the synchronous paths keep serving locally.
func TestClusterServerNoWorkers(t *testing.T) {
	cfg := clusterConfig(t)
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	data, _ := json.Marshal(ProveRequest{Circuit: "synthetic", N: 64})
	resp, err := client.Post(base+"/jobs", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs with no workers: status %d: %s", resp.StatusCode, body)
	}
	var er struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "no_workers" {
		t.Fatalf("error code = %q (%s), want no_workers", er.Code, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("no Retry-After header on no_workers shed")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	if got := metricValue(t, client, base, "nocap_job_shed_no_workers_total"); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// The synchronous prove path is untouched by cluster admission.
	proveOnce(t, client, base)
}

// TestClusterServerLocalFallback: with -local-fallback (the default),
// zero workers degrades to in-process execution instead of shedding.
func TestClusterServerLocalFallback(t *testing.T) {
	cfg := clusterConfig(t)
	cfg.ClusterLocalFallback = true
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	jr := pollJob(t, client, base, id)
	if jr.State != "done" {
		t.Fatalf("job state = %s (err %q), want done via local fallback", jr.State, jr.Error)
	}
	if got := metricValue(t, client, base, "nocap_cluster_local_fallbacks_total"); got < 1 {
		t.Fatalf("local fallbacks = %d, want >= 1", got)
	}
}

// TestClusterServerKeyAuth: the worker plane is fenced by the shared
// cluster key; a worker with the wrong key is rejected with 401 and
// counted, one with the right key proves jobs.
func TestClusterServerKeyAuth(t *testing.T) {
	cfg := clusterConfig(t)
	cfg.ClusterKey = "s3cret"
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	req, _ := http.NewRequest(http.MethodPost, base+"/cluster/poll", strings.NewReader(`{"node":"rogue"}`))
	req.Header.Set("X-Cluster-Key", "wrong")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("poll with wrong key: %d, want 401", resp.StatusCode)
	}

	startInProcessWorker(t, base, "node-a", cfg.Params, "s3cret")
	waitLiveNodes(t, client, base, 1)
	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	if jr := pollJob(t, client, base, id); jr.State != "done" {
		t.Fatalf("job state = %s, want done", jr.State)
	}
	if got := metricValue(t, client, base, "nocap_auth_rejected_total"); got < 1 {
		t.Fatalf("auth rejects = %d, want >= 1", got)
	}
}

// buildWorkerBinary compiles cmd/nocap-worker once per test run.
func buildWorkerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nocap-worker")
	cmd := exec.Command("go", "build", "-o", bin, "nocap/cmd/nocap-worker")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build nocap-worker: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			t.Fatal("go.mod not found above test working directory")
		}
	}
}

// TestClusterServerSubprocessSIGKILL is the end-to-end node-death gate:
// a REAL nocap-worker process is SIGKILLed mid-proof. The coordinator
// must expire its lease, refund the attempt, mark the node dead, and
// let a replacement process finish the job — with the client seeing
// exactly one terminal state, attempts=1, and a proof that verifies.
func TestClusterServerSubprocessSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := buildWorkerBinary(t)
	cfg := clusterConfig(t)
	// The worker CLI proves with DefaultParams; match it server-side so
	// /verify accepts the proof.
	cfg.Params = nocap.DefaultParams()
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: 2 * time.Minute}
	waitReady(t, client, base)

	startWorkerProc := func(id string) *exec.Cmd {
		cmd := exec.Command(bin, "-coordinator", base, "-id", id, "-slots", "1", "-poll-wait", "200ms")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		})
		return cmd
	}

	victim := startWorkerProc("victim")
	waitLiveNodes(t, client, base, 1)

	// n=16384 proves in hundreds of milliseconds — a wide-open window to
	// SIGKILL after observing the dispatch.
	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 16384})
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, client, base, "nocap_cluster_dispatches_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched to the victim")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL, mid-proof
		t.Fatal(err)
	}
	_ = victim.Wait()

	startWorkerProc("survivor")
	jr := pollJob(t, client, base, id)
	if jr.State != "done" {
		t.Fatalf("job state = %s (err %q code %q), want done after reassignment", jr.State, jr.Error, jr.Code)
	}
	if jr.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the SIGKILLed attempt must be refunded)", jr.Attempts)
	}
	if got := metricValue(t, client, base, "nocap_cluster_lease_expiries_total"); got < 1 {
		t.Fatalf("lease expiries = %d, want >= 1", got)
	}
	if got := metricValue(t, client, base, "nocap_jobs_lease_reassigns_total"); got < 1 {
		t.Fatalf("jobs lease reassigns = %d, want >= 1", got)
	}

	status, body := postJSON(t, client, base+"/verify", VerifyRequest{Circuit: "synthetic", N: 16384, ProofB64: jr.ProofB64})
	if status != http.StatusOK {
		t.Fatalf("verify: %d: %s", status, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("reassigned proof rejected: %s %s", vr.Code, vr.Error)
	}
}

// TestClusterServerBodyCap: the worker plane reads no request body past
// the memory envelope times the largest unit — an oversized completion
// answers a typed 413 and leaves the coordinator untouched.
func TestClusterServerBodyCap(t *testing.T) {
	cfg := clusterConfig(t)
	cfg.MemoryBudgetMB = 1
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	for _, path := range []string{"/cluster/poll", "/cluster/heartbeat", "/cluster/complete"} {
		body := `{"node":"node-a","lease":"lease-1","pad":"` + strings.Repeat("x", 1<<20) + `"}`
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var er ErrorResponse
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(data, &er) != nil || er.Code != "resource-limit" {
			t.Errorf("POST %s with a body over the cap: %d %s, want 413 resource-limit", path, resp.StatusCode, data)
		}
	}
	if m := s.coord.Metrics(); len(m.Nodes) != 0 || m.Polls != 0 || m.Heartbeats != 0 || m.Duplicates != 0 {
		t.Errorf("oversized requests reached the coordinator: %+v", m)
	}
	// A body inside the cap is served.
	status, data := postJSON(t, client, base+"/cluster/poll", cluster.PollRequest{Node: "node-a", WaitMS: 1})
	if status != http.StatusOK {
		t.Fatalf("in-cap poll: %d %s", status, data)
	}
}

// TestClusterServerRequiresDataDir pins the config contract: cluster
// mode without a journal has nowhere to refund attempts to.
func TestClusterServerRequiresDataDir(t *testing.T) {
	cfg := testConfig()
	cfg.ClusterEnabled = true
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted ClusterEnabled without DataDir")
	} else if !strings.Contains(err.Error(), "DataDir") {
		t.Fatalf("err = %v, want a DataDir explanation", err)
	}
}

// TestClusterServerHealthz pins the cluster block in /healthz.
func TestClusterServerHealthz(t *testing.T) {
	cfg := clusterConfig(t)
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var body map[string]any
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	cl, ok := body["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cluster block: %s", data)
	}
	for _, k := range []string{"nodes", "live_nodes", "live_leases", "queued_units", "local_fallback"} {
		if _, ok := cl[k]; !ok {
			t.Errorf("healthz cluster block missing %q: %s", k, data)
		}
	}
	if got := fmt.Sprint(cl["local_fallback"]); got != "false" {
		t.Errorf("local_fallback = %s, want false", got)
	}
}
