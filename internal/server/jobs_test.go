package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/jobs"
	"nocap/internal/leakcheck"
	"nocap/internal/prover"
	"nocap/internal/zkerr"
)

// jobsConfig is testConfig plus a data directory for the async API.
func jobsConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.JobBackoffBase = 2 * time.Millisecond
	cfg.JobBackoffMax = 10 * time.Millisecond
	return cfg
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, client *http.Client, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitJob POSTs a job and returns its id.
func submitJob(t *testing.T, client *http.Client, base string, req ProveRequest) string {
	t.Helper()
	status, body := postJSON(t, client, base+"/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", status, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("job response: %v: %s", err, body)
	}
	// The 202 body is a snapshot taken after the accepted record is
	// durable, so a fast dispatcher may already have moved the job on —
	// but only to a state a live, uncancelled job can be in.
	if jr.ID == "" || !slices.Contains([]string{"accepted", "running", "done", "failed"}, jr.State) {
		t.Fatalf("job response %s", body)
	}
	return jr.ID
}

// getJob GETs /jobs/{id} with the given query string ("" or "?proof=1")
// and decodes the response.
func getJob(t *testing.T, client *http.Client, base, id, query string) JobResponse {
	t.Helper()
	resp, err := client.Get(base + "/jobs/" + id + query)
	if err != nil {
		t.Fatalf("GET /jobs/%s%s: %v", id, query, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s%s: status %d: %s", id, query, resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("job body: %v: %s", err, body)
	}
	return jr
}

// pollJob GETs /jobs/{id} until the job is terminal. Status polls never
// carry the proof payload (pinned here for every polling test); once
// the job is done, the proof is fetched exactly once with ?proof=1 and
// that full response is returned.
func pollJob(t *testing.T, client *http.Client, base, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr := getJob(t, client, base, id, "")
		if jr.ProofB64 != "" {
			t.Fatalf("status poll for %s carried the proof payload (%d b64 bytes)", id, len(jr.ProofB64))
		}
		switch jr.State {
		case "done":
			return getJob(t, client, base, id, "?proof=1")
		case "failed", "cancelled":
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsAsyncLifecycle drives the full async path with the REAL
// prover: submit, poll to done, decode the proof, and verify it through
// the synchronous endpoint — proving the journaled payload round-trips
// into a cryptographically valid proof with per-run stats attached.
func TestJobsAsyncLifecycle(t *testing.T) {
	_, base, _ := startServer(t, jobsConfig(t))
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	jr := pollJob(t, client, base, id)
	if jr.State != "done" {
		t.Fatalf("job %s: state %s (err %q code %q)", id, jr.State, jr.Error, jr.Code)
	}
	if jr.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", jr.Attempts)
	}
	if jr.ProofB64 == "" || jr.ProofBytes == 0 {
		t.Fatalf("done job without proof: %+v", jr)
	}
	// Per-run collector stats surfaced on completion.
	var stats prover.Stats
	if err := json.Unmarshal(jr.Stats, &stats); err != nil {
		t.Fatalf("job stats: %v: %s", err, jr.Stats)
	}
	if stats.Stages["sumcheck"].Calls == 0 {
		t.Fatalf("job stats missing kernel work: %s", jr.Stats)
	}
	if stats.Arena.Outstanding != 0 {
		t.Fatalf("job leaked %d arena checkouts", stats.Arena.Outstanding)
	}
	// The async proof verifies through the sync endpoint.
	status, body := postJSON(t, client, base+"/verify",
		VerifyRequest{Circuit: "synthetic", N: 64, ProofB64: jr.ProofB64})
	if status != http.StatusOK || !strings.Contains(string(body), `"valid":true`) {
		t.Fatalf("async proof failed verification: %d %s", status, body)
	}
}

// TestJobsProofOnDemand pins the poll/payload split: GET /jobs/{id}
// answers status (state, attempts, proof_bytes) without the proof, and
// only ?proof=1 (or ?proof=true) pays the base64 transfer.
func TestJobsProofOnDemand(t *testing.T) {
	_, base, _ := startServer(t, jobsConfig(t))
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	jr := pollJob(t, client, base, id) // asserts polls are payload-free
	if jr.State != "done" || jr.ProofB64 == "" {
		t.Fatalf("job %s: state %s, proof present %v", id, jr.State, jr.ProofB64 != "")
	}
	// A plain GET after completion still omits the payload but keeps the
	// metadata a poller needs.
	plain := getJob(t, client, base, id, "")
	if plain.ProofB64 != "" {
		t.Fatalf("plain GET on done job returned the proof payload")
	}
	if plain.ProofBytes == 0 || plain.State != "done" {
		t.Fatalf("plain GET lost job metadata: %+v", plain)
	}
	if withProof := getJob(t, client, base, id, "?proof=true"); withProof.ProofB64 != jr.ProofB64 {
		t.Fatalf("?proof=true and ?proof=1 disagree")
	}
	if raw, err := base64.StdEncoding.DecodeString(jr.ProofB64); err != nil || len(raw) != jr.ProofBytes {
		t.Fatalf("proof_b64 decode: %v (got %d bytes, proof_bytes %d)", err, len(jr.ProofB64), jr.ProofBytes)
	}
}

// TestJobsValidationBeforeAccept: a request that could never prove gets
// a 400 at submit time, not an accepted job that fails later.
func TestJobsValidationBeforeAccept(t *testing.T) {
	_, base, _ := startServer(t, jobsConfig(t))
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)
	status, body := postJSON(t, client, base+"/jobs", ProveRequest{Circuit: "no-such-circuit", N: 64})
	if status != http.StatusBadRequest {
		t.Fatalf("bad circuit: status %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "usage" {
		t.Fatalf("bad circuit: want typed usage error, got %s", body)
	}
}

// TestJobsRetryThenSuccessHTTP injects one fault at the jobs-layer
// attempt point and asserts the retry is observable end-to-end:
// attempts > 1 on the polled job, retry counter in /metrics.
func TestJobsRetryThenSuccessHTTP(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{Point: "jobs.attempt.exec", Kind: faultinject.Error})
	_, base, _ := startServer(t, jobsConfig(t))
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	jr := pollJob(t, client, base, id)
	if jr.State != "done" {
		t.Fatalf("state %s (err %q), want done after retry", jr.State, jr.Error)
	}
	if jr.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", jr.Attempts)
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nocap_jobs_retries_total 1",
		"nocap_jobs_done_total 1",
		"nocap_jobs_accepted_total 1",
		"nocap_jobs_breaker_state 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobsCancelHTTP cancels a running job via DELETE and pins the
// typed 404/409 responses around it.
func TestJobsCancelHTTP(t *testing.T) {
	started := make(chan struct{}, 1)
	cfg := jobsConfig(t)
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return jobs.Result{}, ctx.Err()
	}
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	del := func(path string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodDelete, base+path, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}
	if status, body := del("/jobs/j-does-not-exist"); status != http.StatusNotFound ||
		!strings.Contains(string(body), `"code":"unknown-job"`) {
		t.Fatalf("DELETE unknown job: %d %s", status, body)
	}
	if status, body := del("/jobs/" + id); status != http.StatusAccepted {
		t.Fatalf("DELETE running job: %d %s", status, body)
	}
	jr := pollJob(t, client, base, id)
	if jr.State != "cancelled" {
		t.Fatalf("state %s, want cancelled", jr.State)
	}
	// Double-cancel is idempotent: the same terminal state comes back
	// with 200, not a conflict (DESIGN.md §12). Repeat it to pin that the
	// answer is stable, not first-call-only.
	for i := 0; i < 2; i++ {
		if status, body := del("/jobs/" + id); status != http.StatusOK ||
			!strings.Contains(string(body), `"state":"cancelled"`) {
			t.Fatalf("DELETE cancelled job (try %d): %d %s", i, status, body)
		}
	}
}

// TestJobsBreakerOpensAndSheds: consecutive internal failures trip the
// breaker; further submissions get a typed 503 with Retry-After, and
// /readyz reports the open breaker.
func TestJobsBreakerOpensAndSheds(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		return jobs.Result{}, zkerr.Internalf("backend broken")
	}
	cfg.JobMaxAttempts = 1
	cfg.JobBreakerThreshold = 2
	cfg.JobBreakerCooldown = time.Hour
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	for i := 0; i < 2; i++ {
		id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
		jr := pollJob(t, client, base, id)
		if jr.State != "failed" || jr.Code != "internal" {
			t.Fatalf("job %d: state %s code %q, want failed/internal", i, jr.State, jr.Code)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader([]byte(`{"circuit":"synthetic","n":64}`)))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with open breaker: status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "breaker-open" {
		t.Fatalf("breaker shed not typed: %s", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("breaker shed Retry-After %q", ra)
	}

	resp, err = client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"code":"breaker-open"`) {
		t.Fatalf("readyz with open breaker: %d %s", resp.StatusCode, body)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"nocap_jobs_breaker_state 1", "nocap_jobs_breaker_trips_total 1", "nocap_job_shed_breaker_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Liveness is unaffected by an open breaker.
	resp, err = client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with open breaker: %d, want 200", resp.StatusCode)
	}
}

// TestReadyzDuringRecovery holds journal replay with an injected delay
// and asserts readiness (and job submission) answer a typed 503 until
// recovery finishes, while liveness stays 200 throughout.
func TestReadyzDuringRecovery(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{
		Point: "jobs.recover.replay",
		Kind:  faultinject.Delay,
		Sleep: 300 * time.Millisecond,
	})
	s, base, _ := startServer(t, jobsConfig(t))
	client := &http.Client{Timeout: time.Minute}

	if !s.JobsRecovering() {
		t.Fatal("server not in recovery immediately after start")
	}
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"code":"recovering"`) {
		t.Fatalf("readyz during recovery: %d %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("readyz during recovery missing Retry-After")
	}
	status, body := postJSON(t, client, base+"/jobs", ProveRequest{Circuit: "synthetic", N: 64})
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), `"code":"recovering"`) {
		t.Fatalf("submit during recovery: %d %s", status, body)
	}
	resp, err = client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during recovery: %d, want 200 (liveness)", resp.StatusCode)
	}

	waitReady(t, client, base)
	id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	if jr := pollJob(t, client, base, id); jr.State != "done" {
		t.Fatalf("post-recovery job: %s", jr.State)
	}
}

// TestJobsDisabledWithoutDataDir pins the typed refusal when the server
// runs without -data-dir.
func TestJobsDisabledWithoutDataDir(t *testing.T) {
	_, base, _ := startServer(t, testConfig())
	client := &http.Client{Timeout: time.Minute}
	status, body := postJSON(t, client, base+"/jobs", ProveRequest{Circuit: "synthetic", N: 64})
	if status != http.StatusNotImplemented || !strings.Contains(string(body), `"code":"jobs-disabled"`) {
		t.Fatalf("jobs without data dir: %d %s", status, body)
	}
}

// TestJobsServerRestartRecovers is the server-level recovery story: a
// job in flight when one server shuts down completes under a second
// server over the same data directory.
func TestJobsServerRestartRecovers(t *testing.T) {
	snap := leakcheck.Take()
	dir := t.TempDir()

	cfg1 := testConfig()
	cfg1.DataDir = dir
	started := make(chan struct{}, 1)
	cfg1.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return jobs.Result{}, ctx.Err()
	}
	_, base1, stop1 := startServer(t, cfg1)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base1)
	id := submitJob(t, client, base1, ProveRequest{Circuit: "synthetic", N: 64})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started under server 1")
	}
	stop1()
	snap.CheckTimeout(t, 5*time.Second) // server 1 left nothing behind

	var attempts atomic.Int64
	cfg2 := testConfig()
	cfg2.DataDir = dir
	cfg2.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		attempts.Add(1)
		return jobs.Result{Proof: []byte("recovered-proof"), Stats: json.RawMessage(`{}`)}, nil
	}
	_, base2, _ := startServer(t, cfg2)
	waitReady(t, client, base2)
	jr := pollJob(t, client, base2, id)
	if jr.State != "done" {
		t.Fatalf("recovered job: state %s (err %q)", jr.State, jr.Error)
	}
	if !jr.Recovered {
		t.Fatal("job not flagged recovered after restart")
	}
	if attempts.Load() == 0 {
		t.Fatal("recovered job never re-executed")
	}
	want := base64.StdEncoding.EncodeToString([]byte("recovered-proof"))
	if jr.ProofB64 != want {
		t.Fatalf("recovered proof mismatch: %q", jr.ProofB64)
	}
}

// TestShutdownDrainDeadlineDoesNotStrandJobGate reproduces the leak the
// reviewer flagged: a shutdown whose drain deadline expires while async
// attempts are still queued behind a busy worker lets the workers exit
// with entries in s.jobs, and a manager dispatcher used to block in
// jobGate on <-j.done forever (with Manager.Close's drain goroutine
// pinned behind it). The shutdown sweep must release every waiter. The
// worker's quit-vs-queue select is scheduler-random, so the scenario
// runs several times to cover both arms.
func TestShutdownDrainDeadlineDoesNotStrandJobGate(t *testing.T) {
	snap := leakcheck.Take()
	for i := 0; i < 6; i++ {
		cfg := jobsConfig(t)
		cfg.Workers = 1
		cfg.QueueDepth = 2
		cfg.JobWorkers = 2
		started := make(chan struct{}, 4)
		cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			// Ignore cancellation long enough that the whole drain
			// (manager close included) hits its deadline with the second
			// attempt still parked in the admission queue.
			time.Sleep(120 * time.Millisecond)
			return jobs.Result{}, ctx.Err()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.JobsRecovering() {
			if time.Now().After(deadline) {
				t.Fatal("jobs manager never finished recovery")
			}
			time.Sleep(time.Millisecond)
		}
		mgr, err := s.jobsManager()
		if err != nil {
			t.Fatalf("jobs manager: %v", err)
		}
		for n := 0; n < 2; n++ {
			if _, err := mgr.Submit(jobs.Spec{Payload: json.RawMessage(`{}`)}); err != nil {
				t.Fatalf("Submit %d: %v", n, err)
			}
		}
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("first attempt never reached the worker")
		}
		for depth, _, _ := s.Queue(); depth == 0; depth, _, _ = s.Queue() {
			if time.Now().After(deadline) {
				t.Fatal("second attempt never queued")
			}
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_ = s.Shutdown(ctx) // deadline error is the point of the scenario
		cancel()
	}
	snap.CheckTimeout(t, 10*time.Second)
}

// TestStatusCodeTaxonomy is the satellite's table: every zkerr class
// (plus panic-recovered internals, deadline, cancel, and untyped
// errors) maps through statusFor/writeTaxonomyError to a stable
// (status, code) pair — the machine-readable contract clients and the
// loadgen assert against.
func TestStatusCodeTaxonomy(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	panicErr := func() (err error) {
		defer zkerr.RecoverTo(&err, "test")
		panic("boom")
	}()

	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"usage", zkerr.Usagef("bad flag"), http.StatusBadRequest, "usage"},
		{"malformed-proof", zkerr.Malformedf("truncated"), http.StatusBadRequest, "malformed-proof"},
		{"bad-commitment", zkerr.BadCommitmentf("geometry"), http.StatusBadRequest, "bad-commitment"},
		{"soundness", zkerr.Soundnessf("round check"), http.StatusUnprocessableEntity, "soundness-check-failed"},
		{"resource-limit", zkerr.Resourcef("too big"), http.StatusRequestEntityTooLarge, "resource-limit"},
		{"internal", zkerr.Internalf("invariant"), http.StatusInternalServerError, "internal"},
		{"panic-recovered", panicErr, http.StatusInternalServerError, "internal"},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
		{"wrapped-deadline", fmt.Errorf("prove: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline"},
		{"canceled", context.Canceled, http.StatusServiceUnavailable, "canceled"},
		{"untyped", errors.New("mystery"), http.StatusInternalServerError, "error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusFor(tc.err); got != tc.wantStatus {
				t.Errorf("statusFor = %d, want %d", got, tc.wantStatus)
			}
			rec := httptest.NewRecorder()
			s.writeTaxonomyError(rec, tc.err)
			if rec.Code != tc.wantStatus {
				t.Errorf("written status %d, want %d", rec.Code, tc.wantStatus)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body: %v: %s", err, rec.Body.String())
			}
			if er.Code != tc.wantCode {
				t.Errorf("code %q, want %q", er.Code, tc.wantCode)
			}
			if er.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestJobsDegradedModeHTTP drives the degraded-mode lifecycle over the
// wire: sustained journal-append failure flips the manager degraded,
// new POST /jobs answer a typed 503 "degraded" with Retry-After while
// synchronous /prove and polls of already-accepted jobs keep serving,
// /readyz stays 200 (with the state in the body) and /metrics report
// the transition — and once the disk heals, a probe write exits
// degraded mode without a restart.
func TestJobsDegradedModeHTTP(t *testing.T) {
	snap := leakcheck.Take()
	cfg := jobsConfig(t)
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		return jobs.Result{Proof: []byte("degraded-test-proof"), Stats: json.RawMessage(`{}`)}, nil
	}
	cfg.JobMaxAttempts = 1
	cfg.JobDegradedThreshold = 3
	cfg.JobProbeInterval = 10 * time.Millisecond
	_, base, stopServer := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	// A job completed while healthy: its poll must survive degradation.
	doneID := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
	if jr := pollJob(t, client, base, doneID); jr.State != "done" {
		t.Fatalf("healthy job: state %s (err %q)", jr.State, jr.Error)
	}

	// Sustained disk failure: every journal append fails (ENOSPC-style)
	// until disarmed.
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{
		Point: "jobs.journal.append",
		Kind:  faultinject.Error,
		Count: 1 << 30,
	})

	// The first JobDegradedThreshold submissions fail loudly (500
	// internal: the append itself errored); the next one is shed with
	// the typed degraded 503.
	for i := 0; i < cfg.JobDegradedThreshold; i++ {
		status, body := postJSON(t, client, base+"/jobs", ProveRequest{Circuit: "synthetic", N: 64})
		if status != http.StatusInternalServerError {
			t.Fatalf("submit %d during disk failure: status %d: %s", i, status, body)
		}
	}
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", strings.NewReader(`{"circuit":"synthetic","n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded submit: status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("degraded body: %v: %s", err, body)
	}
	if er.Code != "degraded" {
		t.Fatalf("degraded code %q: %s", er.Code, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}

	// The non-durable surface keeps working: sync prove, job polls.
	if status, pbody := postJSON(t, client, base+"/prove", ProveRequest{Circuit: "synthetic", N: 64}); status != http.StatusOK {
		t.Fatalf("sync /prove during degraded: status %d: %s", status, pbody)
	}
	if jr := getJob(t, client, base, doneID, ""); jr.State != "done" {
		t.Fatalf("poll during degraded: state %s", jr.State)
	}

	// Readiness stays 200 — only the durable path is down — but the body
	// and /metrics surface the state.
	rresp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rbody, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz during degraded: status %d: %s", rresp.StatusCode, rbody)
	}
	if !bytes.Contains(rbody, []byte(`"degraded":true`)) {
		t.Fatalf("/readyz body does not report degraded: %s", rbody)
	}
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"nocap_jobs_degraded 1", "nocap_job_shed_degraded_total 1", "nocap_jobs_degraded_entries_total 1"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics during degraded missing %q", want)
		}
	}

	// Disk heals: the next probe write succeeds and degraded mode exits
	// on its own — new submissions are accepted again.
	faultinject.Disarm()
	deadline := time.Now().Add(10 * time.Second)
	var recoveredID string
	for {
		status, sbody := postJSON(t, client, base+"/jobs", ProveRequest{Circuit: "synthetic", N: 64})
		if status == http.StatusAccepted {
			var jr JobResponse
			if err := json.Unmarshal(sbody, &jr); err != nil {
				t.Fatalf("recovered submit body: %v: %s", err, sbody)
			}
			recoveredID = jr.ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never recovered from degraded mode (last status %d: %s)", status, sbody)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if jr := pollJob(t, client, base, recoveredID); jr.State != "done" {
		t.Fatalf("post-recovery job: state %s (err %q)", jr.State, jr.Error)
	}
	mresp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "nocap_jobs_degraded 0") {
		t.Error("/metrics still reports degraded after recovery")
	}
	client.CloseIdleConnections()
	stopServer()
	snap.Check(t)
}

// TestJobsCompactionBoundsJournalHTTP exercises compaction through the
// server config surface: a tight record cap keeps the journal bounded
// while jobs churn, /metrics exposes the compaction counters, and a
// restart over the compacted state (snapshot + tail) recovers every
// terminal job.
func TestJobsCompactionBoundsJournalHTTP(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		return jobs.Result{Proof: []byte("compact-test-proof"), Stats: json.RawMessage(`{}`)}, nil
	}
	cfg.JobJournalMaxRecords = 10
	cfg.JobCompactCheck = 5 * time.Millisecond
	srv, base, stop := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)

	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		id := submitJob(t, client, base, ProveRequest{Circuit: "synthetic", N: 64})
		if jr := pollJob(t, client, base, id); jr.State != "done" {
			t.Fatalf("job %s: state %s (err %q)", id, jr.State, jr.Error)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		jm := srv.JobsMetrics()
		if jm.Compactions >= 1 && jm.JournalRecords < 2*cfg.JobJournalMaxRecords {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never compacted: %+v", jm)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"nocap_jobs_compactions_total", "nocap_jobs_snapshot_bytes", "nocap_jobs_journal_corrupt_records_total"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	stop()

	// Recovery over snapshot + tail: every job still polls done.
	cfg2 := cfg
	cfg2.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		t.Error("recovered terminal job re-executed")
		return jobs.Result{}, zkerr.Internalf("unexpected re-execution")
	}
	_, base2, _ := startServer(t, cfg2)
	waitReady(t, client, base2)
	for _, id := range ids {
		jr := getJob(t, client, base2, id, "?proof=1")
		if jr.State != "done" {
			t.Fatalf("job %s after compacting restart: state %s", id, jr.State)
		}
		proof, err := base64.StdEncoding.DecodeString(jr.ProofB64)
		if err != nil || string(proof) != "compact-test-proof" {
			t.Fatalf("job %s proof after restart: %q (%v)", id, proof, err)
		}
	}
}
