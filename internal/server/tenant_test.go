package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/jobs"
	"nocap/internal/tenant"
)

// keyedConfig is testConfig plus two keyed tenants: acme (weight 4,
// small queue) and beta (defaults).
func keyedConfig() Config {
	cfg := testConfig()
	cfg.Tenants = []tenant.Config{
		{ID: "acme", Key: "key-acme", Weight: 4, QueueDepth: 1},
		{ID: "beta", Key: "key-beta"},
	}
	return cfg
}

// doJSON sends a JSON request with an optional API key and returns the
// status, body, and response headers.
func doJSON(t *testing.T, client *http.Client, method, url, key string, body any) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, resp.Header
}

func TestTenantAuth(t *testing.T) {
	s, base, _ := startServer(t, keyedConfig())
	client := &http.Client{Timeout: time.Minute}
	req := ProveRequest{Circuit: "synthetic", N: 64}

	// No key: anonymous default tenant, served normally.
	if status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "", req); status != http.StatusOK {
		t.Fatalf("anonymous prove: %d %s", status, body)
	}
	// Valid key: served.
	if status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "key-acme", req); status != http.StatusOK {
		t.Fatalf("keyed prove: %d %s", status, body)
	}
	// Unknown key: hard 401, not a silent demotion to the default tenant.
	status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "key-wrong", req)
	if status != http.StatusUnauthorized || !strings.Contains(string(body), `"code":"unauthorized"`) {
		t.Fatalf("unknown key: %d %s", status, body)
	}
	// Authorization: Bearer works too.
	breq, _ := http.NewRequest(http.MethodPost, base+"/prove", bytes.NewReader([]byte(`{"circuit":"synthetic","n":64}`)))
	breq.Header.Set("Content-Type", "application/json")
	breq.Header.Set("Authorization", "Bearer key-beta")
	resp, err := client.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer prove: %d", resp.StatusCode)
	}
	if m := s.Metrics(); m.AuthRejected != 1 {
		t.Fatalf("AuthRejected %d, want 1", m.AuthRejected)
	}
}

// TestTenantQueueIsolation pins the core isolation property: one
// tenant's saturated queue yields a 429 naming that tenant and never
// touches another tenant's admission.
func TestTenantQueueIsolation(t *testing.T) {
	cfg := keyedConfig()
	cfg.Workers = 1
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}

	// Occupy the only worker with a job enqueued directly through the
	// scheduler, so the HTTP queues below fill deterministically.
	release := make(chan struct{})
	released := false
	releaseWorker := func() {
		if !released {
			released = true
			close(release)
		}
	}
	// Registered after startServer's cleanup, so it runs first (LIFO) and
	// shutdown can drain even when an assertion bails out early.
	t.Cleanup(releaseWorker)
	blocker := &job{run: func() { <-release }, done: make(chan struct{})}
	if err := s.sched.Enqueue("default", blocker, 1); err != nil {
		t.Fatal(err)
	}
	waitWorkerBusy(t, s)

	// Fill acme's queue (depth 1) with a request that will block in admit.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		doJSON(t, client, http.MethodPost, base+"/prove", "key-acme", ProveRequest{Circuit: "synthetic", N: 64})
	}()
	waitTenantDepth(t, s, "acme", 1)

	// acme's next request is a per-tenant 429 with the quota headers.
	status, body, hdr := doJSON(t, client, http.MethodPost, base+"/prove", "key-acme", ProveRequest{Circuit: "synthetic", N: 64})
	if status != http.StatusTooManyRequests {
		t.Fatalf("acme overflow: %d %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "queue-full" || er.Tenant != "acme" {
		t.Fatalf("overflow body %s, want queue-full for acme", body)
	}
	if hdr.Get("X-Quota-Tenant") != "acme" || hdr.Get("X-Quota-Queue-Depth") != "1" ||
		hdr.Get("X-Quota-Weight") != "4" {
		t.Fatalf("quota headers %v", hdr)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer seconds >= 1", hdr.Get("Retry-After"))
	}

	// beta and the default tenant still admit: acme's backlog is not
	// theirs. Their requests queue up and complete once the worker frees.
	var others sync.WaitGroup
	for _, key := range []string{"key-beta", ""} {
		key := key
		others.Add(1)
		go func() {
			defer others.Done()
			status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", key, ProveRequest{Circuit: "synthetic", N: 64})
			if status != http.StatusOK {
				t.Errorf("tenant key %q under acme saturation: %d %s", key, status, body)
			}
		}()
	}
	waitTenantDepth(t, s, "beta", 1)
	waitTenantDepth(t, s, "default", 1)
	// Nothing but acme recorded a queue-full rejection.
	for _, qs := range s.TenantStats() {
		want := int64(0)
		if qs.ID == "acme" {
			want = 1
		}
		if qs.RejectedFull != want {
			t.Errorf("tenant %s RejectedFull %d, want %d", qs.ID, qs.RejectedFull, want)
		}
	}
	releaseWorker()
	<-blocker.done
	<-parked
	others.Wait()
}

func waitWorkerBusy(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := false
		for _, qs := range s.TenantStats() {
			if qs.Inflight > 0 {
				busy = true
			}
		}
		if busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitTenantDepth(t *testing.T, s *Server, id string, depth int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, qs := range s.TenantStats() {
			if qs.ID == id && qs.Depth >= depth {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never reached queue depth %d: %+v", id, depth, s.TenantStats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTenantRateLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []tenant.Config{
		// 1 token burst, negligible refill: the second request must be shed.
		{ID: "slow", Key: "key-slow", RatePerSec: 0.001, Burst: 1},
	}
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	req := ProveRequest{Circuit: "synthetic", N: 64}

	if status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "key-slow", req); status != http.StatusOK {
		t.Fatalf("first request: %d %s", status, body)
	}
	status, body, hdr := doJSON(t, client, http.MethodPost, base+"/prove", "key-slow", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: %d %s", status, body)
	}
	var er ErrorResponse
	json.Unmarshal(body, &er)
	if er.Code != "rate-limited" || er.Tenant != "slow" {
		t.Fatalf("rate-limit body %s", body)
	}
	if hdr.Get("X-RateLimit-Limit") != "0.001" || hdr.Get("X-RateLimit-Burst") != "1" {
		t.Fatalf("rate headers %v", hdr)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on rate-limit 429")
	}
	// The anonymous tenant is unlimited here: no bleed.
	if status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "", req); status != http.StatusOK {
		t.Fatalf("default tenant after slow's 429: %d %s", status, body)
	}
	if m := s.Metrics(); m.RejectedRateLimited != 1 {
		t.Fatalf("RejectedRateLimited %d, want 1", m.RejectedRateLimited)
	}
	metricsBody := getMetricsBody(t, client, base)
	if !strings.Contains(metricsBody, `nocap_tenant_rate_limited_total{tenant="slow"} 1`) {
		t.Error("per-tenant rate-limit counter missing from /metrics")
	}
}

func getMetricsBody(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

// TestProofCacheHTTP: the second identical prove is served from the
// cache — byte-identical, flagged cached:true — and the proof still
// verifies.
func TestProofCacheHTTP(t *testing.T) {
	cfg := testConfig()
	cfg.CacheMB = 4
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	req := ProveRequest{Circuit: "synthetic", N: 128}

	var first, second ProveResponse
	status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "", req)
	if status != http.StatusOK {
		t.Fatalf("first prove: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first prove claims cached")
	}
	status, body, _ = doJSON(t, client, http.MethodPost, base+"/prove", "", req)
	if status != http.StatusOK {
		t.Fatalf("second prove: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical prove not served from cache")
	}
	if second.ProofB64 != first.ProofB64 {
		t.Fatal("cached proof is not byte-identical to the original")
	}
	// Served bytes still verify.
	vstatus, vbody, _ := doJSON(t, client, http.MethodPost, base+"/verify", "",
		VerifyRequest{Circuit: req.Circuit, N: req.N, ProofB64: second.ProofB64})
	if vstatus != http.StatusOK || !strings.Contains(string(vbody), `"valid":true`) {
		t.Fatalf("verify of cached proof: %d %s", vstatus, vbody)
	}
	cm := s.CacheMetrics()
	if cm.Hits != 1 || cm.Misses != 1 || cm.Inserts != 1 || cm.VerifyRejects != 0 {
		t.Fatalf("cache metrics %+v", cm)
	}
	// A different witness (different n) is a different key.
	status, body, _ = doJSON(t, client, http.MethodPost, base+"/prove", "",
		ProveRequest{Circuit: "synthetic", N: 256})
	if status != http.StatusOK {
		t.Fatalf("different-n prove: %d %s", status, body)
	}
	var third ProveResponse
	json.Unmarshal(body, &third)
	if third.Cached {
		t.Fatal("different statement served from cache")
	}
	mb := getMetricsBody(t, client, base)
	for _, want := range []string{
		"nocap_proofcache_hits_total 1",
		"nocap_proofcache_inserts_total 2",
		"nocap_proofcache_verify_rejects_total 0",
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCacheVerifyRejectHTTP drives the soundness rule end to end: a
// proof corrupted between prove and insert is refused, counted, and the
// client gets a 500 — never the corrupt bytes.
func TestCacheVerifyRejectHTTP(t *testing.T) {
	if err := faultinject.Arm(faultinject.Plan{Point: "proofcache.insert.corrupt", Kind: faultinject.Error}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	cfg := testConfig()
	cfg.CacheMB = 4
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	req := ProveRequest{Circuit: "synthetic", N: 128}

	status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "", req)
	if status != http.StatusInternalServerError || !strings.Contains(string(body), `"code":"internal"`) {
		t.Fatalf("corrupted insert answered %d %s, want typed 500", status, body)
	}
	if !faultinject.Fired() {
		t.Fatal("corruption fault never fired")
	}
	faultinject.Disarm()

	cm := s.CacheMetrics()
	if cm.VerifyRejects != 1 || cm.Inserts != 0 || cm.Entries != 0 {
		t.Fatalf("cache metrics %+v, want 1 verify-reject, nothing stored", cm)
	}
	if !strings.Contains(getMetricsBody(t, client, base), "nocap_proofcache_verify_rejects_total 1") {
		t.Error("verify-reject counter missing from /metrics")
	}
	// With the fault gone the same request proves and caches normally.
	status, body, _ = doJSON(t, client, http.MethodPost, base+"/prove", "", req)
	if status != http.StatusOK {
		t.Fatalf("prove after disarm: %d %s", status, body)
	}
	var pr ProveResponse
	json.Unmarshal(body, &pr)
	if pr.Cached {
		t.Fatal("rejected proof somehow served from cache")
	}
	if cm := s.CacheMetrics(); cm.Inserts != 1 {
		t.Fatalf("cache metrics after recovery %+v", cm)
	}
}

// TestCacheHitNoSynthesis: a repeat request is answered from the
// cache's front index without building its circuit. Requests that differ
// only in timeout_ms, or in reps 0 vs 1, share the entry; once the entry
// is evicted the next request builds, proves and re-verifies again.
func TestCacheHitNoSynthesis(t *testing.T) {
	var builds atomic.Int64
	faultinject.MustArm(faultinject.Plan{
		Point: "prover.build",
		Kind:  faultinject.Hook,
		Count: math.MaxUint32,
		Hook:  func() error { builds.Add(1); return nil },
	})
	defer faultinject.Disarm()

	cfg := testConfig()
	cfg.CacheMB = 4
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	prove := func(req ProveRequest) ProveResponse {
		t.Helper()
		status, body, _ := doJSON(t, client, http.MethodPost, base+"/prove", "", req)
		if status != http.StatusOK {
			t.Fatalf("prove %+v: %d %s", req, status, body)
		}
		var pr ProveResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	req := ProveRequest{Circuit: "synthetic", N: 128}
	first := prove(req)
	if first.Cached || builds.Load() != 1 {
		t.Fatalf("first prove: cached %v after %d builds, want a fresh prove and one build", first.Cached, builds.Load())
	}
	for _, again := range []ProveRequest{
		req,
		{Circuit: "synthetic", N: 128, TimeoutMS: 30_000},
		{Circuit: "synthetic", N: 128, Reps: 1},
	} {
		pr := prove(again)
		if !pr.Cached || pr.ProofB64 != first.ProofB64 {
			t.Fatalf("repeat %+v: cached %v, identical %v", again, pr.Cached, pr.ProofB64 == first.ProofB64)
		}
		if n := builds.Load(); n != 1 {
			t.Fatalf("repeat %+v: %d builds, want the first one only", again, n)
		}
	}
	if cm := s.CacheMetrics(); cm.Hits != 3 || cm.Misses != 1 || cm.Inserts != 1 || cm.Coalesced != 0 {
		t.Fatalf("cache metrics %+v, want 3 hits on 1 miss", cm)
	}

	// Larger statements fill the 4 MB budget — each entry charges its
	// bytes and their base64 text — until the least recently used entry,
	// the first statement, is evicted.
	for n := 1 << 16; s.CacheMetrics().Evictions == 0; n -= 2 {
		if n < 1<<15 {
			t.Fatalf("no eviction after filling: %+v", s.CacheMetrics())
		}
		if pr := prove(ProveRequest{Circuit: "synthetic", N: n}); pr.Cached {
			t.Fatalf("n=%d served from cache", n)
		}
	}
	before, inserts := builds.Load(), s.CacheMetrics().Inserts
	pr := prove(req)
	if pr.Cached || builds.Load() != before+1 {
		t.Fatalf("after eviction: cached %v, %d builds, want a fresh prove and one build", pr.Cached, builds.Load()-before)
	}
	if cm := s.CacheMetrics(); cm.Inserts != inserts+1 || cm.VerifyRejects != 0 {
		t.Fatalf("after eviction: cache metrics %+v, want one more verified insert", cm)
	}
}

// TestRetryAfterFromDrainRate (satellite: adaptive Retry-After) pins
// the estimator's formula and bounds: mean-service × (backlog+1) /
// workers, clamped to [1s, 30s], 1s before any completion.
func TestRetryAfterFromDrainRate(t *testing.T) {
	var d drainEstimator
	if got := d.retryAfter(100, 4); got != time.Second {
		t.Fatalf("no-data fallback %v, want 1s", got)
	}
	d.observe(2 * time.Second)
	if got := d.retryAfter(3, 2); got != 4*time.Second {
		t.Fatalf("retryAfter(3,2) after one 2s service = %v, want 4s", got)
	}
	// Fast services clamp to the 1s floor.
	var fast drainEstimator
	fast.observe(time.Millisecond)
	if got := fast.retryAfter(0, 4); got != time.Second {
		t.Fatalf("floor %v, want 1s", got)
	}
	// Deep backlogs clamp to the 30s ceiling.
	var slow drainEstimator
	slow.observe(20 * time.Second)
	if got := slow.retryAfter(10, 1); got != 30*time.Second {
		t.Fatalf("ceiling %v, want 30s", got)
	}
	// Zero workers must not divide by zero.
	if got := slow.retryAfter(1, 0); got != 30*time.Second {
		t.Fatalf("workers=0 %v, want clamped 30s", got)
	}
}

func TestJobsTenantQuotaAndVisibility(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.Tenants = []tenant.Config{
		{ID: "acme", Key: "key-acme", MaxJobs: 1},
		{ID: "beta", Key: "key-beta"},
	}
	gate := make(chan struct{})
	cfg.JobsExec = func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		select {
		case <-gate:
			return jobs.Result{Proof: []byte("ok")}, nil
		case <-ctx.Done():
			return jobs.Result{}, ctx.Err()
		}
	}
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)
	req := ProveRequest{Circuit: "synthetic", N: 64}

	status, body, _ := doJSON(t, client, http.MethodPost, base+"/jobs", "key-acme", req)
	if status != http.StatusAccepted {
		t.Fatalf("acme job 1: %d %s", status, body)
	}
	var jr JobResponse
	json.Unmarshal(body, &jr)
	if jr.Tenant != "acme" {
		t.Fatalf("job attributed to %q, want acme: %s", jr.Tenant, body)
	}
	id := jr.ID

	// Second live job exceeds acme's MaxJobs=1.
	status, body, hdr := doJSON(t, client, http.MethodPost, base+"/jobs", "key-acme", req)
	if status != http.StatusTooManyRequests || !strings.Contains(string(body), `"code":"tenant-jobs-quota"`) {
		t.Fatalf("acme job 2: %d %s, want tenant-jobs-quota 429", status, body)
	}
	if hdr.Get("X-Quota-Max-Jobs") != "1" {
		t.Fatalf("quota headers %v", hdr)
	}
	// beta is not affected by acme's quota.
	if status, body, _ := doJSON(t, client, http.MethodPost, base+"/jobs", "key-beta", req); status != http.StatusAccepted {
		t.Fatalf("beta job under acme quota: %d %s", status, body)
	}

	// Visibility: beta and anonymous cannot see acme's job — 404, not
	// 403, so job IDs don't leak existence across tenants.
	for _, key := range []string{"key-beta", ""} {
		if status, body, _ := doJSON(t, client, http.MethodGet, base+"/jobs/"+id, key, nil); status != http.StatusNotFound {
			t.Fatalf("cross-tenant GET with key %q: %d %s", key, status, body)
		}
		if status, body, _ := doJSON(t, client, http.MethodDelete, base+"/jobs/"+id, key, nil); status != http.StatusNotFound {
			t.Fatalf("cross-tenant DELETE with key %q: %d %s", key, status, body)
		}
	}
	if status, body, _ := doJSON(t, client, http.MethodGet, base+"/jobs/"+id, "key-acme", nil); status != http.StatusOK {
		t.Fatalf("owner GET: %d %s", status, body)
	}

	close(gate)
	// Once the job completes, acme's quota frees up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _ := doJSON(t, client, http.MethodPost, base+"/jobs", "key-acme", req)
		if status == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acme quota never released after job completion")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsCachedFlag: with the cache enabled, the second identical
// async job is served from the cache and says so.
func TestJobsCachedFlag(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.CacheMB = 4
	_, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)
	req := ProveRequest{Circuit: "synthetic", N: 128}

	id1 := submitJob(t, client, base, req)
	jr1 := pollJob(t, client, base, id1)
	if jr1.State != "done" || jr1.Cached {
		t.Fatalf("first job: state %s cached %v", jr1.State, jr1.Cached)
	}
	id2 := submitJob(t, client, base, req)
	jr2 := pollJob(t, client, base, id2)
	if jr2.State != "done" || !jr2.Cached {
		t.Fatalf("second job: state %s cached %v, want cached done", jr2.State, jr2.Cached)
	}
	if jr2.ProofB64 != jr1.ProofB64 {
		t.Fatal("cached job proof differs from the original")
	}
}
