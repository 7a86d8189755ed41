package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nocap"
	"nocap/internal/faultinject"
	"nocap/internal/leakcheck"
)

// testConfig returns a fast configuration for in-process tests.
func testConfig() Config {
	return Config{
		Addr:           "127.0.0.1:0",
		Workers:        4,
		QueueDepth:     8,
		RequestTimeout: time.Minute,
		MemoryBudgetMB: 8,
		Params:         nocap.TestParams(),
	}
}

// startServer runs a server on a loopback listener and returns it, its
// base URL, and an idempotent stop function (also registered as test
// cleanup, so tests that need to verify post-shutdown state call it
// early and the rest get it for free).
func startServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return s, "http://" + addr.String(), stop
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, out
}

// proveOnce obtains one valid proof through the service, for reuse as
// verify-request ammunition.
func proveOnce(t *testing.T, client *http.Client, base string) ProveResponse {
	t.Helper()
	status, body := postJSON(t, client, base+"/prove", ProveRequest{Circuit: "synthetic", N: 64})
	if status != http.StatusOK {
		t.Fatalf("prove: status %d: %s", status, body)
	}
	var pr ProveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("prove response: %v", err)
	}
	return pr
}

// TestServerMixedTraffic is the acceptance hammer: ≥8 concurrent
// requests mixing proves, valid verifies, soundness-failing verifies,
// malformed bodies, oversized bodies, and client-cancelled requests —
// all answered with complete typed responses, with zero goroutine leaks
// and the arena checkout balance back at baseline afterwards.
func TestServerMixedTraffic(t *testing.T) {
	snap := leakcheck.Take()
	arenaBefore := nocap.ReadProveStats().Arena

	s, base, stop := startServer(t, testConfig())
	{
		client := &http.Client{Timeout: time.Minute}
		seed := proveOnce(t, client, base)

		// A proof whose bytes decode but whose content fails a check:
		// flip a character in the middle of the valid proof's payload.
		c := []byte(seed.ProofB64)
		if i := len(c) / 2; c[i] == 'A' {
			c[i] = 'B'
		} else {
			c[i] = 'A'
		}
		corrupt := string(c)

		const perKind = 3 // 6 kinds × 3 = 18 concurrent requests
		var wg sync.WaitGroup
		errs := make(chan error, 6*perKind)
		launch := func(f func(i int) error) {
			for i := 0; i < perKind; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := f(i); err != nil {
						errs <- err
					}
				}(i)
			}
		}

		launch(func(i int) error { // proves
			status, body := postJSON(t, client, base+"/prove",
				ProveRequest{Circuit: "synthetic", N: 64 + i})
			if status != http.StatusOK && status != http.StatusTooManyRequests {
				return fmt.Errorf("prove: status %d: %s", status, body)
			}
			if status == http.StatusOK {
				var pr ProveResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					return fmt.Errorf("prove body: %w", err)
				}
				if pr.Stats.Arena.Outstanding != 0 {
					return fmt.Errorf("prove leaked %d arena checkouts", pr.Stats.Arena.Outstanding)
				}
				if pr.Stats.Stages["sumcheck"].Calls == 0 {
					return fmt.Errorf("per-request stats empty: %s", body)
				}
			}
			return nil
		})
		launch(func(int) error { // valid verifies
			status, body := postJSON(t, client, base+"/verify",
				VerifyRequest{Circuit: "synthetic", N: 64, ProofB64: seed.ProofB64})
			if status == http.StatusTooManyRequests {
				return nil
			}
			if status != http.StatusOK {
				return fmt.Errorf("verify: status %d: %s", status, body)
			}
			var vr VerifyResponse
			if err := json.Unmarshal(body, &vr); err != nil {
				return fmt.Errorf("verify body: %w", err)
			}
			if !vr.Valid {
				return fmt.Errorf("valid proof rejected: %s", body)
			}
			return nil
		})
		launch(func(int) error { // corrupt proof: decodes, fails a check
			status, body := postJSON(t, client, base+"/verify",
				VerifyRequest{Circuit: "synthetic", N: 64, ProofB64: corrupt})
			switch status {
			case http.StatusTooManyRequests:
				return nil
			case http.StatusOK:
				var vr VerifyResponse
				if err := json.Unmarshal(body, &vr); err != nil {
					return fmt.Errorf("verify body: %w", err)
				}
				if vr.Valid {
					return fmt.Errorf("corrupt proof accepted")
				}
				if vr.Code == "" {
					return fmt.Errorf("rejection missing taxonomy code: %s", body)
				}
			case http.StatusBadRequest:
				// Corruption may break framing instead of soundness; a typed
				// malformed-proof rejection is equally correct.
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Code == "" {
					return fmt.Errorf("untyped 400: %s", body)
				}
			default:
				return fmt.Errorf("corrupt verify: status %d: %s", status, body)
			}
			return nil
		})
		launch(func(int) error { // malformed JSON
			resp, err := client.Post(base+"/prove", "application/json",
				strings.NewReader("{not json"))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				return fmt.Errorf("malformed JSON: status %d: %s", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != "usage" {
				return fmt.Errorf("malformed JSON: want typed usage error, got %s", body)
			}
			return nil
		})
		launch(func(int) error { // oversized body
			// Valid JSON shape, 9 MB of payload: the decoder must hit the
			// 8 MB envelope, not a syntax error.
			big := []byte(`{"circuit":"synthetic","n":64,"proof_b64":"` +
				strings.Repeat("A", 9<<20) + `"}`)
			resp, err := client.Post(base+"/verify", "application/json", bytes.NewReader(big))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				return fmt.Errorf("oversized body: status %d: %s", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != "resource-limit" {
				return fmt.Errorf("oversized body: want typed resource-limit, got %s", body)
			}
			return nil
		})
		launch(func(int) error { // client cancels mid-prove
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			data, _ := json.Marshal(ProveRequest{Circuit: "synthetic", N: 2048})
			req, _ := http.NewRequestWithContext(ctx, "POST", base+"/prove", bytes.NewReader(data))
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close() // finished before the cancel landed; fine
			}
			return nil
		})
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}

		// The service must still be fully functional after the abuse.
		final := proveOnce(t, client, base)
		status, body := postJSON(t, client, base+"/verify",
			VerifyRequest{Circuit: "synthetic", N: 64, ProofB64: final.ProofB64})
		if status != http.StatusOK || !strings.Contains(string(body), `"valid":true`) {
			t.Fatalf("post-hammer verify: status %d: %s", status, body)
		}

		m := s.Metrics()
		if m.ProvesOK == 0 || m.VerifiesOK == 0 {
			t.Errorf("metrics missed successes: %+v", m)
		}
		if m.ClientErrors == 0 {
			t.Errorf("metrics missed client errors: %+v", m)
		}
	}

	// Drain the server, then the process must be back to baseline: no
	// goroutines, no live scratch.
	stop()
	snap.CheckTimeout(t, 5*time.Second)
	arenaAfter := nocap.ReadProveStats().Arena
	if arenaAfter.Outstanding != arenaBefore.Outstanding ||
		arenaAfter.OutstandingElems != arenaBefore.OutstandingElems {
		t.Errorf("arena checkouts leaked: before %+v after %+v", arenaBefore, arenaAfter)
	}
	if arenaAfter.DoubleReturns != arenaBefore.DoubleReturns {
		t.Errorf("double returns during hammer: before %d after %d",
			arenaBefore.DoubleReturns, arenaAfter.DoubleReturns)
	}
}

// TestQueueBackpressure fills a one-worker, one-slot server with slow
// proves and asserts the overflow is shed with typed 429s while admitted
// work completes normally.
func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}

	const total = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	send := func(n int) {
		defer wg.Done()
		status, body := postJSON(t, client, base+"/prove",
			ProveRequest{Circuit: "synthetic", N: n})
		mu.Lock()
		statuses[status]++
		mu.Unlock()
		if status == http.StatusTooManyRequests {
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != "queue-full" {
				t.Errorf("429 without typed queue-full body: %s", body)
			}
		}
	}

	// Occupy the single worker with a slow prove first, so the burst
	// below deterministically finds it busy: one request takes the queue
	// slot, the rest must be shed.
	wg.Add(1)
	go send(16384)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, inf := s.Queue(); inf > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow prove never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < total; i++ {
		wg.Add(1)
		go send(1024)
	}
	wg.Wait()
	if statuses[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under backpressure: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Errorf("8 concurrent proves against 1 worker + 1 slot shed nothing: %v", statuses)
	}
	if statuses[http.StatusOK]+statuses[http.StatusTooManyRequests] != total {
		t.Errorf("unexpected statuses: %v", statuses)
	}
}

// TestGracefulDrain starts a prove, begins shutdown mid-flight, and
// asserts (a) requests arriving during the drain are refused with a
// typed 503, (b) the in-flight prove still completes with a full
// response, (c) shutdown returns cleanly.
func TestGracefulDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	base := "http://" + addr.String()
	client := &http.Client{Timeout: time.Minute}

	// Hold the prove at its commit checkpoint until draining is
	// visible, so the drain always has an in-flight prove to wait for.
	running, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	faultinject.MustArm(faultinject.Plan{
		Point: "spartan.prove.commit",
		Kind:  faultinject.Hook,
		Hook: func() error {
			close(running)
			<-release
			return nil
		},
	})
	defer faultinject.Disarm()

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		status, body := postJSON(t, client, base+"/prove",
			ProveRequest{Circuit: "synthetic", N: 1024})
		inflight <- result{status, body}
	}()
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("prove never started")
	}
	if _, _, inf := s.Queue(); inf == 0 {
		t.Fatal("prove never started")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Once draining is visible, a new request must be refused with the
	// typed draining error. The network listener is already closed, so
	// drive the handler directly — exactly what an admitted-but-not-yet-
	// queued request would hit.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	releaseOnce()
	rec := httptest.NewRecorder()
	data, _ := json.Marshal(ProveRequest{Circuit: "synthetic", N: 64})
	req := httptest.NewRequest("POST", "/prove", bytes.NewReader(data))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "draining" {
		t.Errorf("drain refusal not typed: %s", rec.Body.String())
	}

	// Probe ordering during the drain: liveness stays green (the process
	// is healthy and must not be restarted mid-drain) while readiness
	// goes red (no new traffic should be routed here).
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz during drain: status %d, want 200 (liveness)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"draining":true`) {
		t.Errorf("healthz during drain missing draining flag: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503 (readiness)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"code":"draining"`) {
		t.Errorf("readyz during drain not typed: %s", rec.Body.String())
	}

	// The in-flight prove completes with a full, valid response.
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("in-flight prove during drain: status %d: %s", res.status, res.body)
	}
	var pr ProveResponse
	if err := json.Unmarshal(res.body, &pr); err != nil {
		t.Fatalf("in-flight prove response truncated or invalid: %v: %s", err, res.body)
	}
	if pr.ProofBytes == 0 || pr.ProofB64 == "" {
		t.Fatalf("in-flight prove returned empty proof: %s", res.body)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestHealthzAndMetrics sanity-checks the observability endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, base, _ := startServer(t, testConfig())
	client := &http.Client{Timeout: time.Minute}
	proveOnce(t, client, base)

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"nocap_proves_ok_total 1",
		`nocap_kernel_calls_total{stage="sumcheck"}`,
		`nocap_kernel_wall_ns_total{stage="merkle"}`,
		"nocap_arena_outstanding 0",
		"nocap_queue_capacity 8",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
