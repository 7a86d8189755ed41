package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/leakcheck"
	"nocap/internal/zkerr"
)

// testConfig returns a Config tuned for fast tests: short backoffs,
// deterministic jitter, the given Exec.
func testConfig(t *testing.T, exec Exec) Config {
	t.Helper()
	return Config{
		Dir:              t.TempDir(),
		Exec:             exec,
		Workers:          2,
		MaxPending:       16,
		MaxAttempts:      4,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		BreakerThreshold: 100, // effectively disabled unless a test lowers it
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             1,
	}
}

// openManager opens a Manager and registers a closing cleanup.
func openManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// waitState polls until the job reaches a terminal state and returns it.
func waitTerminal(t *testing.T, m *Manager, id string) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return info
}

// journalRecords reads and decodes the journal in dir.
func journalRecords(t *testing.T, dir string) []record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	var info replayInfo
	if _, err := parseJournal(data, 0, &info); err != nil {
		t.Fatalf("parse journal: %v", err)
	}
	return info.records
}

// assertExactlyOneTerminal verifies the core durability invariant on
// the journal: every accepted job has exactly one terminal record.
func assertExactlyOneTerminal(t *testing.T, dir string) {
	t.Helper()
	terminals := map[string]int{}
	accepted := map[string]bool{}
	for _, r := range journalRecords(t, dir) {
		switch r.State {
		case recAccepted:
			accepted[r.Job] = true
		case recDone, recFailed, recCancelled:
			terminals[r.Job]++
		}
	}
	for id := range accepted {
		if n := terminals[id]; n != 1 {
			t.Errorf("job %s has %d terminal records, want exactly 1", id, n)
		}
	}
	for id := range terminals {
		if !accepted[id] {
			t.Errorf("job %s has a terminal record but no accepted record", id)
		}
	}
}

func TestLifecycleSubmitToDone(t *testing.T) {
	snap := leakcheck.Take()
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{Proof: []byte("proof:" + string(spec.Payload)), Stats: json.RawMessage(`{"wall_ms":1}`)}, nil
	})
	m := openManager(t, cfg)

	id, err := m.Submit(Spec{Payload: json.RawMessage(`"hello"`)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info := waitTerminal(t, m, id)
	if info.State != StateDone {
		t.Fatalf("state %s (err %q), want done", info.State, info.Error)
	}
	if info.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", info.Attempts)
	}
	if string(info.Stats) != `{"wall_ms":1}` {
		t.Fatalf("stats %s", info.Stats)
	}
	proof, err := m.Proof(id)
	if err != nil {
		t.Fatalf("Proof: %v", err)
	}
	if string(proof) != `proof:"hello"` {
		t.Fatalf("proof %q", proof)
	}
	if info.ProofBytes != len(proof) {
		t.Fatalf("proof_bytes %d, want %d", info.ProofBytes, len(proof))
	}

	// The journal must show the full transition chain, fsync'd in order.
	var states []recState
	for _, r := range journalRecords(t, cfg.Dir) {
		states = append(states, r.State)
	}
	want := []recState{recAccepted, recRunning, recDone}
	if len(states) != len(want) {
		t.Fatalf("journal states %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("journal states %v, want %v", states, want)
		}
	}
	assertExactlyOneTerminal(t, cfg.Dir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Close(ctx)
	snap.Check(t)
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		if calls.Add(1) == 1 {
			return Result{}, zkerr.Internalf("transient backend fault")
		}
		return Result{Proof: []byte("ok")}, nil
	})
	m := openManager(t, cfg)
	id, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info := waitTerminal(t, m, id)
	if info.State != StateDone {
		t.Fatalf("state %s (err %q), want done after retry", info.State, info.Error)
	}
	if info.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (one retry)", info.Attempts)
	}
	mm := m.Metrics()
	if mm.Retries != 1 {
		t.Fatalf("metrics retries %d, want 1", mm.Retries)
	}
	// The retry must be journaled with its classification and backoff.
	var sawRetry bool
	for _, r := range journalRecords(t, cfg.Dir) {
		if r.State == recRetrying {
			sawRetry = true
			if r.Code != "internal" {
				t.Errorf("retrying record code %q, want internal", r.Code)
			}
			if r.BackoffMS < 0 {
				t.Errorf("retrying record backoff %d", r.BackoffMS)
			}
		}
	}
	if !sawRetry {
		t.Fatal("no retrying record journaled")
	}
}

func TestPanicRecoveredAndRetried(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		if calls.Add(1) == 1 {
			panic("prover invariant violated")
		}
		return Result{Proof: []byte("ok")}, nil
	})
	m := openManager(t, cfg)
	id, _ := m.Submit(Spec{})
	info := waitTerminal(t, m, id)
	if info.State != StateDone || info.Attempts != 2 {
		t.Fatalf("state %s attempts %d (err %q), want done after panic retry", info.State, info.Attempts, info.Error)
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		calls.Add(1)
		return Result{}, zkerr.Malformedf("bad witness bytes")
	})
	m := openManager(t, cfg)
	id, _ := m.Submit(Spec{})
	info := waitTerminal(t, m, id)
	if info.State != StateFailed {
		t.Fatalf("state %s, want failed", info.State)
	}
	if info.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("attempts %d calls %d, want 1/1 (permanent failures are never retried)", info.Attempts, calls.Load())
	}
	if info.Code != "malformed-proof" {
		t.Fatalf("code %q, want malformed-proof", info.Code)
	}
	assertExactlyOneTerminal(t, cfg.Dir)
}

func TestAttemptBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		calls.Add(1)
		return Result{}, zkerr.Internalf("always broken")
	})
	cfg.MaxAttempts = 3
	m := openManager(t, cfg)
	id, _ := m.Submit(Spec{})
	info := waitTerminal(t, m, id)
	if info.State != StateFailed {
		t.Fatalf("state %s, want failed after budget", info.State)
	}
	if info.Attempts != 3 || calls.Load() != 3 {
		t.Fatalf("attempts %d calls %d, want 3/3", info.Attempts, calls.Load())
	}
	if info.Code != "internal" {
		t.Fatalf("code %q", info.Code)
	}
	if mm := m.Metrics(); mm.Retries != 2 {
		t.Fatalf("retries %d, want 2", mm.Retries)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		select {
		case <-block:
			return Result{Proof: []byte("ok")}, nil
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	})
	cfg.Workers = 1
	m := openManager(t, cfg)
	first, _ := m.Submit(Spec{})
	second, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit second: %v", err)
	}
	// Give the single worker time to pick up the first job, then cancel
	// the queued second one: it must terminalize without ever running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := m.Get(first); info.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(second); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	info := waitTerminal(t, m, second)
	if info.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", info.State)
	}
	if info.Attempts != 0 {
		t.Fatalf("cancelled queued job ran %d attempts", info.Attempts)
	}
	// Cancelling an already-cancelled job is idempotent: same terminal
	// info, no error, no second journal record.
	again, err := m.Cancel(second)
	if err != nil {
		t.Fatalf("Cancel cancelled job: %v, want idempotent success", err)
	}
	if again.State != StateCancelled {
		t.Fatalf("re-cancel state %s, want cancelled", again.State)
	}
	close(block)
	if info := waitTerminal(t, m, first); info.State != StateDone {
		t.Fatalf("first job %s, want done", info.State)
	}
	// A job that reached done/failed first is genuinely terminal: cancel
	// is a typed conflict, not a silent no-op.
	if _, err := m.Cancel(first); !errors.Is(err, ErrTerminal) {
		t.Fatalf("Cancel done job: %v, want ErrTerminal", err)
	}
	assertExactlyOneTerminal(t, cfg.Dir)
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		close(started)
		<-ctx.Done()
		return Result{}, ctx.Err()
	})
	m := openManager(t, cfg)
	id, _ := m.Submit(Spec{})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	if _, err := m.Cancel(id); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	info := waitTerminal(t, m, id)
	if info.State != StateCancelled {
		t.Fatalf("state %s (err %q), want cancelled", info.State, info.Error)
	}
	// Cancellation is permanent: exactly one attempt, no retry of the
	// context.Canceled failure.
	if info.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", info.Attempts)
	}
	assertExactlyOneTerminal(t, cfg.Dir)
}

func TestCancelUnknownJob(t *testing.T) {
	m := openManager(t, testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, nil
	}))
	if _, err := m.Cancel("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel unknown: %v, want ErrUnknownJob", err)
	}
	if _, err := m.Get("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get unknown: %v, want ErrUnknownJob", err)
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return Result{}, ctx.Err()
	})
	cfg.MaxPending = 2
	m := openManager(t, cfg)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Spec{}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(Spec{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over MaxPending: %v, want ErrQueueFull", err)
	}
}

func TestBreakerTripsShedsAndRecovers(t *testing.T) {
	var clock atomic.Int64 // nanoseconds added to the base time
	base := time.Unix(1700000000, 0)
	var failing atomic.Bool
	failing.Store(true)
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		if failing.Load() {
			return Result{}, zkerr.Internalf("backend down")
		}
		return Result{Proof: []byte("ok")}, nil
	})
	cfg.MaxAttempts = 1 // fail fast; the breaker, not retry, is under test
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // only the fake clock can reopen it
	cfg.Now = func() time.Time { return base.Add(time.Duration(clock.Load())) }
	m := openManager(t, cfg)

	for i := 0; i < 2; i++ {
		id, err := m.Submit(Spec{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if info := waitTerminal(t, m, id); info.State != StateFailed {
			t.Fatalf("job %d state %s, want failed", i, info.State)
		}
	}
	st, retryAfter := m.BreakerState()
	if st != BreakerOpen {
		t.Fatalf("breaker %s after %d consecutive internal failures, want open", st, cfg.BreakerThreshold)
	}
	if retryAfter <= 0 {
		t.Fatalf("retry-after %v, want positive", retryAfter)
	}
	if _, err := m.Submit(Spec{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Submit while open: %v, want ErrBreakerOpen", err)
	}
	if mm := m.Metrics(); mm.BreakerTrips != 1 {
		t.Fatalf("breaker trips %d, want 1", mm.BreakerTrips)
	}

	// Cooldown elapses: half-open admits a probe; its success closes.
	clock.Store(int64(2 * time.Hour))
	if st, _ := m.BreakerState(); st != BreakerHalfOpen {
		t.Fatalf("breaker %s after cooldown, want half-open", st)
	}
	failing.Store(false)
	id, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit in half-open: %v", err)
	}
	if info := waitTerminal(t, m, id); info.State != StateDone {
		t.Fatalf("probe job %s, want done", info.State)
	}
	if st, _ := m.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := newBreaker(2, time.Minute, nil)
	b.Failure(true)
	b.Failure(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s, want open", b.State())
	}
	// Force half-open by rewinding openedAt instead of sleeping.
	b.mu.Lock()
	b.openedAt = b.openedAt.Add(-2 * time.Minute)
	b.mu.Unlock()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %s, want half-open", b.State())
	}
	ok, probe := b.AllowAttempt()
	if !ok || !probe {
		t.Fatalf("half-open AllowAttempt = (%v, %v), want granted probe", ok, probe)
	}
	if ok, _ := b.AllowAttempt(); ok {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	b.Failure(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips %d, want 2", b.Trips())
	}
}

// TestBreakerAbandonedProbeReleasesSlot pins the fix for the half-open
// wedge: a granted probe that never runs (the gate shed it, or the job
// turned out to be terminal) must return its slot, or AllowAttempt
// refuses every attempt forever while submissions keep being accepted.
func TestBreakerAbandonedProbeReleasesSlot(t *testing.T) {
	b := newBreaker(1, time.Minute, nil)
	b.Failure(true)
	b.mu.Lock()
	b.openedAt = b.openedAt.Add(-2 * time.Minute)
	b.mu.Unlock()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %s, want half-open", b.State())
	}
	ok, probe := b.AllowAttempt()
	if !ok || !probe {
		t.Fatalf("AllowAttempt = (%v, %v), want granted probe", ok, probe)
	}
	if ok, _ := b.AllowAttempt(); ok {
		t.Fatal("second probe admitted while the first is outstanding")
	}
	b.abandonProbe()
	ok, probe = b.AllowAttempt()
	if !ok || !probe {
		t.Fatalf("AllowAttempt after abandon = (%v, %v), want the slot back", ok, probe)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after successful probe, want closed", b.State())
	}
	// In closed state attempts are granted without holding the probe, so
	// abandoning them must be a no-op for admission.
	if ok, probe := b.AllowAttempt(); !ok || probe {
		t.Fatalf("closed AllowAttempt = (%v, %v), want granted non-probe", ok, probe)
	}
}

// TestHalfOpenProbeShedByPoolDoesNotWedge is the manager-level wedge
// regression: with the breaker half-open, the executor's pool sheds the
// granted probe attempt (ErrPoolShed). The probe slot must come back so
// a later dispatch can run the probe — before the fix, probing stayed
// true forever and every job stalled until restart while submissions
// kept being accepted.
func TestHalfOpenProbeShedByPoolDoesNotWedge(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var shed atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		if shed.Add(-1) >= 0 {
			return Result{}, fmt.Errorf("pool full: %w", ErrPoolShed)
		}
		if failing.Load() {
			return Result{}, zkerr.Internalf("backend down")
		}
		return Result{Proof: []byte("ok")}, nil
	})
	cfg.Workers = 1
	cfg.MaxAttempts = 50
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = 40 * time.Millisecond
	m := openManager(t, cfg)
	id, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the first (internal) failure to trip the breaker. While
	// it is open no attempts run, so the next executor call after we arm
	// the shed is exactly the half-open probe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.BreakerState(); st != BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		time.Sleep(time.Millisecond)
	}
	failing.Store(false)
	shed.Store(1) // shed exactly the probe attempt
	info := waitTerminal(t, m, id)
	if info.State != StateDone {
		t.Fatalf("state %s (err %q), want done after the shed probe is re-dispatched", info.State, info.Error)
	}
	if st, _ := m.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
}

func TestBreakerIgnoresClientFailures(t *testing.T) {
	b := newBreaker(2, time.Minute, nil)
	for i := 0; i < 10; i++ {
		b.Failure(false) // malformed inputs say nothing about backend health
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after client-only failures, want closed", b.State())
	}
	b.Failure(true)
	b.Success()
	b.Failure(true)
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the failure streak")
	}
}

func TestSubmitAfterCloseRefused(t *testing.T) {
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, nil
	})
	m := openManager(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.Submit(Spec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestShutdownRevertsRunningAndRecoveryResumes is the same-process
// half of the crash story: a job interrupted by Close keeps its journal
// state at "running", and a new Manager over the same directory
// re-enqueues it (attempt refunded, recovered flagged) and completes it.
func TestShutdownRevertsRunningAndRecoveryResumes(t *testing.T) {
	snap := leakcheck.Take()
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	blockCfg := Config{
		Dir: dir,
		Exec: func(ctx context.Context, spec Spec) (Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return Result{}, ctx.Err()
		},
		Workers: 1, MaxPending: 8, MaxAttempts: 4,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, Seed: 7,
	}
	m1, err := Open(blockCfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	runningID, err := m1.Submit(Spec{Payload: json.RawMessage(`1`)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queuedID, err := m1.Submit(Spec{Payload: json.RawMessage(`2`)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cancel()
	snap.Check(t) // Close left nothing behind

	// The journal must NOT contain terminal records: shutdown is
	// crash-equivalent for in-flight work.
	for _, r := range journalRecords(t, dir) {
		if r.State == recDone || r.State == recFailed || r.State == recCancelled {
			t.Fatalf("journal has terminal record %+v after shutdown", r)
		}
	}

	// Reopen with a succeeding Exec: both jobs must complete.
	m2Cfg := blockCfg
	m2Cfg.Exec = func(ctx context.Context, spec Spec) (Result, error) {
		return Result{Proof: append([]byte("p"), spec.Payload...)}, nil
	}
	m2, err := Open(m2Cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m2.Close(ctx)
	}()
	if mm := m2.Metrics(); mm.RecoveredJobs != 1 {
		t.Fatalf("recovered jobs %d, want 1 (the interrupted one)", mm.RecoveredJobs)
	}
	for _, id := range []string{runningID, queuedID} {
		info := waitTerminal(t, m2, id)
		if info.State != StateDone {
			t.Fatalf("job %s state %s (err %q), want done after recovery", id, info.State, info.Error)
		}
		// The interrupted attempt was refunded: one successful attempt each.
		if info.Attempts != 1 {
			t.Fatalf("job %s attempts %d, want 1", id, info.Attempts)
		}
	}
	info, _ := m2.Get(runningID)
	if !info.Recovered {
		t.Fatal("interrupted job not flagged recovered")
	}
	assertExactlyOneTerminal(t, dir)
}

// TestPoolShedCostsNothing: an attempt the executor's pool sheds
// (ErrPoolShed) is refunded without consuming budget, touching the retry
// or lease counters, or growing the journal — however often the same
// attempt is shed, the job's records are accepted, running, done — and a
// restart in the shed window replays to the same refunded state.
func TestPoolShedCostsNothing(t *testing.T) {
	var sheds atomic.Int64
	sheds.Store(3)
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		if sheds.Add(-1) >= 0 {
			return Result{}, fmt.Errorf("tenant queue full: %w", ErrPoolShed)
		}
		return Result{Proof: []byte("ok")}, nil
	})
	cfg.MaxAttempts = 1 // a shed that cost an attempt would fail the job
	m := openManager(t, cfg)
	id, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info := waitTerminal(t, m, id)
	if info.State != StateDone || info.Attempts != 1 {
		t.Fatalf("state %s attempts %d (err %q), want done on attempt 1 after 3 sheds", info.State, info.Attempts, info.Error)
	}
	if mm := m.Metrics(); mm.Retries != 0 || mm.LeaseReassigns != 0 || mm.BreakerTrips != 0 {
		t.Errorf("sheds moved counters: retries %d lease_reassigns %d breaker_trips %d, want all 0", mm.Retries, mm.LeaseReassigns, mm.BreakerTrips)
	}
	var states []string
	for _, r := range journalRecords(t, cfg.Dir) {
		if r.Job == id {
			states = append(states, string(r.State))
		}
	}
	if got := strings.Join(states, ","); got != "accepted,running,done" {
		t.Errorf("journal records %s, want accepted,running,done", got)
	}

	// Shed, then restart before the re-dispatch lands: the running record
	// on disk replays as an interrupted attempt, refunded.
	sheds.Store(1 << 30)
	id2, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for sheds.Load() == 1<<30 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Close(ctx)
	sheds.Store(0)
	m2 := openManager(t, cfg)
	if info := waitTerminal(t, m2, id2); info.State != StateDone || info.Attempts != 1 || !info.Recovered {
		t.Fatalf("after restart: state %s attempts %d recovered %v, want done on attempt 1, recovered", info.State, info.Attempts, info.Recovered)
	}
	assertExactlyOneTerminal(t, cfg.Dir)
}

func TestWaitHonoursContext(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return Result{}, ctx.Err()
	})
	m := openManager(t, cfg)
	id, _ := m.Submit(Spec{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait: %v, want DeadlineExceeded", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Config{Exec: func(context.Context, Spec) (Result, error) { return Result{}, nil }}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open without Exec succeeded")
	}
}

func TestListOrdersBySubmission(t *testing.T) {
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{Proof: []byte("ok")}, nil
	})
	m := openManager(t, cfg)
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := m.Submit(Spec{})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	list := m.List()
	if len(list) != len(ids) {
		t.Fatalf("List len %d, want %d", len(list), len(ids))
	}
	for i, info := range list {
		if info.ID != ids[i] {
			t.Fatalf("List[%d] = %s, want %s", i, info.ID, ids[i])
		}
		if info.State != StateDone {
			t.Fatalf("List[%d] state %s", i, info.State)
		}
	}
}

// TestManyJobsMixedOutcomesJournalInvariant runs a mixed workload and
// checks the exactly-one-terminal invariant plus metric consistency.
func TestManyJobsMixedOutcomesJournalInvariant(t *testing.T) {
	snap := leakcheck.Take()
	var n atomic.Int64
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		switch n.Add(1) % 4 {
		case 0:
			return Result{}, zkerr.Malformedf("permanent")
		case 1:
			return Result{}, zkerr.Internalf("flaky")
		default:
			return Result{Proof: []byte("ok")}, nil
		}
	})
	cfg.MaxAttempts = 3
	cfg.MaxPending = 64
	m := openManager(t, cfg)
	var ids []string
	for i := 0; i < 24; i++ {
		id, err := m.Submit(Spec{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	mm := m.Metrics()
	if mm.Done+mm.Failed+mm.Cancelled != int64(len(ids)) {
		t.Fatalf("terminal counts %d+%d+%d != %d", mm.Done, mm.Failed, mm.Cancelled, len(ids))
	}
	if mm.Active != 0 {
		t.Fatalf("active %d after all terminal", mm.Active)
	}
	assertExactlyOneTerminal(t, cfg.Dir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Close(ctx)
	snap.Check(t)
}

// TestTerminalJournalAppendRetriedOnce: a single transient append
// failure on a terminal record is absorbed by the in-place retry — the
// journal still ends with the done record and the job is not split
// between its durable and in-memory views.
func TestTerminalJournalAppendRetriedOnce(t *testing.T) {
	defer faultinject.Disarm()
	// Hits for one clean job: accepted=1, running=2, done=3.
	faultinject.MustArm(faultinject.Plan{Point: "jobs.journal.append", Kind: faultinject.Error, Trigger: 3})
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{Proof: []byte("ok")}, nil
	})
	m := openManager(t, cfg)
	id, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info := waitTerminal(t, m, id)
	if info.State != StateDone {
		t.Fatalf("state %s (err %q), want done", info.State, info.Error)
	}
	if info.JournalLost {
		t.Fatal("job flagged journal_lost although the retry succeeded")
	}
	mm := m.Metrics()
	if mm.JournalAppendErrors != 1 || mm.JournalLostJobs != 0 {
		t.Fatalf("append errors %d / lost %d, want 1 / 0", mm.JournalAppendErrors, mm.JournalLostJobs)
	}
	if !faultinject.Fired() {
		t.Fatal("injected append failure never fired")
	}
	assertExactlyOneTerminal(t, cfg.Dir)
}

// TestTerminalJournalLostSurfaced: when the terminal append fails
// persistently (a data disk that stopped accepting writes), the job
// still terminalizes in memory — but it is flagged journal_lost and
// counted, so the contradiction between the observable outcome and
// what a restart will replay is visible instead of silent.
func TestTerminalJournalLostSurfaced(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		<-release
		return Result{Proof: []byte("ok")}, nil
	})
	m := openManager(t, cfg)
	id, err := m.Submit(Spec{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the attempt to be journaled as running, then kill the
	// journal fd out from under the manager: every later append fails.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := m.Get(id); info.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	m.journal.f.Close()
	m.mu.Unlock()
	close(release)

	info := waitTerminal(t, m, id)
	if info.State != StateDone {
		t.Fatalf("state %s (err %q), want done", info.State, info.Error)
	}
	if !info.JournalLost {
		t.Fatal("terminal state without a durable record not flagged journal_lost")
	}
	mm := m.Metrics()
	if mm.JournalLostJobs != 1 {
		t.Fatalf("journal-lost jobs %d, want 1", mm.JournalLostJobs)
	}
	if mm.JournalAppendErrors < 2 {
		t.Fatalf("append errors %d, want both tries counted", mm.JournalAppendErrors)
	}
	// The durable journal must still parse and must NOT contain a
	// terminal record: after a restart this job replays from "running",
	// which is exactly what journal_lost warns about.
	for _, r := range journalRecords(t, cfg.Dir) {
		if r.State == recDone || r.State == recFailed || r.State == recCancelled {
			t.Fatalf("journal unexpectedly holds terminal record %+v", r)
		}
	}
}

// TestProofFileNamedInDoneRecord pins the durability ordering: the done
// record references a proof file that exists and is complete.
func TestProofFileNamedInDoneRecord(t *testing.T) {
	payload := []byte(strings.Repeat("zk", 1024))
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{Proof: payload}, nil
	})
	m := openManager(t, cfg)
	id, _ := m.Submit(Spec{})
	waitTerminal(t, m, id)
	for _, r := range journalRecords(t, cfg.Dir) {
		if r.State != recDone {
			continue
		}
		data, err := os.ReadFile(r.ProofFile)
		if err != nil {
			t.Fatalf("done record proof file: %v", err)
		}
		if len(data) != r.ProofBytes || len(data) != len(payload) {
			t.Fatalf("proof file %d bytes, record says %d, want %d", len(data), r.ProofBytes, len(payload))
		}
		return
	}
	t.Fatal("no done record in journal")
}
