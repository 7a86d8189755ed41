package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/leakcheck"
)

// batchTestConfig extends testConfig with batching: every job with the
// same tenant coalesces (the key is the payload's first byte class —
// here constant), a generous window so fast submits always land in one
// group, and the given BatchExec.
func batchTestConfig(t *testing.T, exec Exec, batchExec BatchExec) Config {
	t.Helper()
	cfg := testConfig(t, exec)
	cfg.BatchKey = func(spec Spec) (string, bool) { return "k", true }
	cfg.BatchExec = batchExec
	cfg.BatchWindow = 500 * time.Millisecond
	cfg.BatchMax = 4
	return cfg
}

// proveAll is a BatchExec that succeeds every member that is not
// cancelled, with a proof naming the member.
func proveAll(ctx context.Context, members []BatchMember) []BatchOutcome {
	outs := make([]BatchOutcome, len(members))
	for i, mb := range members {
		if err := mb.Ctx.Err(); err != nil {
			outs[i] = BatchOutcome{Err: err}
			continue
		}
		outs[i] = BatchOutcome{Result: Result{Proof: []byte("batch-proof-" + mb.ID)}}
	}
	return outs
}

// TestBatchCoalescesAndProves: jobs with the same (tenant, key)
// submitted within the window run as one batched attempt; every member
// terminalizes done with its own proof and journal chain, and the batch
// metrics account for the coalescing.
func TestBatchCoalescesAndProves(t *testing.T) {
	snap := leakcheck.Take()
	var execCalls, batchCalls sync.Map
	cfg := batchTestConfig(t,
		func(ctx context.Context, spec Spec) (Result, error) {
			execCalls.Store(string(spec.Payload), true)
			return Result{Proof: []byte("solo")}, nil
		},
		func(ctx context.Context, members []BatchMember) []BatchOutcome {
			batchCalls.Store(len(members), true)
			return proveAll(ctx, members)
		})
	m := openManager(t, cfg)

	ids := make([]string, 4)
	for i := range ids {
		id, err := m.Submit(Spec{Payload: json.RawMessage(fmt.Sprintf("%d", i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		info := waitTerminal(t, m, id)
		if info.State != StateDone {
			t.Fatalf("job %s state %s (err %q), want done", id, info.State, info.Error)
		}
		if info.Attempts != 1 {
			t.Fatalf("job %s attempts %d, want 1", id, info.Attempts)
		}
		proof, err := m.Proof(id)
		if err != nil {
			t.Fatalf("Proof(%s): %v", id, err)
		}
		if string(proof) != "batch-proof-"+id {
			t.Fatalf("job %s proof %q, want its own batch proof", id, proof)
		}
	}
	execCalls.Range(func(k, v any) bool {
		t.Errorf("solo Exec ran for payload %v; all four jobs should have batched", k)
		return true
	})
	mm := m.Metrics()
	if mm.Batches != 1 || mm.BatchJobs != 4 || mm.LastBatchSize != 4 {
		t.Errorf("batch metrics Batches=%d BatchJobs=%d LastBatchSize=%d, want 1/4/4",
			mm.Batches, mm.BatchJobs, mm.LastBatchSize)
	}
	if mm.BatchAmortizedSaves != 3 {
		t.Errorf("BatchAmortizedSaves=%d, want 3 (size-1 for one batch of 4)", mm.BatchAmortizedSaves)
	}
	assertExactlyOneTerminal(t, cfg.Dir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m.Close(ctx)
	cancel()
	snap.Check(t)
}

// TestBatchUnbatchableAndSingletonUseSoloPath: jobs whose BatchKey says
// no, and groups that close with a single member, run through the solo
// Exec path — BatchExec never sees a batch of one.
func TestBatchUnbatchableAndSingletonUseSoloPath(t *testing.T) {
	var mu sync.Mutex
	var soloRan int
	batchSizes := []int{}
	cfg := batchTestConfig(t,
		func(ctx context.Context, spec Spec) (Result, error) {
			mu.Lock()
			soloRan++
			mu.Unlock()
			return Result{Proof: []byte("solo")}, nil
		},
		func(ctx context.Context, members []BatchMember) []BatchOutcome {
			mu.Lock()
			batchSizes = append(batchSizes, len(members))
			mu.Unlock()
			return proveAll(ctx, members)
		})
	cfg.BatchWindow = 10 * time.Millisecond
	cfg.BatchKey = func(spec Spec) (string, bool) {
		return string(spec.Payload), string(spec.Payload) != `"nobatch"`
	}
	m := openManager(t, cfg)

	// Unbatchable: dispatches solo immediately.
	id1, err := m.Submit(Spec{Payload: json.RawMessage(`"nobatch"`)})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitTerminal(t, m, id1); info.State != StateDone {
		t.Fatalf("unbatchable job state %s, want done", info.State)
	}
	// Batchable but alone: the group times out with one member and runs
	// solo.
	id2, err := m.Submit(Spec{Payload: json.RawMessage(`"alone"`)})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitTerminal(t, m, id2); info.State != StateDone {
		t.Fatalf("singleton job state %s, want done", info.State)
	}

	mu.Lock()
	defer mu.Unlock()
	if soloRan != 2 {
		t.Errorf("solo Exec ran %d times, want 2", soloRan)
	}
	if len(batchSizes) != 0 {
		t.Errorf("BatchExec ran with sizes %v, want never", batchSizes)
	}
	if mm := m.Metrics(); mm.Batches != 0 {
		t.Errorf("Batches=%d, want 0", mm.Batches)
	}
}

// TestBatchMemberCancelIsolated: cancelling one member of a running
// batch terminalizes that member as cancelled without disturbing its
// batch-mates, which finish done with their own proofs.
func TestBatchMemberCancelIsolated(t *testing.T) {
	snap := leakcheck.Take()
	started := make(chan []string, 1)
	release := make(chan struct{})
	cfg := batchTestConfig(t,
		func(ctx context.Context, spec Spec) (Result, error) {
			return Result{Proof: []byte("solo")}, nil
		},
		func(ctx context.Context, members []BatchMember) []BatchOutcome {
			ids := make([]string, len(members))
			for i, mb := range members {
				ids[i] = mb.ID
			}
			started <- ids
			<-release
			return proveAll(ctx, members)
		})
	m := openManager(t, cfg)

	ids := make([]string, 4)
	for i := range ids {
		id, err := m.Submit(Spec{Payload: json.RawMessage(fmt.Sprintf("%d", i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = id
	}
	batchIDs := <-started
	if len(batchIDs) != 4 {
		t.Fatalf("batch of %d members, want 4", len(batchIDs))
	}
	victim := batchIDs[1]
	if _, err := m.Cancel(victim); err != nil {
		t.Fatalf("Cancel(%s): %v", victim, err)
	}
	close(release)

	for _, id := range ids {
		info := waitTerminal(t, m, id)
		if id == victim {
			if info.State != StateCancelled {
				t.Errorf("victim %s state %s, want cancelled", id, info.State)
			}
			continue
		}
		if info.State != StateDone {
			t.Errorf("batch-mate %s state %s (err %q), want done despite victim's cancel", id, info.State, info.Error)
		}
	}
	assertExactlyOneTerminal(t, cfg.Dir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m.Close(ctx)
	cancel()
	snap.Check(t)
}

// TestChaosBatchMemberInjection: the jobs.batch.exec point fires once
// per member in batch order, so Trigger selects the Nth member. The
// injected member fails its attempt before reaching BatchExec, retries,
// and succeeds solo; its batch-mates prove in the same batched attempt,
// untouched. The faultinject registry is process-global, so no
// t.Parallel.
func TestChaosBatchMemberInjection(t *testing.T) {
	snap := leakcheck.Take()
	defer faultinject.Disarm()
	faultinject.MustArm(faultinject.Plan{Point: "jobs.batch.exec", Kind: faultinject.Error, Trigger: 2})
	cfg := batchTestConfig(t,
		func(ctx context.Context, spec Spec) (Result, error) {
			return Result{Proof: []byte("solo-retry")}, nil
		},
		proveAll)
	m := openManager(t, cfg)

	ids := make([]string, 4)
	for i := range ids {
		id, err := m.Submit(Spec{Payload: json.RawMessage(fmt.Sprintf("%d", i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = id
	}
	victims, mates := 0, 0
	for _, id := range ids {
		info := waitTerminal(t, m, id)
		if info.State != StateDone {
			t.Fatalf("job %s state %s (err %q), want done", id, info.State, info.Error)
		}
		switch info.Attempts {
		case 1:
			mates++
		case 2:
			victims++
		default:
			t.Errorf("job %s took %d attempts, want 1 or 2", id, info.Attempts)
		}
	}
	if victims != 1 || mates != 3 {
		t.Errorf("%d injected members and %d clean batch-mates, want 1 and 3", victims, mates)
	}
	if !faultinject.Fired() {
		t.Fatal("armed batch fault never fired")
	}
	assertExactlyOneTerminal(t, cfg.Dir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m.Close(ctx)
	cancel()
	snap.Check(t)
}

// TestBatchExecPanicAndMiscountContained: a BatchExec that panics or
// returns the wrong number of outcomes costs every member one attempt
// (an internal, retryable error) and nothing else — the retry proves
// them all.
func TestBatchExecPanicAndMiscountContained(t *testing.T) {
	for _, mode := range []string{"panic", "miscount"} {
		t.Run(mode, func(t *testing.T) {
			var mu sync.Mutex
			calls := 0
			cfg := batchTestConfig(t,
				func(ctx context.Context, spec Spec) (Result, error) {
					return Result{Proof: []byte("solo")}, nil
				},
				func(ctx context.Context, members []BatchMember) []BatchOutcome {
					mu.Lock()
					calls++
					first := calls == 1
					mu.Unlock()
					if first {
						if mode == "panic" {
							panic("injected batch panic")
						}
						return nil // miscount: 0 outcomes for len(members) members
					}
					return proveAll(ctx, members)
				})
			m := openManager(t, cfg)
			ids := make([]string, 3)
			for i := range ids {
				id, err := m.Submit(Spec{Payload: json.RawMessage(fmt.Sprintf("%d", i))})
				if err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
				ids[i] = id
			}
			for _, id := range ids {
				info := waitTerminal(t, m, id)
				if info.State != StateDone {
					t.Fatalf("job %s state %s (err %q), want done after contained %s", id, info.State, info.Error, mode)
				}
				if info.Attempts != 2 {
					t.Errorf("job %s attempts %d, want 2 (failed batch, clean retry)", id, info.Attempts)
				}
			}
			assertExactlyOneTerminal(t, cfg.Dir)
		})
	}
}

// TestBatchReachesExecutorWhole: a coalesced batch reaches the executor
// as one call carrying all k members of one tenant, so whatever admits
// the call (the server's pool charges DRR cost = members) sees k jobs,
// not one cheap slot.
func TestBatchReachesExecutorWhole(t *testing.T) {
	var mu sync.Mutex
	type charge struct {
		tenant string
		cost   int
	}
	var charges []charge
	cfg := batchTestConfig(t, nil,
		func(ctx context.Context, members []BatchMember) []BatchOutcome {
			mu.Lock()
			charges = append(charges, charge{members[0].Spec.Tenant, len(members)})
			mu.Unlock()
			return proveAll(ctx, members)
		})
	m := openManager(t, cfg)

	ids := make([]string, 4)
	for i := range ids {
		id, err := m.Submit(Spec{Tenant: "acme", Payload: json.RawMessage(fmt.Sprintf("%d", i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if info := waitTerminal(t, m, id); info.State != StateDone {
			t.Fatalf("job %s state %s, want done", id, info.State)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(charges) != 1 || charges[0] != (charge{"acme", 4}) {
		t.Errorf("executor calls %v, want exactly one of 4 members for acme", charges)
	}
}

// TestBatchNeverMixesTenants: same batch key, different tenants — the
// planner must keep them in separate batches so fairness and quota
// accounting stay per-tenant.
func TestBatchNeverMixesTenants(t *testing.T) {
	var mu sync.Mutex
	batches := [][]string{} // tenant of each member, per batch
	cfg := batchTestConfig(t,
		func(ctx context.Context, spec Spec) (Result, error) {
			return Result{Proof: []byte("solo")}, nil
		},
		func(ctx context.Context, members []BatchMember) []BatchOutcome {
			tenants := make([]string, len(members))
			for i, mb := range members {
				tenants[i] = mb.Spec.Tenant
			}
			mu.Lock()
			batches = append(batches, tenants)
			mu.Unlock()
			return proveAll(ctx, members)
		})
	cfg.BatchMax = 2
	m := openManager(t, cfg)

	var ids []string
	for _, tenant := range []string{"a", "b", "a", "b"} {
		id, err := m.Submit(Spec{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if info := waitTerminal(t, m, id); info.State != StateDone {
			t.Fatalf("job %s state %s, want done", id, info.State)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tenants := range batches {
		for _, tn := range tenants[1:] {
			if tn != tenants[0] {
				t.Errorf("batch mixes tenants %v", tenants)
			}
		}
	}
}

// The batched hard-kill crash test mirrors TestCrashKillAndRecover: the
// child coalesces four jobs into one batch, journals every member
// running, and stalls inside BatchExec until the parent SIGKILLs it.
// Recovery must replay every member to exactly one terminal state with
// the interrupted attempt refunded — a batch crash is indistinguishable
// from four solo crashes.

const (
	batchCrashChildEnv = "NOCAP_JOBS_BATCH_CRASH_CHILD"
	batchCrashDirEnv   = "NOCAP_JOBS_BATCH_CRASH_DIR"
)

// TestBatchCrashChildProcess is only meaningful as a re-exec target; it
// skips itself in a normal test run.
func TestBatchCrashChildProcess(t *testing.T) {
	if os.Getenv(batchCrashChildEnv) != "1" {
		t.Skip("crash-test child (driven by TestBatchCrashKillAndRecover)")
	}
	dir := os.Getenv(batchCrashDirEnv)
	m, err := Open(Config{
		Dir: dir,
		Exec: func(ctx context.Context, spec Spec) (Result, error) {
			<-ctx.Done()
			return Result{}, ctx.Err()
		},
		// The batch announces each member with a marker file, then stalls
		// until the parent kills the process.
		BatchKey: func(spec Spec) (string, bool) { return "k", true },
		BatchExec: func(ctx context.Context, members []BatchMember) []BatchOutcome {
			for _, mb := range members {
				f, err := os.CreateTemp(dir, "batch-marker-*")
				if err == nil {
					f.Close()
				}
				_ = mb
			}
			<-members[0].Ctx.Done()
			outs := make([]BatchOutcome, len(members))
			for i := range outs {
				outs[i] = BatchOutcome{Err: members[i].Ctx.Err()}
			}
			return outs
		},
		BatchWindow: 100 * time.Millisecond,
		BatchMax:    4,
		Workers:     2,
		MaxPending:  16,
	})
	if err != nil {
		t.Fatalf("child Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Submit(Spec{Payload: json.RawMessage(fmt.Sprintf("%d", i))}); err != nil {
			t.Fatalf("child Submit %d: %v", i, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "submitted"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Minute) // the parent's SIGKILL ends this
}

func TestBatchCrashKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	snap := leakcheck.Take()

	child := exec.Command(os.Args[0], "-test.run=^TestBatchCrashChildProcess$", "-test.v")
	child.Env = append(os.Environ(), batchCrashChildEnv+"=1", batchCrashDirEnv+"="+dir)
	if err := child.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	reaped := false
	defer func() {
		if !reaped {
			child.Process.Kill()
			child.Wait()
		}
	}()

	// Kill only after every member of the batch is journaled running and
	// mid-flight inside BatchExec.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, subErr := os.Stat(filepath.Join(dir, "submitted"))
		markers, _ := filepath.Glob(filepath.Join(dir, "batch-marker-*"))
		if subErr == nil && len(markers) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never reached the kill window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatalf("kill child: %v", err)
	}
	child.Wait()
	reaped = true

	accepted := map[string]bool{}
	for _, r := range journalRecords(t, dir) {
		switch r.State {
		case recAccepted:
			accepted[r.Job] = true
		case recDone, recFailed, recCancelled:
			t.Fatalf("terminal record %+v journaled before the kill", r)
		}
	}
	if len(accepted) != 4 {
		t.Fatalf("%d accepted jobs survived the kill, want 4", len(accepted))
	}

	// Recovery: reopen with a working batched pipeline; the re-enqueued
	// members coalesce again and prove.
	m, err := Open(Config{
		Dir: dir,
		Exec: func(ctx context.Context, spec Spec) (Result, error) {
			return Result{Proof: append([]byte("solo-"), spec.Payload...)}, nil
		},
		BatchKey:    func(spec Spec) (string, bool) { return "k", true },
		BatchExec:   proveAll,
		BatchWindow: 50 * time.Millisecond,
		BatchMax:    4,
		Workers:     2,
		MaxPending:  16,
	})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	}()

	if mm := m.Metrics(); mm.RecoveredJobs == 0 {
		t.Fatal("no job was recovered from a mid-batch crash")
	}
	for id := range accepted {
		info := waitTerminal(t, m, id)
		if info.State != StateDone {
			t.Fatalf("job %s state %s (err %q), want done after batch crash recovery", id, info.State, info.Error)
		}
		// The crash-interrupted batched attempt is refunded, exactly like
		// a solo crash.
		if info.Attempts != 1 {
			t.Fatalf("job %s attempts %d, want 1", id, info.Attempts)
		}
		if proof, err := m.Proof(id); err != nil || len(proof) == 0 {
			t.Fatalf("Proof(%s): %q, %v", id, proof, err)
		}
	}
	assertExactlyOneTerminal(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m.Close(ctx)
	cancel()
	snap.Check(t)
}
