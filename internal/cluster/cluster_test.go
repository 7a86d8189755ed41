package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocap/internal/jobs"
	"nocap/internal/leakcheck"
)

// harness runs a coordinator behind a real unencrypted-HTTP/2 server,
// exactly as the cluster runs in production (not httptest, which would
// pin the worker plane to HTTP/1.1).
type harness struct {
	t     *testing.T
	coord *Coordinator
	url   string
	srv   *http.Server
	done  chan struct{}
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := New(cfg)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/poll", c.HandlePoll)
	mux.HandleFunc("POST /cluster/heartbeat", c.HandleHeartbeat)
	mux.HandleFunc("POST /cluster/complete", c.HandleComplete)
	mux.HandleFunc("GET /cluster/nodes", c.HandleNodes)
	protos := new(http.Protocols)
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	srv := &http.Server{Handler: mux, Protocols: protos}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, coord: c, url: "http://" + ln.Addr().String(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = srv.Serve(ln)
	}()
	return h
}

func (h *harness) close() {
	h.t.Helper()
	h.coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.t.Errorf("server shutdown: %v", err)
	}
	<-h.done
}

// echoExec is a stub prover: the proof is a function of the payload, so
// tests can assert byte-identical results across reassignment.
func echoExec(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
	return jobs.Result{Proof: append([]byte("proof:"), spec.Payload...)}, nil
}

func echoBatch(ctx context.Context, members []jobs.BatchMember) []jobs.BatchOutcome {
	outs := make([]jobs.BatchOutcome, len(members))
	for i, mb := range members {
		if mb.Ctx != nil && mb.Ctx.Err() != nil {
			outs[i] = jobs.BatchOutcome{Err: mb.Ctx.Err()}
			continue
		}
		outs[i] = jobs.BatchOutcome{Result: jobs.Result{Proof: append([]byte("proof:"), mb.Spec.Payload...)}}
	}
	return outs
}

func newTestWorker(t *testing.T, h *harness, id string, exec jobs.Exec, batch jobs.BatchExec) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: h.url,
		ID:          id,
		Slots:       2,
		PollWait:    200 * time.Millisecond,
		RetryBase:   5 * time.Millisecond,
		Exec:        exec,
		BatchExec:   batch,
		Seed:        42,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func stopWorker(t *testing.T, w *Worker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Stop(ctx); err != nil {
		t.Errorf("worker stop: %v", err)
	}
}

func TestClusterSoloRoundtrip(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: 500 * time.Millisecond})
	w := newTestWorker(t, h, "node-a", echoExec, nil)
	w.Start()

	res, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`{"x":1}`), Tenant: "t0"})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if got, want := string(res.Proof), `proof:{"x":1}`; got != want {
		t.Fatalf("proof = %q, want %q", got, want)
	}
	m := h.coord.Metrics()
	if m.Dispatches != 1 || m.Completions != 1 {
		t.Fatalf("dispatches=%d completions=%d, want 1/1", m.Dispatches, m.Completions)
	}
	if len(m.Nodes) != 1 || m.Nodes[0].State != "healthy" {
		t.Fatalf("nodes = %+v, want one healthy node", m.Nodes)
	}

	stopWorker(t, w)
	h.close()
	snap.Check(t)
}

func TestClusterBatchRoundtripMemberScoped(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: 500 * time.Millisecond})
	// A batch executor that fails exactly one member: failure must stay
	// member-scoped.
	batch := func(ctx context.Context, members []jobs.BatchMember) []jobs.BatchOutcome {
		outs := echoBatch(ctx, members)
		for i, mb := range members {
			if string(mb.Spec.Payload) == `"poison"` {
				outs[i] = jobs.BatchOutcome{Err: errors.New("poisoned member")}
			}
		}
		return outs
	}
	w := newTestWorker(t, h, "node-a", echoExec, batch)
	w.Start()

	members := []jobs.BatchMember{
		{ID: "j1", Spec: jobs.Spec{Payload: json.RawMessage(`"a"`), Tenant: "t0"}, Ctx: context.Background()},
		{ID: "j2", Spec: jobs.Spec{Payload: json.RawMessage(`"poison"`), Tenant: "t0"}, Ctx: context.Background()},
		{ID: "j3", Spec: jobs.Spec{Payload: json.RawMessage(`"c"`), Tenant: "t0"}, Ctx: context.Background()},
	}
	outs := h.coord.BatchExec(context.Background(), members)
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outs))
	}
	if outs[0].Err != nil || string(outs[0].Result.Proof) != `proof:"a"` {
		t.Fatalf("member 0: %+v", outs[0])
	}
	if outs[1].Err == nil {
		t.Fatalf("member 1 should have failed")
	}
	if outs[2].Err != nil || string(outs[2].Result.Proof) != `proof:"c"` {
		t.Fatalf("member 2: %+v", outs[2])
	}

	stopWorker(t, w)
	h.close()
	snap.Check(t)
}

// TestClusterLeaseExpiryResolvesLeaseLost: a worker that takes the
// assignment and then goes silent (killed mid-proof) must not strand
// the unit — the reaper expires the lease and Exec returns ErrLeaseLost
// for the jobs layer to refund.
func TestClusterLeaseExpiryResolvesLeaseLost(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: 200 * time.Millisecond, FailThreshold: 1})
	started := make(chan struct{}, 1)
	var w *Worker
	hang := func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		started <- struct{}{}
		w.Kill() // node dies mid-proof: no heartbeat, no completion
		<-ctx.Done()
		return jobs.Result{}, ctx.Err()
	}
	w = newTestWorker(t, h, "node-a", hang, nil)
	w.Start()

	_, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`1`), Tenant: "t0"})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Exec err = %v, want ErrLeaseLost", err)
	}
	<-started
	m := h.coord.Metrics()
	if m.LeaseExpiries == 0 {
		t.Fatalf("lease expiries = 0, want > 0")
	}
	if len(m.Nodes) != 1 || m.Nodes[0].State != "dead" {
		t.Fatalf("node state = %+v, want dead (FailThreshold=1)", m.Nodes)
	}

	h.close()
	snap.Check(t)
}

// TestClusterDuplicateCompletionDiscarded: a completion for an expired
// lease must be dropped (first terminal record wins) and counted.
func TestClusterDuplicateCompletionDiscarded(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: 60 * time.Second})
	defer func() {
		h.close()
		snap.Check(t)
	}()

	// Drive the RPCs by hand: poll out a lease, expire it manually,
	// then complete it.
	w := newTestWorker(t, h, "node-a", echoExec, nil)

	resCh := make(chan error, 1)
	go func() {
		_, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`1`), Tenant: "t0"})
		resCh <- err
	}()

	var pr PollResponse
	deadline := time.Now().Add(5 * time.Second)
	for pr.Assignment == nil {
		if time.Now().After(deadline) {
			t.Fatal("never received an assignment")
		}
		if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 500}, &pr); err != nil {
			t.Fatal(err)
		}
	}

	// Force-expire the lease the way the reaper would.
	h.coord.mu.Lock()
	ls := h.coord.lss[pr.Assignment.Lease]
	if ls == nil {
		h.coord.mu.Unlock()
		t.Fatal("lease not found")
	}
	delete(h.coord.lss, pr.Assignment.Lease)
	h.coord.expiries++
	ls.unit.resolveLocked(unitResult{err: fmt.Errorf("expired: %w", ErrLeaseLost)})
	h.coord.mu.Unlock()

	if err := <-resCh; !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Exec err = %v, want ErrLeaseLost", err)
	}

	// The resurrected node now completes the stale lease.
	var cr CompleteResponse
	err := w.rpc(context.Background(), "/cluster/complete", CompleteRequest{
		Node: "node-a", Lease: pr.Assignment.Lease,
		Outcomes: []JobOutcome{{ID: pr.Assignment.Jobs[0].ID, Proof: []byte("stale")}},
	}, &cr)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Discarded {
		t.Fatal("stale completion was not discarded")
	}
	if m := h.coord.Metrics(); m.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", m.Duplicates)
	}
}

// TestClusterCompleteChecksHolder: only the node holding a lease may
// complete it. A completion from any other node is discarded and
// counted without resolving the unit or touching the holder's health; a
// completion naming no node is rejected outright and leaves no phantom
// row in the health table; an unknown lease is a discarded duplicate.
func TestClusterCompleteChecksHolder(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: 60 * time.Second})
	defer func() {
		h.close()
		snap.Check(t)
	}()
	w := newTestWorker(t, h, "node-a", echoExec, nil)

	type result struct {
		res jobs.Result
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		res, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`1`), Tenant: "t0"})
		resCh <- result{res, err}
	}()
	var pr PollResponse
	for pr.Assignment == nil {
		if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 500}, &pr); err != nil {
			t.Fatal(err)
		}
	}
	lease, job := pr.Assignment.Lease, pr.Assignment.Jobs[0].ID

	for _, tc := range []struct {
		name, node, lease string
		wantRejected      bool
		wantDiscarded     bool
		wantDuplicates    int64
	}{
		{name: "other node", node: "node-b", lease: lease, wantDiscarded: true, wantDuplicates: 1},
		{name: "empty node", node: "", lease: lease, wantRejected: true, wantDuplicates: 1},
		{name: "unknown lease", node: "node-a", lease: "lease-999", wantDiscarded: true, wantDuplicates: 2},
		{name: "holder", node: "node-a", lease: lease, wantDuplicates: 2},
	} {
		var cr CompleteResponse
		err := w.rpc(context.Background(), "/cluster/complete", CompleteRequest{
			Node: tc.node, Lease: tc.lease,
			Outcomes: []JobOutcome{{ID: job, Proof: []byte("from " + tc.name)}},
		}, &cr)
		if rejected := err != nil; rejected != tc.wantRejected || (rejected && !strings.Contains(err.Error(), "status 400")) {
			t.Fatalf("%s: rpc err = %v, want rejected=%v (400)", tc.name, err, tc.wantRejected)
		}
		if cr.Discarded != tc.wantDiscarded {
			t.Errorf("%s: discarded = %v, want %v", tc.name, cr.Discarded, tc.wantDiscarded)
		}
		m := h.coord.Metrics()
		if m.Duplicates != tc.wantDuplicates {
			t.Errorf("%s: duplicates = %d, want %d", tc.name, m.Duplicates, tc.wantDuplicates)
		}
		for _, n := range m.Nodes {
			if n.Node == "" {
				t.Errorf("%s: phantom empty-named node in the health table: %+v", tc.name, m.Nodes)
			}
		}
		if tc.name == "holder" {
			break
		}
		// Nothing but the holder's own completion resolves the unit or
		// moves the holder's row.
		select {
		case r := <-resCh:
			t.Fatalf("%s: unit resolved (%q, %v) by a completion that was not the holder's", tc.name, r.res.Proof, r.err)
		default:
		}
		if m.LiveLeases != 1 || m.Completions != 0 {
			t.Errorf("%s: live leases %d completions %d, want the lease still held", tc.name, m.LiveLeases, m.Completions)
		}
		for _, n := range m.Nodes {
			if n.Node == "node-a" && (n.Inflight != 1 || n.State != "healthy" || n.Fails != 0) {
				t.Errorf("%s: holder row %+v, want untouched (healthy, 1 inflight)", tc.name, n)
			}
		}
	}
	if r := <-resCh; r.err != nil || string(r.res.Proof) != "from holder" {
		t.Fatalf("Exec = (%q, %v), want the holder's proof", r.res.Proof, r.err)
	}
	if m := h.coord.Metrics(); m.Completions != 1 || m.LiveLeases != 0 {
		t.Fatalf("completions %d live leases %d after the holder completed, want 1 and 0", m.Completions, m.LiveLeases)
	}
}

// TestClusterLocalFallback: with zero live workers and a Local executor,
// Exec proves in-process instead of queueing forever.
func TestClusterLocalFallback(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{
		LeaseTTL: 100 * time.Millisecond,
		Local:    echoBatch,
	})
	res, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`7`), Tenant: "t0"})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if string(res.Proof) != "proof:7" {
		t.Fatalf("proof = %q", res.Proof)
	}
	if m := h.coord.Metrics(); m.LocalFallbacks != 1 {
		t.Fatalf("local fallbacks = %d, want 1", m.LocalFallbacks)
	}
	h.close()
	snap.Check(t)
}

// TestClusterQueuedUnitReclaimedForLocal: the fleet dies AFTER a unit
// is queued; the await loop must reclaim it for local execution rather
// than hang.
func TestClusterQueuedUnitReclaimedForLocal(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{
		LeaseTTL:  100 * time.Millisecond,
		DeadAfter: 200 * time.Millisecond,
		Local:     echoBatch,
	})
	// One poll registers the node as live, then the "fleet" goes silent.
	w := newTestWorker(t, h, "node-a", echoExec, nil)
	var pr PollResponse
	if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 1}, &pr); err != nil {
		t.Fatal(err)
	}
	res, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`9`), Tenant: "t0"})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if string(res.Proof) != "proof:9" {
		t.Fatalf("proof = %q", res.Proof)
	}
	h.close()
	snap.Check(t)
}

// TestClusterStrideFairness: with two tenants at weights 3:1 and a
// backlog of cheap units, dispatch order must honour the weights —
// the heavy tenant gets ~3x the early slots but the light tenant is
// never starved.
func TestClusterStrideFairness(t *testing.T) {
	snap := leakcheck.Take()
	weights := map[string]int{"heavy": 3, "light": 1}
	h := newHarness(t, Config{
		LeaseTTL:     time.Second,
		TenantWeight: func(id string) int { return weights[id] },
	})

	const perTenant = 8
	var wg sync.WaitGroup
	for i := 0; i < perTenant; i++ {
		for _, ten := range []string{"heavy", "light"} {
			wg.Add(1)
			go func(ten string, i int) {
				defer wg.Done()
				payload, _ := json.Marshal(map[string]any{"t": ten, "i": i})
				if _, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: payload, Tenant: ten}); err != nil {
					t.Errorf("Exec(%s/%d): %v", ten, i, err)
				}
			}(ten, i)
		}
	}
	// Let the queue fill before the single-slot worker starts draining
	// it, so dispatch order is observable.
	waitFor(t, "all units queued", func() bool { return h.coord.Metrics().QueuedUnits == 2*perTenant })

	// One worker, one slot: dispatch order == execution order.
	dispatchOrder := make(chan string, 2*perTenant)
	wexec := func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
		var m map[string]any
		_ = json.Unmarshal(spec.Payload, &m)
		dispatchOrder <- m["t"].(string)
		return jobs.Result{Proof: []byte("p")}, nil
	}
	w, err := NewWorker(WorkerConfig{
		Coordinator: h.url, ID: "node-a", Slots: 1,
		PollWait: 200 * time.Millisecond, RetryBase: 5 * time.Millisecond,
		Exec: wexec, Seed: 42, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	wg.Wait()
	close(dispatchOrder)

	var heavySeen, lightSeen, firstLight int
	i := 0
	for ten := range dispatchOrder {
		i++
		switch ten {
		case "heavy":
			heavySeen++
		case "light":
			lightSeen++
			if firstLight == 0 {
				firstLight = i
			}
		}
	}
	if heavySeen != perTenant || lightSeen != perTenant {
		t.Fatalf("saw heavy=%d light=%d, want %d each", heavySeen, lightSeen, perTenant)
	}
	// Starvation-freedom: the light tenant's first unit lands within the
	// first weight-sum+1 dispatches.
	if firstLight > 5 {
		t.Fatalf("light tenant first served at dispatch %d, want <= 5", firstLight)
	}

	stopWorker(t, w)
	h.close()
	snap.Check(t)
}

// drrRig drives a coordinator's queue directly: units go in through
// enqueueLocked and come out through tryAssignLocked for one healthy
// node, with no HTTP and no clock.
type drrRig struct {
	c   *Coordinator
	n   *node
	seq int
}

func (r *drrRig) queue(ten string, k int) []*unit {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	var us []*unit
	for range k {
		r.seq++
		u := &unit{tenant: ten, res: make(chan unitResult, 1), members: []jobs.BatchMember{
			{ID: fmt.Sprintf("%s-%d", ten, r.seq), Ctx: context.Background()},
		}}
		r.c.enqueueLocked(u)
		us = append(us, u)
	}
	return us
}

// dispatch leases the next unit and returns it, or nil when none is
// queued.
func (r *drrRig) dispatch() *unit {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	a := r.c.tryAssignLocked(r.n, nil)
	if a == nil {
		return nil
	}
	return r.c.lss[a.Lease].unit
}

// TestClusterDispatchDRR: cross-node dispatch runs the worker pool's
// DRR. An idle tenant banks no credit, so while two tenants are
// backlogged neither gets more than K = Σ_{j≠i} w_j + max_j w_j
// consecutive dispatches (DESIGN.md §12), whatever either was served
// before. A queued unit whose caller gives up leaves the queue at
// once, and is never leased or charged against its tenant.
func TestClusterDispatchDRR(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights map[string]int
		run     func(t *testing.T, r *drrRig)
	}{
		{"idle tenant banks no credit", map[string]int{"A": 1, "B": 1}, func(t *testing.T, r *drrRig) {
			r.queue("B", 1)
			r.dispatch()
			for range 50 {
				r.queue("A", 1)
				r.dispatch()
			}
			r.queue("A", 20)
			r.queue("B", 20)
			const K = 1 + 1 // Σ_{j≠i} w_j + max_j w_j
			left := map[string]int{"A": 20, "B": 20}
			var order []string
			run := 0
			for u := r.dispatch(); u != nil; u = r.dispatch() {
				backlogged := left["A"] > 0 && left["B"] > 0
				if len(order) > 0 && order[len(order)-1] == u.tenant {
					run++
				} else {
					run = 1
				}
				if backlogged && run > K {
					t.Fatalf("tenant %s got %d consecutive dispatches with both backlogged, K = %d: %v", u.tenant, run, K, append(order, u.tenant))
				}
				left[u.tenant]--
				order = append(order, u.tenant)
			}
			if len(order) != 40 {
				t.Fatalf("dispatched %d units, want 40", len(order))
			}
		}},
		{"cancelled queued unit leaves at once uncharged", map[string]int{"A": 2, "B": 1}, func(t *testing.T, r *drrRig) {
			gone := r.queue("A", 3)[0]
			r.queue("B", 2)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if res := r.c.await(ctx, gone); !errors.Is(res.err, context.Canceled) {
				t.Fatalf("await of a cancelled caller = %+v, want context.Canceled", res)
			}
			if q := r.c.Metrics().QueuedUnits; q != 4 {
				t.Fatalf("QueuedUnits = %d right after the cancel, want 4", q)
			}
			// Had the cancelled unit been charged, A's quantum of 2 would
			// have covered it and one more: A, B, A, B.
			var order []string
			for u := r.dispatch(); u != nil; u = r.dispatch() {
				if u == gone {
					t.Fatal("the cancelled unit was leased")
				}
				order = append(order, u.tenant)
			}
			if got := strings.Join(order, ""); got != "AABB" {
				t.Fatalf("dispatch order %s, want AABB", got)
			}
			if m := r.c.Metrics(); m.Dispatches != 4 || m.QueuedUnits != 0 {
				t.Fatalf("dispatches = %d, queued = %d; want 4, 0", m.Dispatches, m.QueuedUnits)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := leakcheck.Take()
			// An hour-long TTL keeps the reaper from ticking during the test.
			c := New(Config{LeaseTTL: time.Hour, Seed: 1, TenantWeight: func(id string) int { return tc.weights[id] }})
			c.mu.Lock()
			n := c.touchNodeLocked("node-a")
			c.mu.Unlock()
			tc.run(t, &drrRig{c: c, n: n})
			c.Close()
			snap.Check(t)
		})
	}
}

// TestClusterLocalityPlacement: with two queued units of different keys
// and a node warm on the second key, the warm unit is picked first.
func TestClusterLocalityPlacement(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{
		LeaseTTL:    time.Second,
		LocalityKey: func(spec jobs.Spec) (string, bool) { return string(spec.Payload), true },
	})
	defer func() {
		h.close()
		snap.Check(t)
	}()

	var wg sync.WaitGroup
	results := make([]error, 2)
	for i, payload := range []string{`"cold"`, `"warmkey"`} {
		wg.Add(1)
		go func(i int, payload string) {
			defer wg.Done()
			_, results[i] = h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(payload), Tenant: "t0"})
		}(i, payload)
	}
	// Wait until both units are queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h.coord.Metrics().QueuedUnits == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("units never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	w := newTestWorker(t, h, "node-a", echoExec, nil)
	var pr PollResponse
	if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", Warm: []string{`"warmkey"`}, WaitMS: 500}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Assignment == nil {
		t.Fatal("no assignment")
	}
	if pr.Assignment.Key != `"warmkey"` {
		t.Fatalf("assignment key = %q, want the node-warm key", pr.Assignment.Key)
	}
	// Finish both units so the Exec goroutines exit.
	complete := func(a *Assignment) {
		var cr CompleteResponse
		outs := make([]JobOutcome, len(a.Jobs))
		for i, j := range a.Jobs {
			outs[i] = JobOutcome{ID: j.ID, Proof: append([]byte("proof:"), j.Payload...)}
		}
		if err := w.rpc(context.Background(), "/cluster/complete", CompleteRequest{Node: "node-a", Lease: a.Lease, Outcomes: outs}, &cr); err != nil {
			t.Fatal(err)
		}
	}
	complete(pr.Assignment)
	pr = PollResponse{}
	for pr.Assignment == nil {
		if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 500}, &pr); err != nil {
			t.Fatal(err)
		}
	}
	complete(pr.Assignment)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("Exec %d: %v", i, err)
		}
	}
}

// TestClusterSuspectProbation: a node that loses a lease goes suspect
// and is restricted to one in-flight unit until a completion lands.
func TestClusterSuspectProbation(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: time.Second, FailThreshold: 3})
	defer func() {
		h.close()
		snap.Check(t)
	}()

	h.coord.mu.Lock()
	n := h.coord.touchNodeLocked("node-a")
	n.state = nodeSuspect
	n.inflight = 1
	h.coord.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := h.coord.Exec(context.Background(), jobs.Spec{Payload: json.RawMessage(`1`), Tenant: "t0"})
		done <- err
	}()
	w := newTestWorker(t, h, "node-a", echoExec, nil)
	var pr PollResponse
	if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 100}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Assignment != nil {
		t.Fatal("suspect node with an inflight unit was assigned more work")
	}

	h.coord.mu.Lock()
	n.inflight = 0
	h.coord.mu.Unlock()
	for pr.Assignment == nil {
		if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 500}, &pr); err != nil {
			t.Fatal(err)
		}
	}
	var cr CompleteResponse
	if err := w.rpc(context.Background(), "/cluster/complete", CompleteRequest{
		Node: "node-a", Lease: pr.Assignment.Lease,
		Outcomes: []JobOutcome{{ID: pr.Assignment.Jobs[0].ID, Proof: []byte("p")}},
	}, &cr); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if m := h.coord.Metrics(); len(m.Nodes) != 1 || m.Nodes[0].State != "healthy" {
		t.Fatalf("node = %+v, want healthy after completion", m.Nodes)
	}
}

// TestClusterLiveNodesMatchesHasLiveWorkers: a node silent past
// DeadAfter stops counting as live at once, in Metrics as in
// HasLiveWorkers, even while the reaper has not yet marked it dead.
func TestClusterLiveNodesMatchesHasLiveWorkers(t *testing.T) {
	snap := leakcheck.Take()
	// An hour-long TTL keeps the reaper from ticking during the test.
	c := New(Config{LeaseTTL: time.Hour, Seed: 1})
	defer func() {
		c.Close()
		snap.Check(t)
	}()

	c.mu.Lock()
	n := c.touchNodeLocked("node-a")
	c.mu.Unlock()
	if m := c.Metrics(); m.LiveNodes != 1 || !c.HasLiveWorkers() {
		t.Fatalf("fresh node: LiveNodes = %d, HasLiveWorkers = %v; want 1, true", m.LiveNodes, c.HasLiveWorkers())
	}

	c.mu.Lock()
	n.lastSeen = time.Now().Add(-c.cfg.DeadAfter - time.Second)
	c.mu.Unlock()
	m := c.Metrics()
	if m.LiveNodes != 0 || c.HasLiveWorkers() {
		t.Fatalf("silent node: LiveNodes = %d, HasLiveWorkers = %v; want 0, false", m.LiveNodes, c.HasLiveWorkers())
	}
	if len(m.Nodes) != 1 || m.Nodes[0].State == "dead" {
		t.Fatalf("nodes = %+v, want one node the reaper has not yet marked dead", m.Nodes)
	}
}

// TestClusterRetryAfterHint: the hint defaults to 5s with no polls and
// tracks the poll EWMA (clamped to >= 1s) once polls arrive.
func TestClusterRetryAfterHint(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Second})
	defer h.close()
	if got := h.coord.RetryAfterHint(); got != 5*time.Second {
		t.Fatalf("hint with no polls = %v, want 5s", got)
	}
	w := newTestWorker(t, h, "node-a", echoExec, nil)
	for i := 0; i < 3; i++ {
		var pr PollResponse
		if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 1}, &pr); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.coord.RetryAfterHint(); got < time.Second || got > 30*time.Second {
		t.Fatalf("hint = %v, want within [1s, 30s]", got)
	}
}

// TestClusterCancelPropagation: cancelling the Exec context while the
// unit is leased surfaces the member on the next heartbeat's Cancelled
// list so the worker can stop proving it.
func TestClusterCancelPropagation(t *testing.T) {
	snap := leakcheck.Take()
	h := newHarness(t, Config{LeaseTTL: 60 * time.Second})
	defer func() {
		h.close()
		snap.Check(t)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.coord.Exec(ctx, jobs.Spec{Payload: json.RawMessage(`1`), Tenant: "t0"})
		done <- err
	}()
	w := newTestWorker(t, h, "node-a", echoExec, nil)
	var pr PollResponse
	for pr.Assignment == nil {
		if err := w.rpc(context.Background(), "/cluster/poll", PollRequest{Node: "node-a", WaitMS: 500}, &pr); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec err = %v, want context.Canceled", err)
	}
	var hr HeartbeatResponse
	if err := w.rpc(context.Background(), "/cluster/heartbeat", HeartbeatRequest{Node: "node-a", Leases: []string{pr.Assignment.Lease}}, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Cancelled) != 1 || hr.Cancelled[0] != pr.Assignment.Jobs[0].ID {
		t.Fatalf("heartbeat cancelled = %v, want [%s]", hr.Cancelled, pr.Assignment.Jobs[0].ID)
	}
	// A late completion resolves the lease bookkeeping without a second
	// delivery.
	var cr CompleteResponse
	if err := w.rpc(context.Background(), "/cluster/complete", CompleteRequest{
		Node: "node-a", Lease: pr.Assignment.Lease,
		Outcomes: []JobOutcome{{ID: pr.Assignment.Jobs[0].ID, Error: "canceled", Code: "canceled"}},
	}, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Discarded {
		t.Fatal("live lease completion reported discarded")
	}
}

// TestWorkerHTTP2: the worker plane really negotiates HTTP/2 over
// cleartext — the co-design bet (multiplexed long-polls + completions
// on one connection) only pays off if h2c actually engages.
func TestWorkerHTTP2(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Second})
	defer h.close()
	var gotProto atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("POST /probe", func(w http.ResponseWriter, r *http.Request) {
		gotProto.Store(r.Proto)
		writeJSON(w, map[string]string{})
	})
	protos := new(http.Protocols)
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	srv := &http.Server{Handler: mux, Protocols: protos}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	defer func() { _ = srv.Shutdown(context.Background()); <-done }()

	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(), ID: "node-a",
		Exec: echoExec, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if err := w.rpc(context.Background(), "/probe", map[string]string{}, &out); err != nil {
		t.Fatal(err)
	}
	if proto := gotProto.Load(); proto != "HTTP/2.0" {
		t.Fatalf("worker RPC arrived as %v, want HTTP/2.0", proto)
	}
}

// TestClusterClocksAreJittered pins the two periodic clocks at their
// production call sites, so replacing either draw with a fixed interval
// (which would synchronize the fleet into heartbeat and probe
// stampedes) fails here. A worker's renewal interval lands in
// [ttl/6, ttl/3) — at least three renewal opportunities fit inside one
// TTL, or a single dropped beat could expire a healthy lease — and the
// coordinator's dead-node probe delay in [ProbeBase/2, ProbeBase); both
// essentially never repeat.
func TestClusterClocksAreJittered(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", ID: "n", Exec: echoExec, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const base = 5 * time.Second
	c := New(Config{ProbeBase: base, Seed: 11})
	defer c.Close()
	jittered := func(name string, lo, hi time.Duration, draw func() time.Duration) {
		t.Helper()
		const n = 500
		seen := make(map[time.Duration]struct{}, n)
		for i := 0; i < n; i++ {
			d := draw()
			if d < lo || d >= hi {
				t.Fatalf("%s = %v outside [%v, %v)", name, d, lo, hi)
			}
			seen[d] = struct{}{}
		}
		if len(seen) < n*9/10 {
			t.Errorf("%s: only %d/%d distinct draws — jitter has collapsed", name, len(seen), n)
		}
	}
	for _, ttl := range []time.Duration{100 * time.Millisecond, 3 * time.Second, time.Minute} {
		jittered("heartbeatEvery", ttl/6, ttl/3, func() time.Duration { return w.heartbeatEvery(ttl) })
	}
	jittered("probeDelayLocked", base/2, base, func() time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.probeDelayLocked()
	})
}
