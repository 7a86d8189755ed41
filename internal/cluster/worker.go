package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nocap/internal/backoff"
	"nocap/internal/faultinject"
	"nocap/internal/jobs"
)

// WorkerConfig configures a Worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator base URL (e.g. http://host:port).
	Coordinator string
	// ID names this node; required, must be stable across heartbeats.
	ID string
	// Slots is the number of assignments proved concurrently (default 1).
	Slots int
	// Key is sent as X-Cluster-Key on every RPC (empty → no auth).
	Key string
	// PollWait is the long-poll window requested per poll (default 2s).
	PollWait time.Duration
	// RetryBase shapes the full-jitter backoff after a failed poll or
	// complete RPC (default 50ms, doubling to 2s).
	RetryBase time.Duration
	// Exec and BatchExec supply the node's executor, jobs.Unit(Exec,
	// BatchExec): a unit of one proves through Exec, a larger one through
	// BatchExec — or member by member through Exec when BatchExec is nil.
	// Exec is required.
	Exec      jobs.Exec
	BatchExec jobs.BatchExec
	// Seed seeds heartbeat/backoff jitter (0 → time-based).
	Seed int64
	// Logf, when set, receives worker lifecycle logs.
	Logf func(format string, args ...any)
}

// Worker is one prover node: it pulls assignments from the coordinator
// (work-stealing), heartbeats its leases at a fully jittered interval,
// proves, and reports outcomes. Kill() models node death for chaos
// tests: everything aborts instantly and no completion is ever sent.
type Worker struct {
	cfg    WorkerConfig
	exec   jobs.BatchExec
	client *http.Client

	killCtx    context.Context
	killCancel context.CancelFunc
	killed     atomic.Bool

	pollCtx    context.Context
	pollCancel context.CancelFunc

	mu   sync.Mutex
	rng  *rand.Rand
	warm []string // recently proven locality keys, newest last

	wg sync.WaitGroup
}

// NewWorker builds a worker with an h2c-only HTTP/2 client.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" || cfg.ID == "" || cfg.Exec == nil {
		return nil, fmt.Errorf("cluster: WorkerConfig requires Coordinator, ID, and Exec")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 2 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	protos := new(http.Protocols)
	protos.SetUnencryptedHTTP2(true)
	tr := &http.Transport{Protocols: protos}
	w := &Worker{
		cfg:    cfg,
		exec:   jobs.Unit(cfg.Exec, cfg.BatchExec),
		client: &http.Client{Transport: tr},
		rng:    rand.New(rand.NewSource(seed)),
	}
	w.killCtx, w.killCancel = context.WithCancel(context.Background())
	w.pollCtx, w.pollCancel = context.WithCancel(w.killCtx)
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Start launches the poll loop.
func (w *Worker) Start() {
	w.wg.Add(1)
	sem := make(chan struct{}, w.cfg.Slots)
	go func() {
		defer w.wg.Done()
		retry := w.cfg.RetryBase
		for {
			select {
			case sem <- struct{}{}:
			case <-w.pollCtx.Done():
				return
			}
			a, err := w.poll()
			if err != nil {
				<-sem
				if w.pollCtx.Err() != nil {
					return
				}
				w.sleep(w.between(0, retry))
				if retry < 2*time.Second {
					retry *= 2
				}
				continue
			}
			retry = w.cfg.RetryBase
			if a == nil {
				<-sem
				continue
			}
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				defer func() { <-sem }()
				w.runAssignment(a)
			}()
		}
	}()
}

// Stop drains gracefully: no more polls, in-flight assignments finish
// and complete. Returns ctx.Err() if draining outlives ctx.
func (w *Worker) Stop(ctx context.Context) error {
	w.pollCancel()
	done := make(chan struct{})
	go func() { w.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill models node death (in-process SIGKILL): every in-flight HTTP
// request and proving attempt aborts, no completion or heartbeat is
// ever sent again. The coordinator finds out via lease expiry.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.killCancel()
}

// between draws a duration uniform in [lo, hi) from the worker's seeded
// source. Every clock the worker runs (heartbeats, RPC retry backoff) is
// jittered so a coordinator restart cannot synchronize the fleet into a
// reconnect stampede.
func (w *Worker) between(lo, hi time.Duration) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return backoff.Range(w.rng, lo, hi)
}

// heartbeatEvery draws a renewal interval in [ttl/6, ttl/3): several
// beats fit inside one TTL even if a couple are lost, and no two
// workers beat in phase.
func (w *Worker) heartbeatEvery(ttl time.Duration) time.Duration {
	lo := max(ttl/6, time.Millisecond)
	return w.between(lo, 2*lo)
}

func (w *Worker) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.pollCtx.Done():
	}
}

func (w *Worker) warmKeys() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.warm...)
}

func (w *Worker) noteWarm(key string) {
	if key == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, k := range w.warm {
		if k == key {
			w.warm = append(w.warm[:i], w.warm[i+1:]...)
			break
		}
	}
	w.warm = append(w.warm, key)
	if len(w.warm) > warmKeyCap {
		w.warm = w.warm[len(w.warm)-warmKeyCap:]
	}
}

// rpc posts one JSON request. The cluster.rpc.send fault point fires
// before anything leaves the node.
func (w *Worker) rpc(ctx context.Context, path string, in, out any) error {
	if err := faultinject.Check(FIRPCSend); err != nil {
		return err
	}
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.Key != "" {
		req.Header.Set("X-Cluster-Key", w.cfg.Key)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (w *Worker) poll() (*Assignment, error) {
	req := PollRequest{
		Node:   w.cfg.ID,
		Warm:   w.warmKeys(),
		WaitMS: w.cfg.PollWait.Milliseconds(),
	}
	var resp PollResponse
	// Give the HTTP round trip headroom beyond the server-side wait.
	ctx, cancel := context.WithTimeout(w.pollCtx, w.cfg.PollWait+5*time.Second)
	defer cancel()
	if err := w.rpc(ctx, "/cluster/poll", req, &resp); err != nil {
		return nil, err
	}
	return resp.Assignment, nil
}

// runAssignment proves one leased assignment: a heartbeat goroutine
// renews the lease while member attempts run, then outcomes are
// reported with retries. A lost lease (or Kill) abandons everything
// silently — the coordinator has already reassigned the unit, and a
// late completion would be discarded as a duplicate anyway.
func (w *Worker) runAssignment(a *Assignment) {
	ttl := time.Duration(a.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	actx, acancel := context.WithCancel(w.killCtx)
	defer acancel()

	// Per-member contexts (children of actx, released with it) so the
	// coordinator can cancel one member of a batch (DELETE /jobs/id)
	// without disturbing its batch-mates.
	members := make([]jobs.BatchMember, len(a.Jobs))
	mcancel := make(map[string]context.CancelFunc, len(a.Jobs))
	for i, j := range a.Jobs {
		members[i] = jobs.BatchMember{ID: j.ID, Spec: jobs.Spec{Payload: j.Payload}}
		members[i].Ctx, mcancel[j.ID] = context.WithCancel(actx)
	}

	var lost atomic.Bool
	hbDone := make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer close(hbDone)
		for {
			t := time.NewTimer(w.heartbeatEvery(ttl))
			select {
			case <-actx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			if faultinject.Check(FIHeartbeatMiss) != nil {
				w.logf("worker %s: heartbeat.miss injected, skipping beat", w.cfg.ID)
				continue
			}
			var resp HeartbeatResponse
			ctx, cancel := context.WithTimeout(actx, ttl)
			err := w.rpc(ctx, "/cluster/heartbeat", HeartbeatRequest{Node: w.cfg.ID, Leases: []string{a.Lease}}, &resp)
			cancel()
			if err != nil {
				continue // renewal is best-effort; the TTL is the judge
			}
			for _, id := range resp.Lost {
				if id == a.Lease {
					lost.Store(true)
					acancel() // abandon: proving and completion are moot
					return
				}
			}
			for _, id := range resp.Cancelled {
				if cancel := mcancel[id]; cancel != nil {
					cancel()
				}
			}
		}
	}()

	outcomes := w.execute(members)
	acancel()
	<-hbDone

	if w.killed.Load() || lost.Load() {
		return
	}
	w.noteWarm(a.Key)
	w.complete(a, outcomes)
}

// execute proves the assignment's members through the node's executor,
// honouring each member's context. The cluster.worker.exec fault point
// fires per member before any attempt; a member it fails never reaches
// the executor.
func (w *Worker) execute(members []jobs.BatchMember) []JobOutcome {
	outcomes := make([]JobOutcome, len(members))
	var run []jobs.BatchMember
	var slot []int // run[k] is members[slot[k]]
	for i, mb := range members {
		outcomes[i].ID = mb.ID
		if err := faultinject.Check(FIWorkerExec); err != nil {
			outcomes[i].Error, outcomes[i].Code = err.Error(), outcomeCode(err)
			continue
		}
		run = append(run, mb)
		slot = append(slot, i)
	}
	var outs []jobs.BatchOutcome
	if len(run) > 0 {
		outs = w.exec(w.killCtx, run)
	}
	for k, i := range slot {
		switch {
		case k >= len(outs):
			outcomes[i].Error, outcomes[i].Code = "cluster: executor returned no outcome", "internal"
		case outs[k].Err != nil:
			outcomes[i].Error, outcomes[i].Code = outs[k].Err.Error(), outcomeCode(outs[k].Err)
		default:
			outcomes[i].Proof, outcomes[i].Stats = outs[k].Result.Proof, outs[k].Result.Stats
		}
	}
	return outcomes
}

// complete reports outcomes with jittered retries. The killCtx (not
// pollCtx) bounds it: a draining worker still completes its leases.
func (w *Worker) complete(a *Assignment, outcomes []JobOutcome) {
	req := CompleteRequest{Node: w.cfg.ID, Lease: a.Lease, Outcomes: outcomes}
	retry := w.cfg.RetryBase
	for attempt := 0; attempt < 3; attempt++ {
		if w.killed.Load() {
			return
		}
		var resp CompleteResponse
		ctx, cancel := context.WithTimeout(w.killCtx, 10*time.Second)
		err := w.rpc(ctx, "/cluster/complete", req, &resp)
		cancel()
		if err == nil {
			if resp.Discarded {
				w.logf("worker %s: completion for %s discarded (lease reassigned)", w.cfg.ID, a.Lease)
			}
			return
		}
		w.logf("worker %s: complete %s failed (attempt %d): %v", w.cfg.ID, a.Lease, attempt+1, err)
		t := time.NewTimer(w.between(0, retry))
		select {
		case <-t.C:
		case <-w.killCtx.Done():
			t.Stop()
			return
		}
		retry *= 2
	}
}
