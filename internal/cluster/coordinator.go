package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nocap/internal/backoff"
	"nocap/internal/faultinject"
	"nocap/internal/jobs"
	"nocap/internal/tenant"
)

// ErrLeaseLost marks an attempt whose worker lease expired before a
// completion arrived (node death, partition, hang). It is an alias of
// jobs.ErrLeaseLost: the jobs manager recognizes it in finishAttempt
// and refunds the attempt (journal-backed), exactly like crash replay.
var ErrLeaseLost = jobs.ErrLeaseLost

// Node health states. The state machine doubles as a per-node circuit
// breaker: suspect is half-open (one unit of probation), dead is open
// (no work until a jittered probe).
const (
	nodeHealthy = iota
	nodeSuspect
	nodeDead
)

func stateName(s int) string {
	switch s {
	case nodeHealthy:
		return "healthy"
	case nodeSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Config configures a Coordinator. Zero fields take the documented
// defaults.
type Config struct {
	// LeaseTTL is how long a dispatched unit may go without a heartbeat
	// before it is reassigned (default 3s).
	LeaseTTL time.Duration
	// DeadAfter marks a node dead after this much silence (default
	// 3×LeaseTTL).
	DeadAfter time.Duration
	// FailThreshold consecutive lease losses mark a node dead
	// (default 3); a single loss marks it suspect.
	FailThreshold int
	// ProbeBase is the base of the jittered dead→probe re-admission
	// delay (default 5s): actual delay is ProbeBase/2 + U(0, ProbeBase/2).
	ProbeBase time.Duration
	// MaxPollWait caps worker long-polls so Shutdown never waits on a
	// parked handler (default 2s).
	MaxPollWait time.Duration
	// Local runs a unit in-process when no live worker exists; nil
	// turns the fallback off, and units wait for a worker.
	Local jobs.BatchExec
	// TenantWeight returns a tenant's DRR weight (<=0 → 1), the same
	// weight its queue has in front of the local worker pool.
	TenantWeight func(tenant string) int
	// LocalityKey derives the warm-cache key for a job (the server's
	// batch key; "" for none). Nil disables locality placement.
	LocalityKey func(spec jobs.Spec) (string, bool)
	// Seed seeds lease/probe jitter for deterministic tests (0 →
	// time-based).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.LeaseTTL
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeBase <= 0 {
		c.ProbeBase = 5 * time.Second
	}
	if c.MaxPollWait <= 0 {
		c.MaxPollWait = 2 * time.Second
	}
	return c
}

// unitResult resolves a unit: outcomes from a worker completion, a
// unit-scoped error (lease lost, caller gone), or the local-fallback
// escape — prove it in-process.
type unitResult struct {
	outcomes []JobOutcome
	err      error
	local    bool
}

// unit is one dispatchable piece of work: k ≥ 1 jobs of one tenant,
// leased whole to one node. A queued unit is never delivered: whoever
// resolves it first takes it off the queue.
type unit struct {
	tenant    string
	key       string
	members   []jobs.BatchMember
	res       chan unitResult
	delivered bool
}

// resolveLocked delivers r exactly once; later resolutions are dropped
// (first terminal record wins).
func (u *unit) resolveLocked(r unitResult) bool {
	if u.delivered {
		return false
	}
	u.delivered = true
	u.res <- r
	return true
}

type lease struct {
	id      string
	unit    *unit
	node    string
	expires time.Time
}

const warmKeyCap = 8

type node struct {
	id       string
	state    int
	fails    int
	inflight int
	lastSeen time.Time
	retryAt  time.Time
	warm     map[string]int64 // locality key → last-touch seq (LRU)
}

func (n *node) touchWarm(key string, seq int64) {
	if key == "" {
		return
	}
	n.warm[key] = seq
	for len(n.warm) > warmKeyCap {
		oldKey, oldSeq := "", int64(1<<62)
		for k, s := range n.warm {
			if s < oldSeq {
				oldKey, oldSeq = k, s
			}
		}
		delete(n.warm, oldKey)
	}
}

// Metrics is a point-in-time snapshot of the coordinator's counters.
type Metrics struct {
	Dispatches     int64
	Completions    int64
	Duplicates     int64
	LeaseExpiries  int64
	Heartbeats     int64
	Polls          int64
	LocalFallbacks int64
	QueuedUnits    int
	LiveLeases     int
	// LiveNodes counts the nodes eligible for work, by the predicate
	// HasLiveWorkers uses.
	LiveNodes int
	Nodes     []NodeInfo
}

// Coordinator owns dispatch: it queues ready units per tenant in a DRR,
// leases them to polling workers, reaps expired leases, and resolves
// results back into the jobs manager. Its BatchExec is the jobs manager's
// executor, so the journal, retries, breaker, and admission stack stay
// exactly where they were.
type Coordinator struct {
	cfg  Config
	mu   sync.Mutex
	rng  *rand.Rand
	seq  int64
	q    *tenant.DRR[*unit]
	lss  map[string]*lease
	nds  map[string]*node
	wtrs []chan struct{}

	closed bool
	quit   chan struct{}
	done   chan struct{}

	ewmaPollNS float64
	lastPoll   time.Time

	dispatches, completions, duplicates int64
	expiries, heartbeats, polls         int64
	localFallbacks                      int64
}

// New builds a Coordinator and starts its lease reaper.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Coordinator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		q:    tenant.NewDRR[*unit](cfg.TenantWeight),
		lss:  make(map[string]*lease),
		nds:  make(map[string]*node),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.reap()
	return c
}

// Close stops the reaper and wakes every parked long-poll. In-flight
// Exec calls are unblocked by the jobs manager cancelling their
// contexts, not by Close; call it after jobs.Manager.Close.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.quit)
	c.wakeLocked()
	c.mu.Unlock()
	<-c.done
}

func (c *Coordinator) wakeLocked() {
	for _, ch := range c.wtrs {
		close(ch)
	}
	c.wtrs = nil
}

// HasLiveWorkers reports whether any node is currently eligible for
// work (not dead, seen within DeadAfter). The server's no_workers shed
// and healthz key on this.
func (c *Coordinator) HasLiveWorkers() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked() > 0
}

func (c *Coordinator) liveWorkersLocked() int {
	live, now := 0, time.Now()
	for _, n := range c.nds {
		if n.state != nodeDead && now.Sub(n.lastSeen) <= c.cfg.DeadAfter {
			live++
		}
	}
	return live
}

// RetryAfterHint estimates how soon a worker is likely to appear: twice
// the EWMA of poll inter-arrivals, clamped to [1s, 30s]. With no poll
// history it reports 5s.
func (c *Coordinator) RetryAfterHint() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ewmaPollNS <= 0 {
		return 5 * time.Second
	}
	return backoff.ClampRetryAfter(time.Duration(2 * c.ewmaPollNS))
}

// Metrics snapshots the counters and node table.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		Dispatches:     c.dispatches,
		Completions:    c.completions,
		Duplicates:     c.duplicates,
		LeaseExpiries:  c.expiries,
		Heartbeats:     c.heartbeats,
		Polls:          c.polls,
		LocalFallbacks: c.localFallbacks,
		QueuedUnits:    c.q.Len(),
		LiveLeases:     len(c.lss),
		LiveNodes:      c.liveWorkersLocked(),
	}
	now := time.Now()
	for _, n := range c.nds {
		info := NodeInfo{
			Node:       n.id,
			State:      stateName(n.state),
			Inflight:   n.inflight,
			Fails:      n.fails,
			LastSeenMS: now.Sub(n.lastSeen).Milliseconds(),
		}
		for k := range n.warm {
			info.Warm = append(info.Warm, k)
		}
		sort.Strings(info.Warm)
		m.Nodes = append(m.Nodes, info)
	}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].Node < m.Nodes[j].Node })
	return m
}

// Exec is the solo-typed adapter over BatchExec: spec as a unit of one
// whose member lives as long as ctx.
func (c *Coordinator) Exec(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("solo-%d", c.seq)
	c.mu.Unlock()
	out := c.BatchExec(ctx, []jobs.BatchMember{{ID: id, Spec: spec, Ctx: ctx}})[0]
	return out.Result, out.Err
}

// BatchExec is the executor the server installs in the jobs manager. It
// runs members as one unit: handed to the in-process executor when local
// fallback is on and no live worker exists — now, or after a full lease
// TTL in the queue — and otherwise queued for the next polling node and
// awaited until that node completes it, its lease is lost (→ attempt
// refund upstream), or nobody is left to take the result. Failure is
// member-scoped: each outcome classifies independently.
func (c *Coordinator) BatchExec(ctx context.Context, members []jobs.BatchMember) []jobs.BatchOutcome {
	c.mu.Lock()
	r := unitResult{local: c.localOKLocked()}
	c.mu.Unlock()
	if !r.local {
		u := &unit{tenant: members[0].Spec.Tenant, members: members, res: make(chan unitResult, 1)}
		if c.cfg.LocalityKey != nil {
			u.key, _ = c.cfg.LocalityKey(members[0].Spec)
		}
		c.mu.Lock()
		c.enqueueLocked(u)
		c.mu.Unlock()
		r = c.await(ctx, u)
	}
	if r.local {
		c.mu.Lock()
		c.localFallbacks++
		c.mu.Unlock()
		return c.cfg.Local(ctx, members)
	}
	outs := make([]jobs.BatchOutcome, len(members))
	byID := make(map[string]JobOutcome, len(r.outcomes))
	for _, o := range r.outcomes {
		byID[o.ID] = o
	}
	for i, mb := range members {
		o, found := byID[mb.ID]
		switch {
		case r.err != nil:
			outs[i].Err = r.err
		case !found:
			outs[i].Err = fmt.Errorf("cluster: no outcome for member %s: %w", mb.ID, ErrLeaseLost)
		case o.Error != "" || o.Code != "":
			outs[i].Err = outcomeError(o.Error, o.Code)
		default:
			outs[i].Result = jobs.Result{Proof: o.Proof, Stats: o.Stats}
		}
	}
	return outs
}

// localOKLocked reports whether an attempt should run in-process: a
// local executor is configured and no live worker exists.
func (c *Coordinator) localOKLocked() bool {
	return c.cfg.Local != nil && c.liveWorkersLocked() == 0
}

// enqueueLocked queues u at a cost of one per member, so a batch is
// charged against its tenant's deficit like the jobs it carries.
func (c *Coordinator) enqueueLocked(u *unit) {
	c.q.Push(u.tenant, u, len(u.members))
	c.wakeLocked()
}

// await blocks until the unit resolves, nobody is left to take the
// result (the result carries the context's error), or — when local
// fallback is enabled — the unit has sat queued through a full lease TTL
// with zero live workers (the fleet died after submission; the result
// says to prove in-process). The unit has a taker while ctx and any
// member's own context are live: once the last member is cancelled
// (DELETE /jobs/id on a unit of one) the wait ends at once instead of
// riding out a lease.
func (c *Coordinator) await(ctx context.Context, u *unit) unitResult {
	ctx, giveUp := context.WithCancel(ctx)
	defer giveUp()
	var live atomic.Int32
	live.Store(int32(len(u.members)))
	for _, mb := range u.members {
		defer context.AfterFunc(mb.Ctx, func() {
			if live.Add(-1) == 0 {
				giveUp()
			}
		})()
	}
	tick := time.NewTicker(c.cfg.LeaseTTL)
	defer tick.Stop()
	for {
		select {
		case r := <-u.res:
			return r
		case <-ctx.Done():
			c.mu.Lock()
			delivered := u.delivered
			u.delivered = true
			c.q.Remove(u.tenant, u) // no-op once leased
			c.mu.Unlock()
			if delivered {
				// Raced with a resolution: take it.
				return <-u.res
			}
			return unitResult{err: ctx.Err()}
		case <-tick.C:
			c.mu.Lock()
			reclaimed := c.localOKLocked() && c.q.Remove(u.tenant, u)
			if reclaimed {
				u.delivered = true
			}
			c.mu.Unlock()
			if reclaimed {
				return unitResult{local: true}
			}
		}
	}
}

// touchNode fetches or creates the node record and refreshes lastSeen.
func (c *Coordinator) touchNodeLocked(id string) *node {
	n := c.nds[id]
	if n == nil {
		n = &node{id: id, state: nodeHealthy, warm: make(map[string]int64)}
		c.nds[id] = n
	}
	n.lastSeen = time.Now()
	return n
}

// tryAssignLocked hands the polling node its next unit, honouring the
// health gate (dead → at most one probe after retryAt; suspect → one
// unit of probation), the DRR's tenant fairness, and locality.
func (c *Coordinator) tryAssignLocked(n *node, warm []string) *Assignment {
	now := time.Now()
	switch n.state {
	case nodeDead:
		if now.Before(n.retryAt) {
			return nil
		}
		// Jittered probe re-admission: the first poll past retryAt gets
		// exactly one unit under probation.
		n.state = nodeSuspect
		n.inflight = 0
	case nodeSuspect:
		if n.inflight >= 1 {
			return nil
		}
	}

	// Locality: within the tenant the DRR serves, prefer the first unit
	// whose key is warm on this node (tracked coordinator-side or
	// reported by the worker); else the head.
	u, _, ok := c.q.Pop(nil, func(u *unit) bool {
		_, hot := n.warm[u.key]
		return u.key != "" && (hot || slices.Contains(warm, u.key))
	})
	if !ok {
		return nil
	}

	c.seq++
	ls := &lease{
		id:      fmt.Sprintf("lease-%d", c.seq),
		unit:    u,
		node:    n.id,
		expires: now.Add(c.cfg.LeaseTTL),
	}
	c.lss[ls.id] = ls
	n.inflight++
	n.touchWarm(u.key, c.seq)
	c.dispatches++

	a := &Assignment{
		Lease: ls.id,
		TTLMS: c.cfg.LeaseTTL.Milliseconds(),
		Key:   u.key,
	}
	for _, mb := range u.members {
		a.Jobs = append(a.Jobs, AssignedJob{ID: mb.ID, Payload: mb.Spec.Payload})
	}
	return a
}

// probeDelayLocked draws the jittered dead→probe re-admission delay:
// ProbeBase/2 + uniform(0, ProbeBase/2), so probes spread across half
// the window.
func (c *Coordinator) probeDelayLocked() time.Duration {
	half := c.cfg.ProbeBase / 2
	return backoff.Range(c.rng, half, 2*half)
}

// reap expires stale leases: the unit resolves with ErrLeaseLost (→
// journal-backed attempt refund upstream) and the node pays the breaker
// verdict (suspect, then dead past FailThreshold with a jittered probe
// window). Also marks silent nodes dead.
func (c *Coordinator) reap() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
		}
		c.mu.Lock()
		now := time.Now()
		for id, ls := range c.lss {
			forced := faultinject.Check(FILeaseExpire) != nil
			if !forced && now.Before(ls.expires) {
				continue
			}
			delete(c.lss, id)
			c.expiries++
			if n := c.nds[ls.node]; n != nil {
				if n.inflight > 0 {
					n.inflight--
				}
				n.fails++
				if n.fails >= c.cfg.FailThreshold {
					n.state = nodeDead
					n.retryAt = now.Add(c.probeDelayLocked())
				} else if n.state == nodeHealthy {
					n.state = nodeSuspect
				}
			}
			ls.unit.resolveLocked(unitResult{err: fmt.Errorf("cluster: lease %s on node %s expired: %w", id, ls.node, ErrLeaseLost)})
		}
		for _, n := range c.nds {
			if n.state != nodeDead && now.Sub(n.lastSeen) > c.cfg.DeadAfter {
				n.state = nodeDead
				n.fails = 0
				n.retryAt = now.Add(c.probeDelayLocked())
			}
		}
		c.mu.Unlock()
	}
}

// ---- HTTP handlers -------------------------------------------------

// HandlePoll serves POST /cluster/poll: long-poll for an assignment.
func (c *Coordinator) HandlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !readRequest(w, r, &req, &req.Node) {
		return
	}
	wait := c.cfg.MaxPollWait
	if req.WaitMS > 0 {
		if d := time.Duration(req.WaitMS) * time.Millisecond; d < wait {
			wait = d
		}
	}
	deadline := time.Now().Add(wait)
	c.mu.Lock()
	now := time.Now()
	c.polls++
	if !c.lastPoll.IsZero() {
		gap := float64(now.Sub(c.lastPoll))
		if c.ewmaPollNS == 0 {
			c.ewmaPollNS = gap
		} else {
			c.ewmaPollNS = 0.3*gap + 0.7*c.ewmaPollNS
		}
	}
	c.lastPoll = now
	c.mu.Unlock()
	for {
		c.mu.Lock()
		n := c.touchNodeLocked(req.Node)
		if c.closed {
			c.mu.Unlock()
			writeJSON(w, PollResponse{})
			return
		}
		if a := c.tryAssignLocked(n, req.Warm); a != nil {
			c.mu.Unlock()
			writeJSON(w, PollResponse{Assignment: a})
			return
		}
		ch := make(chan struct{})
		c.wtrs = append(c.wtrs, ch)
		c.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			writeJSON(w, PollResponse{})
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			writeJSON(w, PollResponse{})
			return
		case <-c.quit:
			timer.Stop()
			writeJSON(w, PollResponse{})
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// HandleHeartbeat serves POST /cluster/heartbeat: renew leases, learn
// which are lost, and pick up member cancellations.
func (c *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readRequest(w, r, &req, &req.Node) {
		return
	}
	var resp HeartbeatResponse
	c.mu.Lock()
	c.heartbeats++
	c.touchNodeLocked(req.Node)
	now := time.Now()
	for _, id := range req.Leases {
		ls := c.lss[id]
		if ls == nil || ls.node != req.Node {
			resp.Lost = append(resp.Lost, id)
			continue
		}
		ls.expires = now.Add(c.cfg.LeaseTTL)
		for _, mb := range ls.unit.members {
			if mb.Ctx.Err() != nil {
				resp.Cancelled = append(resp.Cancelled, mb.ID)
			}
		}
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// HandleComplete serves POST /cluster/complete: deliver outcomes for a
// lease. An unknown lease means the reaper already reassigned the unit,
// and a lease presented by a node that does not hold it is not that
// node's to complete; either way the completion is discarded (first
// terminal record wins) and counted, and the holder is left alone.
func (c *Coordinator) HandleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readRequest(w, r, &req, &req.Node, &req.Lease) {
		return
	}
	c.mu.Lock()
	c.touchNodeLocked(req.Node)
	ls := c.lss[req.Lease]
	if ls == nil || ls.node != req.Node {
		c.duplicates++
		c.mu.Unlock()
		writeJSON(w, CompleteResponse{Discarded: true})
		return
	}
	delete(c.lss, req.Lease)
	c.completions++
	if n := c.nds[ls.node]; n != nil {
		if n.inflight > 0 {
			n.inflight--
		}
		n.fails = 0
		n.state = nodeHealthy
		c.seq++
		n.touchWarm(ls.unit.key, c.seq)
	}
	ls.unit.resolveLocked(unitResult{outcomes: req.Outcomes})
	c.wakeLocked() // a slot freed up; re-check queues
	c.mu.Unlock()
	writeJSON(w, CompleteResponse{})
}

// HandleNodes serves GET /cluster/nodes: the health table.
func (c *Coordinator) HandleNodes(w http.ResponseWriter, r *http.Request) {
	m := c.Metrics()
	writeJSON(w, m.Nodes)
}

// readRequest decodes a worker-plane request body into v, whose
// required fields must come out non-empty. A body past the cap the
// server put on it (http.MaxBytesReader) answers a typed 413, anything
// else unusable 400 — both before the coordinator's state is touched.
// The cluster.rpc.recv fault point drops the request first (500).
func readRequest(w http.ResponseWriter, r *http.Request, v any, required ...*string) bool {
	if err := faultinject.Check(FIRPCRecv); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return false
	}
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil && slices.ContainsFunc(required, func(f *string) bool { return *f == "" }) {
		err = errors.New("missing field")
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		_ = json.NewEncoder(w).Encode(map[string]string{
			"error": fmt.Sprintf("cluster: %s body exceeds %d bytes", r.URL.Path, tooLarge.Limit),
			"code":  "resource-limit",
		})
		return false
	case err != nil:
		http.Error(w, "cluster: bad "+r.URL.Path+" request", http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure here is a dropped connection; the worker's RPC
	// retry/lease machinery owns recovery.
	_ = json.NewEncoder(w).Encode(v)
}
