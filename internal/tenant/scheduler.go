package tenant

import (
	"errors"
	"sync"
	"time"
)

// Scheduler errors. The server maps all of them to typed HTTP statuses;
// none escapes to clients as message text.
var (
	// ErrQueueFull: the tenant's own bounded queue is at capacity. Other
	// tenants' backlog can never cause it — that is the isolation
	// property the per-tenant queues exist for.
	ErrQueueFull = errors.New("tenant: queue full")
	// ErrUnknownTenant: Enqueue named a tenant the scheduler has no
	// queue for (registry and scheduler out of sync — a caller bug).
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	// ErrStopped: the scheduler has been stopped (server draining).
	ErrStopped = errors.New("tenant: scheduler stopped")
)

// QueueConfig sizes one tenant's scheduler queue.
type QueueConfig struct {
	ID          string
	Weight      int // DRR quantum, >= 1
	Depth       int // queue bound, >= 1
	MaxInflight int // concurrent worker cap, 0 = uncapped
}

// QueueStats is one tenant's scheduler counters, read atomically under
// the scheduler lock.
type QueueStats struct {
	ID           string
	Weight       int
	Depth        int // items currently queued
	Capacity     int // queue bound
	Inflight     int // items dequeued but not yet Done
	Enqueued     int64
	Dequeued     int64
	RejectedFull int64
	QueueWaitNs  int64 // sum of enqueue->dequeue latency
}

type entry struct {
	v  any
	at time.Time
}

// tq is one tenant's queue bounds and counters. All fields are guarded
// by Scheduler.mu.
type tq struct {
	id          string
	weight      int
	depth       int
	maxInflight int
	inflight    int

	enqueued     int64
	dequeued     int64
	rejectedFull int64
	waitNs       int64
}

// Scheduler is the worker pool's admission queue: a DRR behind a lock,
// with per-tenant depth bounds, MaxInflight caps and counters.
// Producers Enqueue into their tenant's queue, workers block in
// Dequeue, and the DRR picks which tenant's head to serve, skipping
// tenants at their MaxInflight cap. Its fairness bound is the DRR's.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	byID    map[string]*tq
	drr     *DRR[entry]
	stopped bool
}

// NewScheduler builds a scheduler with one queue per config entry.
func NewScheduler(queues []QueueConfig) *Scheduler {
	s := &Scheduler{byID: make(map[string]*tq, len(queues))}
	s.cond = sync.NewCond(&s.mu)
	s.drr = NewDRR[entry](func(id string) int { return s.byID[id].weight })
	for _, qc := range queues {
		s.byID[qc.ID] = &tq{id: qc.ID, weight: max(qc.Weight, 1), depth: max(qc.Depth, 1), maxInflight: qc.MaxInflight}
	}
	return s
}

// Enqueue appends v to tenantID's queue (cost < 1 is treated as 1).
func (s *Scheduler) Enqueue(tenantID string, v any, cost int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return ErrStopped
	}
	t := s.byID[tenantID]
	if t == nil {
		return ErrUnknownTenant
	}
	if s.drr.Queued(t.id) >= t.depth {
		t.rejectedFull++
		return ErrQueueFull
	}
	s.drr.Push(t.id, entry{v: v, at: time.Now()}, cost)
	t.enqueued++
	s.cond.Broadcast()
	return nil
}

// Dequeue blocks until the DRR policy yields an item or the scheduler
// is stopped (ok=false). wait is the item's time in queue. The caller
// must call Done(tenantID) when the item finishes if MaxInflight caps
// are in use (calling it unconditionally is fine).
func (s *Scheduler) Dequeue() (v any, tenantID string, wait time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if e, id, found := s.drr.Pop(s.atCapLocked, nil); found {
			t := s.byID[id]
			w := time.Since(e.at)
			t.waitNs += w.Nanoseconds()
			t.dequeued++
			t.inflight++
			return e.v, id, w, true
		}
		if s.stopped {
			return nil, "", 0, false
		}
		s.cond.Wait()
	}
}

func (s *Scheduler) atCapLocked(tenantID string) bool {
	t := s.byID[tenantID]
	return t.maxInflight > 0 && t.inflight >= t.maxInflight
}

// Done releases one inflight slot for tenantID.
func (s *Scheduler) Done(tenantID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.byID[tenantID]; t != nil && t.inflight > 0 {
		t.inflight--
		s.cond.Broadcast()
	}
}

// Stop wakes all blocked Dequeues with ok=false and makes further
// Enqueues fail with ErrStopped. Queued items stay put for Drain.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	s.cond.Broadcast()
}

// Drain removes and returns every queued item (FIFO within a tenant).
// Idempotent: each item is returned exactly once across all Drain
// calls.
func (s *Scheduler) Drain() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []any
	for _, e := range s.drr.Drain() {
		out = append(out, e.v)
	}
	return out
}

// Len is the total number of queued (not yet dequeued) items.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drr.Len()
}

// Capacity is the sum of all queue bounds.
func (s *Scheduler) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := 0
	for _, t := range s.byID {
		c += t.depth
	}
	return c
}

// Stats snapshots every tenant's counters, sorted by tenant ID.
func (s *Scheduler) Stats() []QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueueStats, 0, len(s.byID))
	for _, t := range s.byID {
		out = append(out, QueueStats{
			ID:           t.id,
			Weight:       t.weight,
			Depth:        s.drr.Queued(t.id),
			Capacity:     t.depth,
			Inflight:     t.inflight,
			Enqueued:     t.enqueued,
			Dequeued:     t.dequeued,
			RejectedFull: t.rejectedFull,
			QueueWaitNs:  t.waitNs,
		})
	}
	sortStats(out)
	return out
}

func sortStats(stats []QueueStats) {
	for i := 1; i < len(stats); i++ {
		for j := i; j > 0 && stats[j].ID < stats[j-1].ID; j-- {
			stats[j], stats[j-1] = stats[j-1], stats[j]
		}
	}
}
