package jobs

import "time"

// enqueue places a job on the ready channel, deferring briefly if the
// channel is momentarily full.
func (m *Manager) enqueue(j *jobRec) {
	m.mu.Lock()
	if m.closing || j.terminal() {
		m.mu.Unlock()
		return
	}
	j.timer = nil
	m.mu.Unlock()
	select {
	case m.ready <- j:
	default:
		m.requeueAfter(j, 25*time.Millisecond)
	}
}

// requeueAfter re-enqueues a job after d (breaker-denied dispatch, a
// probe's batch-mates, a full ready channel).
func (m *Manager) requeueAfter(j *jobRec, d time.Duration) {
	m.mu.Lock()
	m.requeueLocked(j, d)
	m.mu.Unlock()
}

// requeueLocked is requeueAfter for callers holding m.mu (retry
// backoff, refunded attempts).
func (m *Manager) requeueLocked(j *jobRec, d time.Duration) {
	if !m.closing && !j.terminal() {
		j.timer = time.AfterFunc(d, func() { m.enqueue(j) })
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	ready := m.ready
	if m.batches != nil {
		ready = nil // the batcher goroutine owns ready
	}
	for {
		select {
		case <-m.quit:
			return
		case j := <-ready:
			m.dispatch([]*jobRec{j})
		case unit := <-m.batches:
			m.dispatch(unit)
		}
	}
}

// batcher sits between the ready channel and the workers when batching
// is enabled (DESIGN.md §15). It groups ready jobs by (tenant, batch
// key); a group flushes to the workers when it reaches BatchMax or when
// BatchWindow has elapsed since its first member arrived, whichever is
// sooner. Unbatchable jobs (BatchKey ok=false) flush immediately as
// singletons. Tenant is part of the group key, so a batch never mixes
// tenants and fairness/quota accounting stays per-tenant.
func (m *Manager) batcher() {
	defer m.wg.Done()
	type group struct {
		jobs     []*jobRec
		deadline time.Time
	}
	pending := make(map[string]*group)
	// order holds the pending group keys in arrival order, which is also
	// deadline order: every group gets the same window from its arrival.
	var order []string
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	timerSet := false

	emit := func(jobs []*jobRec) bool {
		select {
		case m.batches <- jobs:
			return true
		case <-m.quit:
			// Dropped batches stay journaled as accepted/retrying; the
			// next Open re-enqueues them (crash equivalence).
			return false
		}
	}
	flush := func(gk string) bool {
		g := pending[gk]
		delete(pending, gk)
		for i, k := range order {
			if k == gk {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		return emit(g.jobs)
	}
	rearm := func() {
		if timerSet {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timerSet = false
		}
		if len(order) > 0 {
			timer.Reset(max(0, time.Until(pending[order[0]].deadline)))
			timerSet = true
		}
	}

	for {
		select {
		case <-m.quit:
			return
		case j := <-m.ready:
			key, ok := m.cfg.BatchKey(j.spec)
			if !ok {
				if !emit([]*jobRec{j}) {
					return
				}
				continue
			}
			gk := j.spec.Tenant + "\x00" + key
			g := pending[gk]
			if g == nil {
				g = &group{deadline: time.Now().Add(m.cfg.BatchWindow)}
				pending[gk] = g
				order = append(order, gk)
			}
			g.jobs = append(g.jobs, j)
			if len(g.jobs) >= m.cfg.BatchMax {
				if !flush(gk) {
					return
				}
			}
			rearm()
		case <-timer.C:
			timerSet = false
			for now := time.Now(); len(order) > 0 && !pending[order[0]].deadline.After(now); {
				if !flush(order[0]) {
					return
				}
			}
			rearm()
		}
	}
}

// dispatch takes one breaker grant for a ready unit and runs it. A
// half-open probe must be a single attempt, so the first member probes
// alone and its batch-mates requeue.
func (m *Manager) dispatch(unit []*jobRec) {
	ok, probe := m.breaker.AllowAttempt()
	if !ok {
		d := m.breakerRetryDelay()
		for _, j := range unit {
			m.requeueAfter(j, d)
		}
		return
	}
	if probe {
		for _, j := range unit[1:] {
			m.requeueAfter(j, shedRequeueDelay)
		}
		unit = unit[:1]
	}
	m.run(unit, probe)
}

// breakerRetryDelay is how long a breaker-denied dispatch waits before
// re-enqueueing: a quarter of the cooldown, clamped to [10ms, 500ms].
func (m *Manager) breakerRetryDelay() time.Duration {
	d := m.cfg.BreakerCooldown / 4
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}
