package jobs

import (
	"context"
	"errors"
	"path/filepath"
	"time"

	"nocap/internal/backoff"
	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// Both points fire once per member before the member reaches the
// executor, under panic containment: fiAttemptExec for a unit of one
// (chaos tests use it to exercise the retry machinery without involving
// the prover), fiBatchExec for each member of a larger unit in order, so
// a test can fail the Nth member of a batch without touching its
// batch-mates.
var (
	fiAttemptExec = faultinject.Register("jobs.attempt.exec")
	fiBatchExec   = faultinject.Register("jobs.batch.exec")
)

// run executes one attempt at a unit: journal every live member running
// (fsync'd) under one lock hold, give each member its own cancellable
// context, call the executor once, then classify every member's outcome.
// A member that is already terminal or running is silently dropped (its
// state owner wins); a member whose running record cannot be journaled
// finishes with that error while its batch-mates proceed. probe says the
// breaker grant holds the half-open probe slot (the unit is then one
// job); every exit must either reach a Success/Failure verdict or
// abandon the probe.
func (m *Manager) run(unit []*jobRec, probe bool) {
	type attempt struct {
		j      *jobRec
		ctx    context.Context
		cancel context.CancelFunc
	}
	var live []attempt
	var unjournaled []*jobRec
	var journalErr error
	m.mu.Lock()
	for _, j := range unit {
		if m.closing || j.terminal() || j.state == StateRunning {
			continue
		}
		j.attempt++
		if j.shed {
			j.shed = false // this attempt's running record is already on disk
		} else if err := m.appendLocked(record{Job: j.id, State: recRunning, Attempt: j.attempt}); err != nil {
			unjournaled = append(unjournaled, j)
			journalErr = err
			continue
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		j.state = StateRunning
		if j.cancelRequested {
			cancel() // Cancel raced the dispatch; make this member a no-op.
		}
		live = append(live, attempt{j, ctx, cancel})
	}
	m.mu.Unlock()
	if probe && len(live)+len(unjournaled) == 0 {
		m.breaker.abandonProbe()
		return
	}
	for _, j := range unjournaled {
		m.finishAttempt(j, Result{}, journalErr, probe)
	}

	// Per-member fault injection: a chaos-failed member finishes with the
	// injected error without ever reaching the executor, and its
	// batch-mates proceed without it.
	fi := fiAttemptExec
	if len(unit) > 1 {
		fi = fiBatchExec
	}
	running := live[:0]
	members := make([]BatchMember, 0, len(live))
	for _, a := range live {
		if ferr := injected(fi); ferr != nil {
			a.cancel()
			m.finishAttempt(a.j, Result{}, ferr, probe)
			continue
		}
		running = append(running, a)
		members = append(members, BatchMember{ID: a.j.id, Spec: a.j.spec, Ctx: a.ctx})
	}
	if len(running) == 0 {
		return
	}
	if len(unit) > 1 {
		m.mu.Lock()
		m.stats.Batches++
		m.stats.BatchJobs += int64(len(running))
		m.stats.LastBatchSize = int64(len(running))
		m.stats.BatchAmortizedSaves += int64(len(running) - 1)
		m.mu.Unlock()
	}

	outs := m.exec(members)
	for i, a := range running {
		a.cancel()
		m.finishAttempt(a.j, outs[i].Result, outs[i].Err, probe)
	}
}

// injected checks a per-member fault point under the same containment
// as the executor: a panic-kind plan is an attempt failure, not a crash.
func injected(point string) (err error) {
	defer zkerr.RecoverTo(&err, "jobs: attempt")
	return faultinject.Check(point)
}

// exec is the panic-containment boundary around the executor; it
// guarantees exactly one outcome per member, turning a panic or a
// miscounted return into a per-member internal error.
func (m *Manager) exec(members []BatchMember) []BatchOutcome {
	outs, err := func() (outs []BatchOutcome, err error) {
		defer zkerr.RecoverTo(&err, "jobs: attempt")
		return m.unit(m.baseCtx, members), nil
	}()
	if err == nil && len(outs) != len(members) {
		err = zkerr.Internalf("jobs: executor returned %d outcomes for %d members", len(outs), len(members))
	}
	if err != nil {
		outs = make([]BatchOutcome, len(members))
		for i := range outs {
			outs[i] = BatchOutcome{Err: err}
		}
	}
	return outs
}

// finishAttempt classifies an attempt's outcome and journals the
// resulting transition. The proof file is written (atomically) before
// the done record, so a done record always points at a complete proof.
// probe, when true, is released by whichever breaker verdict
// (Success/Failure) this attempt reaches, or abandoned on the paths
// that reach neither.
func (m *Manager) finishAttempt(j *jobRec, res Result, err error, probe bool) {
	var proofFile string
	var persistErr error
	if err == nil {
		proofFile = filepath.Join(m.cfg.Dir, proofsDirName, j.id+".bin")
		if werr := writeFileAtomic(proofFile, res.Proof, 0o644, fiProofPersist); werr != nil {
			persistErr = werr
			err = zkerr.Internalf("jobs: persist proof for %s: %v", j.id, werr)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if persistErr != nil {
		// A failed proof persist is a disk failure like any other; feed
		// the degraded-mode streak.
		m.noteDiskFailureLocked("proof.persist", persistErr)
	}
	if j.terminal() {
		if probe {
			m.breaker.abandonProbe()
		}
		return
	}
	j.cancel = nil

	interrupted := m.closing && errors.Is(err, context.Canceled)
	lost := errors.Is(err, ErrLeaseLost)
	if (interrupted || lost || errors.Is(err, ErrPoolShed)) && !j.cancelRequested {
		// No prover reached a verdict on this attempt — shutdown
		// interrupted it, the pool shed it, or the node holding its lease
		// died — so it is refunded and the breaker sees nothing.
		j.attempt--
		if probe {
			m.breaker.abandonProbe()
		}
		if lost {
			// Journaled as a retry at the decremented attempt number, so
			// a crash mid-reassignment replays to the same state; another
			// node steals the job after a short jittered delay.
			m.stats.LeaseReassigns++
			m.retryLocked(j, err, "lease-lost", m.backoffFor(1))
			return
		}
		// Nothing is journaled and no counter moves: the running record
		// already on disk replays to this same refunded state, exactly as
		// after a crash, and a re-dispatch reuses it.
		j.state = StateAccepted
		j.shed = true
		m.requeueLocked(j, shedRequeueDelay)
		return
	}

	if err == nil {
		m.breaker.Success()
		j.proofFile = proofFile
		j.proofBytes = len(res.Proof)
		j.stats = res.Stats
		j.cached = res.Cached
		j.lastErr, j.lastCode = "", ""
		m.appendTerminalLocked(j, record{
			Job: j.id, State: recDone, Attempt: j.attempt,
			ProofFile: proofFile, ProofBytes: j.proofBytes, Stats: res.Stats, Cached: res.Cached,
		})
		m.markTerminalLocked(j, StateDone)
		return
	}

	code := zkerr.Code(err)
	m.breaker.Failure(code == "internal")

	if j.cancelRequested || errors.Is(err, context.Canceled) {
		m.terminalizeLocked(j, StateCancelled, err.Error(), code)
		return
	}
	if zkerr.Retryable(err) && j.attempt < m.cfg.MaxAttempts {
		m.retryLocked(j, err, code, m.backoffFor(j.attempt))
		return
	}
	m.terminalizeLocked(j, StateFailed, err.Error(), code)
}

// retryLocked journals a failed attempt as a retrying record and puts
// the job back in the queue after delay. Caller holds m.mu.
func (m *Manager) retryLocked(j *jobRec, err error, code string, delay time.Duration) {
	j.state = StateAccepted
	j.lastErr, j.lastCode = err.Error(), code
	m.stats.Retries++
	_ = m.appendLocked(record{
		Job: j.id, State: recRetrying, Attempt: j.attempt,
		Error: err.Error(), Code: code, BackoffMS: delay.Milliseconds(),
	})
	m.requeueLocked(j, delay)
}

// terminalizeLocked journals and applies a terminal failure-side
// transition. Caller holds m.mu.
func (m *Manager) terminalizeLocked(j *jobRec, st State, msg, code string) {
	j.lastErr, j.lastCode = msg, code
	rs := recFailed
	if st == StateCancelled {
		rs = recCancelled
	}
	m.appendTerminalLocked(j, record{Job: j.id, State: rs, Attempt: j.attempt, Error: msg, Code: code})
	m.markTerminalLocked(j, st)
}

// appendTerminalLocked journals a terminal record, retrying once so a
// transient fsync hiccup cannot split the durable and in-memory views.
// If both tries fail the job is marked journalLost: its terminal state
// is observable now but not journaled, so a restart will replay it from
// its previous record and re-run it — a done job re-proves (benign, the
// proof file is rewritten atomically), but a failed/cancelled job can
// resurrect with a different outcome. GET surfaces journal_lost so
// clients and operators can see exactly which jobs carry that hazard,
// and the journal-lost counter makes a dying data disk alertable.
// Caller holds m.mu.
func (m *Manager) appendTerminalLocked(j *jobRec, r record) {
	err := m.appendLocked(r)
	if err != nil {
		err = m.appendLocked(r)
	}
	if err != nil {
		j.journalLost = true
		m.stats.JournalLostJobs++
	}
}

// markTerminalLocked applies the in-memory side of a terminal
// transition exactly once. Caller holds m.mu and has already journaled.
func (m *Manager) markTerminalLocked(j *jobRec, st State) {
	j.state = st
	j.terminalAt = time.Now()
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	m.stats.Active--
	if m.activeTenant[j.spec.Tenant] > 0 {
		m.activeTenant[j.spec.Tenant]--
	}
	switch st {
	case StateDone:
		m.stats.Done++
	case StateFailed:
		m.stats.Failed++
	case StateCancelled:
		m.stats.Cancelled++
	}
	close(j.done)
}

// backoffFor draws the full-jitter retry delay after the given number
// of attempts from the manager's seeded source. Caller holds m.mu.
func (m *Manager) backoffFor(attempt int) time.Duration {
	return backoff.Exponential(m.rand, m.cfg.BackoffBase, m.cfg.BackoffMax, attempt)
}
