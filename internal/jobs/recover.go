package jobs

import (
	"os"
	"path/filepath"
	"time"

	"nocap/internal/zkerr"
)

// replay rebuilds the job table: snapshot first (the folded state of
// every record up to its BaseSeq), then the journal tail applied in
// order, later states overriding earlier ones. A non-accepted record
// for an unknown job means the journal lost the accepted record — in a
// checksummed journal that is a corrupt (or corrupt-skipped) record,
// so it is itself skipped and counted rather than failing the whole
// replay: one bad sector must not strand thousands of healthy jobs.
func (m *Manager) replay(info replayInfo) error {
	if info.snap != nil {
		for _, sj := range info.snap.Jobs {
			j := &jobRec{
				id: sj.ID, state: sj.State, spec: sj.Spec, attempt: sj.Attempt,
				lastErr: sj.Error, lastCode: sj.Code, cached: sj.Cached,
				proofFile: sj.ProofFile, proofBytes: sj.ProofBytes, stats: sj.Stats,
				done: make(chan struct{}),
			}
			if sj.TerminalAt != "" {
				if t, err := time.Parse(time.RFC3339Nano, sj.TerminalAt); err == nil {
					j.terminalAt = t
				}
			}
			m.byID[j.id] = j
			m.order = append(m.order, j)
		}
	}
	for _, r := range info.records {
		j := m.byID[r.Job]
		if j == nil {
			if r.State != recAccepted {
				m.stats.CorruptRecords++
				m.logf("nocap-jobs event=journal_orphan_record seq=%d job=%s state=%s", r.Seq, r.Job, r.State)
				continue
			}
			j = &jobRec{id: r.Job, done: make(chan struct{})}
			if r.Spec != nil {
				j.spec = *r.Spec
			}
			m.byID[r.Job] = j
			m.order = append(m.order, j)
		}
		switch r.State {
		case recAccepted:
			j.state = StateAccepted
			j.attempt = r.Attempt
		case recRunning:
			j.state = StateRunning
			j.attempt = r.Attempt
		case recRetrying:
			j.state = StateAccepted
			j.attempt = r.Attempt
			j.lastErr, j.lastCode = r.Error, r.Code
			m.stats.Retries++
		case recDone:
			j.state = StateDone
			j.attempt = r.Attempt
			j.proofFile = r.ProofFile
			j.proofBytes = r.ProofBytes
			j.stats = r.Stats
			j.cached = r.Cached
			j.lastErr, j.lastCode = "", ""
		case recFailed:
			j.state = StateFailed
			j.attempt = r.Attempt
			j.lastErr, j.lastCode = r.Error, r.Code
		case recCancelled:
			j.state = StateCancelled
			j.attempt = r.Attempt
			j.lastErr, j.lastCode = r.Error, r.Code
		default:
			// decodeRecord admits only known states; recProbe records are
			// dropped by parseJournal before they get here.
			return zkerr.Malformedf("jobs: journal seq %d: unknown state %q", r.Seq, r.State)
		}
		if j.state.Terminal() {
			if t, err := time.Parse(time.RFC3339Nano, r.T); err == nil {
				j.terminalAt = t
			}
		}
	}
	now := time.Now()
	for _, j := range m.order {
		m.stats.Accepted++
		if j.state == StateRunning {
			// The attempt was in flight at the crash: refund it so the
			// interruption does not consume retry budget, and mark the
			// job recovered for observability.
			if j.attempt > 0 {
				j.attempt--
			}
			j.state = StateAccepted
			j.recovered = true
			m.stats.RecoveredJobs++
		}
		switch j.state {
		case StateDone:
			m.stats.Done++
		case StateFailed:
			m.stats.Failed++
		case StateCancelled:
			m.stats.Cancelled++
		}
		if j.terminal() {
			if j.terminalAt.IsZero() {
				// A terminal record whose timestamp does not parse: date
				// it now so the retention clock still starts ticking.
				j.terminalAt = now
			}
			close(j.done)
		} else {
			m.stats.Active++
			m.activeTenant[j.spec.Tenant]++
		}
	}
	return nil
}

// sweepOrphanProofs deletes proof files no loaded job references: a
// crash between a compaction's snapshot rename and its proof-file GC
// (or between a proof persist and its journal record, when the job
// later resolved differently) strands them. Runs once at Open, before
// workers start, so no attempt can be writing proofs concurrently.
func (m *Manager) sweepOrphanProofs() int64 {
	referenced := make(map[string]struct{}, len(m.byID))
	for _, j := range m.byID {
		if j.proofFile != "" {
			referenced[filepath.Base(j.proofFile)] = struct{}{}
		}
	}
	dir := filepath.Join(m.cfg.Dir, proofsDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := referenced[e.Name()]; ok {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	if n > 0 {
		m.logf("nocap-jobs event=orphan_proofs_swept count=%d", n)
	}
	return n
}

// appendLocked journals one record through the degraded-mode state
// machine: every disk failure feeds the consecutive-failure streak,
// every success resets it (and exits degraded mode if entered). Caller
// holds m.mu.
func (m *Manager) appendLocked(r record) error {
	err := m.journal.append(r)
	if err != nil {
		m.stats.JournalAppendErrors++
		m.noteDiskFailureLocked("journal.append", err)
		return err
	}
	m.noteDiskSuccessLocked()
	return nil
}

// noteDiskFailureLocked records one failed disk write; at
// DegradedThreshold consecutive failures the manager enters degraded
// mode. Caller holds m.mu.
func (m *Manager) noteDiskFailureLocked(op string, err error) {
	m.stats.DiskFailStreak++
	if !m.stats.Degraded && m.stats.DiskFailStreak >= int64(m.cfg.DegradedThreshold) {
		m.stats.Degraded = true
		m.degradedSince = time.Now()
		m.stats.DegradedEntries++
		m.logf("nocap-jobs event=degraded_enter trigger=%s consecutive_failures=%d err=%q", op, m.stats.DiskFailStreak, err)
	}
}

// noteDiskSuccessLocked records one successful disk write, resetting
// the failure streak and exiting degraded mode. Caller holds m.mu.
func (m *Manager) noteDiskSuccessLocked() {
	m.stats.DiskFailStreak = 0
	if m.stats.Degraded {
		m.stats.Degraded = false
		m.logf("nocap-jobs event=degraded_exit duration=%s", time.Since(m.degradedSince).Round(time.Millisecond))
	}
}

// Degraded reports whether the manager is refusing new jobs over disk
// failures, and for how long it has been.
func (m *Manager) Degraded() (bool, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.stats.Degraded {
		return false, 0
	}
	return true, time.Since(m.degradedSince)
}

// prober is the degraded-mode recovery loop: while degraded, append a
// no-op probe record through the real journal path every ProbeInterval;
// the first success flips the manager back to healthy (inside
// appendLocked). Replay skips probe records, so they cost one journal
// line until the next compaction.
func (m *Manager) prober() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
			m.mu.Lock()
			if m.stats.Degraded && !m.closing {
				m.stats.ProbeWrites++
				_ = m.appendLocked(record{Job: probeJobID, State: recProbe})
			}
			m.mu.Unlock()
		}
	}
}
