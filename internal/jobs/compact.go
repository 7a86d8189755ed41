package jobs

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// Snapshot + compaction (DESIGN.md §13). The journal is append-only, so
// a long-lived manager's durable state grows without bound even though
// its live state does not. The compactor bounds it: when the journal
// passes a byte or record cap it (1) garbage-collects terminal jobs
// (and their proof files) older than the retention window, (2) writes
// the surviving job table to snapshot.json atomically, and (3) swaps
// the journal for just its post-snapshot tail. Recovery then replays
// snapshot-then-tail.
//
// Crash safety is rename-commit at every step, in an order where each
// prefix of the protocol recovers a correct state:
//
//	capture (under lock): job table, BaseSeq = journal seq, tail offset
//	  → crash here: nothing on disk changed.
//	snapshot.json written via temp + rename + dir-fsync
//	  → crash before the rename: old snapshot (or none) + full journal.
//	  → crash after: new snapshot + full journal — records with
//	    seq <= BaseSeq are skipped on replay, so nothing double-applies.
//	journal tail copied to a temp file, fsync'd, renamed over journal
//	  → crash before the rename: new snapshot + full journal (as above).
//	  → crash after: snapshot + tail, the compacted steady state.
//	GC'd proof files deleted last
//	  → crash before: files orphaned, swept at next open (they are
//	    unreferenced by then); never deleted while any recoverable
//	    state still references them.
//
// The compactor also repairs journal-lost jobs: a terminal state whose
// journal append failed becomes durable the moment the snapshot rename
// lands, so the journal_lost flag is cleared for every job the snapshot
// captured.

// snapshotVersion is the snapshot.json format version.
const snapshotVersion = 1

// Compaction fault/kill injection points. fiSnapshotWrite fires inside
// the snapshot's atomic write (between temp write and fsync — the
// ENOSPC position); fiProofPersist likewise for proof files. The
// fiCompact* points are the three SIGKILL windows of the chaos matrix:
// before the snapshot rename, after it (before the tail swap), and
// during the swap (tail temp written, final rename pending).
var (
	fiSnapshotWrite   = faultinject.Register("jobs.snapshot.write")
	fiProofPersist    = faultinject.Register("jobs.proof.persist")
	fiCompactSnapshot = faultinject.Register("jobs.compact.snapshot")
	fiCompactTruncate = faultinject.Register("jobs.compact.truncate")
	fiCompactSwap     = faultinject.Register("jobs.compact.swap")
)

// snapJob is one job's durable form inside a snapshot. Only state that
// journal replay itself would reconstruct is persisted — in particular
// no recovered or cancel-requested flags — so recovering from
// snapshot+tail and recovering from the full journal yield identical
// job tables.
type snapJob struct {
	ID         string          `json:"id"`
	State      State           `json:"state"`
	Spec       Spec            `json:"spec"`
	Attempt    int             `json:"attempt,omitempty"`
	Error      string          `json:"error,omitempty"`
	Code       string          `json:"code,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	ProofFile  string          `json:"proof_file,omitempty"`
	ProofBytes int             `json:"proof_bytes,omitempty"`
	Stats      json.RawMessage `json:"stats,omitempty"`
	TerminalAt string          `json:"terminal_at,omitempty"`
}

// snapshot is the durable compaction state: the whole job table as of
// journal sequence BaseSeq. Journal records with seq <= BaseSeq are
// folded in; replay applies only the tail beyond it.
type snapshot struct {
	Version int       `json:"version"`
	BaseSeq uint64    `json:"base_seq"`
	T       string    `json:"t,omitempty"`
	Jobs    []snapJob `json:"jobs"`
	// CRC is the IEEE CRC32 of the snapshot's JSON encoding with the
	// crc field absent, same discipline as journal records.
	CRC *uint32 `json:"crc,omitempty"`
}

// encodeSnapshot marshals s with its checksum.
func encodeSnapshot(s snapshot) ([]byte, error) {
	s.CRC = nil
	base, err := json.Marshal(s)
	if err != nil {
		return nil, zkerr.Internalf("jobs: marshal snapshot: %v", err)
	}
	c := crc32.ChecksumIEEE(base)
	s.CRC = &c
	return json.Marshal(s)
}

// loadSnapshot reads and verifies dir's snapshot; (nil, nil) when none
// exists. Unlike journal records — where damage is skipped record by
// record — a snapshot that fails its checksum is fatal: it is the only
// copy of every pre-compaction job, it was written atomically (so a
// torn write cannot produce one), and "skipping" it would silently
// forget the journal's entire folded history.
func loadSnapshot(dir string) (*snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("jobs: read snapshot: %w", err)
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, zkerr.Malformedf("jobs: snapshot undecodable: %v", err)
	}
	if s.Version != snapshotVersion {
		return nil, zkerr.Malformedf("jobs: snapshot version %d (want %d)", s.Version, snapshotVersion)
	}
	if s.CRC == nil {
		return nil, zkerr.Malformedf("jobs: snapshot without checksum")
	}
	want := *s.CRC
	s.CRC = nil
	base, err := json.Marshal(s)
	if err != nil {
		return nil, zkerr.Malformedf("jobs: snapshot re-encode: %v", err)
	}
	if got := crc32.ChecksumIEEE(base); got != want {
		return nil, zkerr.Malformedf("jobs: snapshot checksum mismatch (crc %08x, computed %08x)", want, got)
	}
	for _, j := range s.Jobs {
		if j.ID == "" {
			return nil, zkerr.Malformedf("jobs: snapshot job without an id")
		}
		switch j.State {
		case StateAccepted, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			return nil, zkerr.Malformedf("jobs: snapshot job %s with unknown state %q", j.ID, j.State)
		}
	}
	return &s, nil
}

// compactDue reports whether a cap is crossed and names the trigger.
func (m *Manager) compactDue() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing || m.stats.Degraded {
		// A failing disk cannot compact; probes own the recovery path.
		return "", false
	}
	if m.cfg.JournalMaxBytes > 0 && m.journal.bytes >= m.cfg.JournalMaxBytes {
		return "journal-bytes", true
	}
	if m.cfg.JournalMaxRecords > 0 && m.journal.records >= m.cfg.JournalMaxRecords {
		return "journal-records", true
	}
	return "", false
}

// compactor is the background loop: check the caps, compact when due.
func (m *Manager) compactor() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.CompactCheck)
	defer tick.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
			if trigger, due := m.compactDue(); due {
				if err := m.compact(trigger); err != nil {
					m.logf("nocap-jobs event=compaction_failed trigger=%s err=%q", trigger, err)
				}
			}
		}
	}
}

// Compact runs one compaction cycle synchronously (the background
// compactor calls the same path when a cap is crossed).
func (m *Manager) Compact() error { return m.compact("manual") }

func (m *Manager) compact(trigger string) error {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	start := time.Now()

	// Phase 0 — capture, under the manager lock: the job table (minus
	// retention-expired terminal jobs), the sequence horizon, and the
	// tail offset. Nothing durable changes here; expired jobs leave the
	// table but their proof files stay on disk until the swap commits.
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return ErrClosed
	}
	var gcProofs []string
	if m.cfg.Retention > 0 {
		cutoff := time.Now().Add(-m.cfg.Retention)
		kept := m.order[:0]
		for _, j := range m.order {
			if j.terminal() && !j.terminalAt.IsZero() && j.terminalAt.Before(cutoff) {
				delete(m.byID, j.id)
				if j.proofFile != "" {
					gcProofs = append(gcProofs, j.proofFile)
				}
				m.stats.RetiredJobs++
				continue
			}
			kept = append(kept, j)
		}
		// Zero the dropped tail so GC'd jobRecs are not pinned.
		for i := len(kept); i < len(m.order); i++ {
			m.order[i] = nil
		}
		m.order = kept
	}
	snap := snapshot{
		Version: snapshotVersion,
		BaseSeq: m.journal.seq,
		T:       time.Now().UTC().Format(time.RFC3339Nano),
		Jobs:    make([]snapJob, 0, len(m.order)),
	}
	snapped := make([]*jobRec, 0, len(m.order))
	for _, j := range m.order {
		sj := snapJob{
			ID: j.id, State: j.state, Spec: j.spec, Attempt: j.attempt,
			Error: j.lastErr, Code: j.lastCode, Cached: j.cached,
			ProofFile: j.proofFile, ProofBytes: j.proofBytes, Stats: j.stats,
		}
		if !j.terminalAt.IsZero() {
			sj.TerminalAt = j.terminalAt.UTC().Format(time.RFC3339Nano)
		}
		snap.Jobs = append(snap.Jobs, sj)
		snapped = append(snapped, j)
	}
	tailStart := m.journal.bytes
	bytesBefore, recordsBefore := m.journal.bytes, m.journal.records
	m.mu.Unlock()

	// Phase 1 — snapshot. The rename inside writeFileAtomic is the
	// commit point; a kill at fiCompactSnapshot recovers from the old
	// snapshot and the intact journal.
	if err := faultinject.Check(fiCompactSnapshot); err != nil {
		return err
	}
	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(m.cfg.Dir, snapshotName), data, 0o644, fiSnapshotWrite); err != nil {
		err = fmt.Errorf("jobs: write snapshot: %w", err)
		m.mu.Lock()
		m.noteDiskFailureLocked("snapshot.write", err)
		m.mu.Unlock()
		return err
	}

	// Phase 2 — swap the journal for its tail. A kill at
	// fiCompactTruncate (before anything) or fiCompactSwap (tail temp
	// written, final rename pending) recovers from the new snapshot
	// plus the full journal, whose seq <= BaseSeq prefix replay skips.
	if err := faultinject.Check(fiCompactTruncate); err != nil {
		return err
	}
	m.mu.Lock()
	if m.closing {
		// Close may already have released the journal handle; swapping
		// now would strand an open file past Close's guarantees.
		m.mu.Unlock()
		return ErrClosed
	}
	err = m.journal.swapTail(tailStart)
	bytesAfter, recordsAfter := m.journal.bytes, m.journal.records
	if err != nil {
		m.noteDiskFailureLocked("journal.swap", err)
	} else {
		// The snapshot rename made every captured job's state durable,
		// including terminal states whose journal append had failed.
		for _, j := range snapped {
			if j.journalLost && j.terminal() {
				j.journalLost = false
			}
		}
		m.stats.Compactions++
		m.stats.SnapshotBytes = int64(len(data))
		m.noteDiskSuccessLocked()
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}

	// Phase 3 — now that no recoverable state references them, drop the
	// GC'd proof files. A crash in here strands orphans that the next
	// open's sweep deletes.
	for _, p := range gcProofs {
		_ = os.Remove(p)
	}

	m.logf("nocap-jobs event=compaction trigger=%s duration=%s bytes_before=%d bytes_after=%d records_before=%d records_after=%d snapshot_bytes=%d snapshot_jobs=%d gc_jobs=%d",
		trigger, time.Since(start).Round(time.Microsecond), bytesBefore, bytesAfter, recordsBefore, recordsAfter, len(data), len(snap.Jobs), len(gcProofs))
	return nil
}

// swapTail atomically replaces the journal file with its own bytes from
// tailStart on: copy tail to a temp file, fsync, rename over the
// journal, reopen the append handle. Caller holds the manager lock (no
// concurrent appends). On error the original journal and handle remain
// valid.
func (jl *journal) swapTail(tailStart int64) error {
	tail, err := readFileRange(jl.path, tailStart, jl.bytes)
	if err != nil {
		return fmt.Errorf("jobs: read journal tail: %w", err)
	}
	dir := filepath.Dir(jl.path)
	tmp, err := os.CreateTemp(dir, journalName+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: journal tail temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(tail); err != nil {
		return fail(fmt.Errorf("jobs: write journal tail: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("jobs: sync journal tail: %w", err))
	}
	if err := faultinject.Check(fiCompactSwap); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobs: close journal tail: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobs: chmod journal tail: %w", err)
	}
	if err := os.Rename(tmpName, jl.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobs: swap journal: %w", err)
	}
	syncDir(dir)
	// The rename committed: move the handle to the new file. The old
	// handle points at the unlinked inode; close it and reopen.
	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The swap is durable but the handle is gone; keep appending to
		// the unlinked file would lose records silently, so fail hard.
		return fmt.Errorf("jobs: reopen journal after swap: %w", err)
	}
	_ = jl.f.Close()
	jl.f = f
	jl.bytes = int64(len(tail))
	jl.records = countLines(tail)
	jl.dirty = false
	return nil
}

// readFileRange reads path's bytes in [from, to).
func readFileRange(path string, from, to int64) ([]byte, error) {
	if to <= from {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, to-from)
	if _, err := io.ReadFull(io.NewSectionReader(f, from, to-from), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func countLines(b []byte) int64 {
	var n int64
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}
