package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// The journal is the durability backbone of the job layer: an
// append-only JSONL file in the manager's data directory where every
// state transition is written and fsync'd *before* the transition takes
// effect for callers. A submission is acknowledged only after its
// accepted record is on disk; a proof is reported done only after the
// proof file has been atomically renamed into place and the done record
// synced. Recovery is therefore a pure replay: snapshot (if present)
// then journal tail, the in-memory table a cache of their suffix state.
//
// Checksums (DESIGN.md §13): every record appended carries a CRC32
// checksum of its own JSON encoding, so replay distinguishes three
// kinds of damage instead of one:
//
//   - a torn tail (crash mid-append: unterminated or undecodable FINAL
//     line) is dropped and the file truncated back to its last clean
//     record — the affected job resumes from its previous state;
//   - a corrupt record anywhere (bad or missing checksum, undecodable
//     mid-file line, semantically bogus fields) is skipped and counted,
//     because
//     one flipped sector must not take down a journal with thousands of
//     healthy records around it;
//   - more than maxConsecutiveCorrupt corrupt records in a row is not
//     bit-rot but a destroyed file, and recovery refuses to start
//     rather than silently serve a fraction of the truth.

// journalName is the journal file's name inside the data directory.
const journalName = "journal.jsonl"

// proofsDirName is the subdirectory holding completed proof payloads.
const proofsDirName = "proofs"

// snapshotName is the compaction snapshot's file name (DESIGN.md §13).
const snapshotName = "snapshot.json"

// probeJobID is the reserved pseudo-job id of degraded-mode probe
// records; replay skips them.
const probeJobID = "_probe"

// maxConsecutiveCorrupt is the hard cap on corrupt records tolerated in
// a row before recovery refuses to start: past it the journal is not
// bit-rotten but destroyed, and replaying the survivors would present a
// confidently wrong job table.
const maxConsecutiveCorrupt = 16

// Disk-fault injection points (DESIGN.md §13). fiJournalAppend fires
// before every journal append (models an EIO/ENOSPC refusal before any
// byte lands); fiJournalWrite fires at the write
// syscall and leaves a SHORT write behind — half the record's bytes,
// exactly the torn state a full disk produces; fiJournalFsync fires at
// the fsync after a clean write, the fsyncgate case where the data may
// or may not have reached the platter.
var (
	fiJournalAppend = faultinject.Register("jobs.journal.append")
	fiJournalWrite  = faultinject.Register("jobs.journal.write")
	fiJournalFsync  = faultinject.Register("jobs.journal.fsync")
)

// fiRecoverReplay fires once at the start of journal replay; readiness
// tests use a Delay plan here to hold the server in "recovering".
var fiRecoverReplay = faultinject.Register("jobs.recover.replay")

// recState is the journal-record state vocabulary. It is a superset of
// the public State set: "retrying" marks a failed attempt whose job went
// back to the queue with a backoff, which the public API reports as
// StateAccepted with a non-zero attempt count, and "probe" is the
// degraded-mode health probe — a no-op record whose only meaning is
// that the append that produced it succeeded.
type recState string

const (
	recAccepted  recState = "accepted"
	recRunning   recState = "running"
	recRetrying  recState = "retrying"
	recDone      recState = "done"
	recFailed    recState = "failed"
	recCancelled recState = "cancelled"
	recProbe     recState = "probe"
)

func validRecState(s recState) bool {
	switch s {
	case recAccepted, recRunning, recRetrying, recDone, recFailed, recCancelled, recProbe:
		return true
	}
	return false
}

// record is one journal line.
type record struct {
	Seq     uint64   `json:"seq"`
	Job     string   `json:"job"`
	State   recState `json:"state"`
	T       string   `json:"t,omitempty"`
	Spec    *Spec    `json:"spec,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Error   string   `json:"error,omitempty"`
	Code    string   `json:"code,omitempty"`
	// BackoffMS records the scheduled retry delay (informational; after
	// a crash the job is re-enqueued immediately).
	BackoffMS  int64           `json:"backoff_ms,omitempty"`
	ProofFile  string          `json:"proof_file,omitempty"`
	ProofBytes int             `json:"proof_bytes,omitempty"`
	Stats      json.RawMessage `json:"stats,omitempty"`
	// Cached marks a done record whose proof came from the proof cache.
	Cached bool `json:"cached,omitempty"`
	// CRC is the IEEE CRC32 of this record's JSON encoding with the crc
	// field absent. A record without one is corrupt: damage that ate the
	// key must not also skip the check.
	CRC *uint32 `json:"crc,omitempty"`
}

// encodeRecord marshals r with its checksum and trailing newline.
// The CRC covers the record's own compact JSON encoding with the crc
// field omitted; verification re-derives that encoding from the decoded
// value, so any bit flip in any field — including inside the opaque
// Spec payload — breaks the match.
func encodeRecord(r record) ([]byte, error) {
	r.CRC = nil
	base, err := json.Marshal(r)
	if err != nil {
		return nil, zkerr.Internalf("jobs: marshal journal record: %v", err)
	}
	c := crc32.ChecksumIEEE(base)
	r.CRC = &c
	line, err := json.Marshal(r)
	if err != nil {
		return nil, zkerr.Internalf("jobs: marshal journal record: %v", err)
	}
	return append(line, '\n'), nil
}

// decodeRecord decodes and validates one journal line (without its
// newline). Every failure is classified under the zkerr taxonomy as
// malformed — the fuzz target FuzzDecodeRecord pins that hostile bytes
// can never panic this path or escape the taxonomy.
func decodeRecord(line []byte) (record, error) {
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		return record{}, zkerr.Malformedf("jobs: journal record undecodable: %v", err)
	}
	if r.Job == "" {
		return record{}, zkerr.Malformedf("jobs: journal record without a job id")
	}
	if !validRecState(r.State) {
		return record{}, zkerr.Malformedf("jobs: journal record with unknown state %q", r.State)
	}
	if r.Attempt < 0 || r.ProofBytes < 0 || r.BackoffMS < 0 {
		return record{}, zkerr.Malformedf("jobs: journal record with negative counters (attempt=%d proof_bytes=%d backoff_ms=%d)",
			r.Attempt, r.ProofBytes, r.BackoffMS)
	}
	if r.CRC == nil {
		return record{}, zkerr.Malformedf("jobs: journal record without a checksum")
	}
	want := *r.CRC
	r.CRC = nil
	base, err := json.Marshal(r)
	if err != nil {
		return record{}, zkerr.Malformedf("jobs: journal record re-encode: %v", err)
	}
	if got := crc32.ChecksumIEEE(base); got != want {
		return record{}, zkerr.Malformedf("jobs: journal record checksum mismatch (crc %08x, computed %08x)", want, got)
	}
	r.CRC = &want
	return r, nil
}

// journal is the open append handle plus its counters.
type journal struct {
	path    string
	f       *os.File
	seq     uint64
	records int64
	bytes   int64
	// dirty is set after a failed write left bytes past the last clean
	// record and the truncate-back also failed; the next append retries
	// the truncate before writing anything.
	dirty bool
}

// replayInfo summarizes what recovery found.
type replayInfo struct {
	// snap is the compaction snapshot the journal tail applies over;
	// nil when no compaction has ever run.
	snap    *snapshot
	records []record
	// torn is 1 if the final record was damaged and dropped.
	torn int64
	// corrupt counts records skipped for failed checksums or
	// undecodable/bogus content anywhere before the tail.
	corrupt int64
	// orphanTemps counts stranded *.tmp-* files swept from the data
	// directory tree (crash between temp-write and rename).
	orphanTemps int64
}

// openJournal reads (replaying) and opens (for append) the snapshot and
// journal in dir, creating the directory layout on first use.
func openJournal(dir string) (*journal, replayInfo, error) {
	if err := os.MkdirAll(filepath.Join(dir, proofsDirName), 0o755); err != nil {
		return nil, replayInfo{}, fmt.Errorf("jobs: create data dir: %w", err)
	}
	if err := faultinject.Check(fiRecoverReplay); err != nil {
		return nil, replayInfo{}, err
	}
	var info replayInfo
	// A crash between a temp write and its rename (snapshot, journal
	// tail, or proof persist) strands a *.tmp-* file that nothing will
	// ever reference again; sweep them first so they cannot accumulate
	// across crashes. Proof files orphaned AFTER a rename (their owning
	// job GC'd mid-compaction) are swept later, once the job table
	// exists to check references against.
	info.orphanTemps = sweepTempFiles(dir, filepath.Join(dir, proofsDirName))

	snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, replayInfo{}, err
	}
	info.snap = snap
	baseSeq := uint64(0)
	if snap != nil {
		baseSeq = snap.BaseSeq
	}

	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, replayInfo{}, fmt.Errorf("jobs: read journal: %w", err)
	}
	cleanLen, err := parseJournal(data, baseSeq, &info)
	if err != nil {
		return nil, replayInfo{}, err
	}
	if cleanLen < int64(len(data)) {
		// Drop the torn tail so the next append starts on a clean line.
		if err := os.Truncate(path, cleanLen); err != nil {
			return nil, replayInfo{}, fmt.Errorf("jobs: truncate torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, replayInfo{}, fmt.Errorf("jobs: open journal: %w", err)
	}
	jl := &journal{path: path, f: f, seq: baseSeq, records: int64(len(info.records)), bytes: cleanLen}
	for _, r := range info.records {
		if r.Seq > jl.seq {
			jl.seq = r.Seq
		}
	}
	// Make the directory entries (journal file, proofs dir) durable too.
	syncDir(dir)
	return jl, info, nil
}

// parseJournal decodes the journal bytes into info, tolerating a torn
// final record and skipping (with a count and a consecutive-run cap)
// corrupt records anywhere else. Records with seq <= baseSeq are
// already folded into the snapshot and are skipped silently — after a
// crash between the snapshot rename and the journal-tail swap the full
// pre-compaction journal is still on disk, and replaying its prefix
// over the snapshot would double-apply it. Returns the byte length of
// the clean prefix (everything before the torn tail, if any).
func parseJournal(data []byte, baseSeq uint64, info *replayInfo) (int64, error) {
	offset := int64(0)
	consecutive := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Unterminated final line: a torn append. Drop it.
			info.torn++
			return offset, nil
		}
		line := data[:nl]
		rest := data[nl+1:]
		r, err := decodeRecord(line)
		if err != nil {
			if len(rest) == 0 && json.Valid(line) == false {
				// Final record, terminated but not even JSON: the newline
				// landed and the payload did not. A torn append, not
				// corruption — truncate it away like the unterminated case.
				info.torn++
				return offset, nil
			}
			// Corruption in flight data: skip the record, count it, and
			// keep the survivors — unless too many fall in a row.
			info.corrupt++
			consecutive++
			if consecutive > maxConsecutiveCorrupt {
				return 0, zkerr.Malformedf(
					"jobs: journal corrupt at byte %d: %d consecutive undecodable records (cap %d): %v",
					offset, consecutive, maxConsecutiveCorrupt, err)
			}
		} else {
			consecutive = 0
			if r.Seq > baseSeq && r.State != recProbe {
				info.records = append(info.records, r)
			}
		}
		offset += int64(nl + 1)
		data = rest
	}
	return offset, nil
}

// append writes one record and fsyncs it. The caller holds the manager
// lock, which serializes seq assignment and file writes.
//
// Failure discipline: a failed or short write can leave a torn fragment
// at the file's tail, and every later append would then glue its record
// onto that fragment — turning one bad sector's worth of damage into an
// unbounded run of undecodable lines. So any write/fsync failure is
// followed by a truncate back to the last clean length; if even the
// truncate fails the journal is marked dirty and the next append
// retries it before writing a byte.
func (jl *journal) append(r record) error {
	if err := faultinject.Check(fiJournalAppend); err != nil {
		return zkerr.Internalf("jobs: journal append: %v", err)
	}
	if jl.dirty {
		if err := jl.f.Truncate(jl.bytes); err != nil {
			return fmt.Errorf("jobs: journal still dirty after failed write (truncate: %w)", err)
		}
		jl.dirty = false
	}
	jl.seq++
	r.Seq = jl.seq
	r.T = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := encodeRecord(r)
	if err != nil {
		return err
	}
	if ferr := faultinject.Check(fiJournalWrite); ferr != nil {
		// Model the injected fault as a SHORT write: half the record
		// lands, exactly what ENOSPC mid-record leaves behind.
		_, _ = jl.f.Write(line[:len(line)/2])
		jl.recoverTail()
		return fmt.Errorf("jobs: journal write: %w", ferr)
	}
	n, err := jl.f.Write(line)
	if err != nil || n < len(line) {
		jl.recoverTail()
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(line))
		}
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	if ferr := faultinject.Check(fiJournalFsync); ferr != nil {
		// After a (real or injected) fsync failure the page cache state
		// is unknowable; the record is treated as not durable and the
		// tail rolled back so the on-disk file stays parseable.
		jl.recoverTail()
		return fmt.Errorf("jobs: journal fsync: %w", ferr)
	}
	if err := jl.f.Sync(); err != nil {
		jl.recoverTail()
		return fmt.Errorf("jobs: journal fsync: %w", err)
	}
	jl.records++
	jl.bytes += int64(len(line))
	return nil
}

// recoverTail truncates the journal back to its last clean record after
// a failed append, so the failure stays a failure instead of becoming
// persistent tail corruption. A failed truncate marks the journal dirty
// for the next append to retry.
func (jl *journal) recoverTail() {
	if err := jl.f.Truncate(jl.bytes); err != nil {
		jl.dirty = true
	}
}

func (jl *journal) close() error { return jl.f.Close() }

// sweepTempFiles removes stranded temp files (pattern <base>.tmp-*, as
// written by writeFileAtomic and the compactor) from the given
// directories and returns how many were deleted.
func sweepTempFiles(dirs ...string) int64 {
	var n int64
	for _, dir := range dirs {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
		for _, path := range matches {
			if info, err := os.Stat(path); err != nil || info.IsDir() {
				continue
			}
			if os.Remove(path) == nil {
				n++
			}
		}
	}
	return n
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable; errors are ignored (some filesystems refuse directory syncs,
// and the data-loss window is the OS's, not ours).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus an atomic rename — the same pattern nocap-prove uses
// for -out — so a crash mid-write never leaves a truncated proof at
// path. faultPoint, when non-empty, names a faultinject point checked
// between the temp write and its fsync, so chaos tests can fail the
// persist exactly where ENOSPC would.
func writeFileAtomic(path string, data []byte, mode os.FileMode, faultPoint string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if faultPoint != "" {
		if err := faultinject.Check(faultPoint); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, mode); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}
