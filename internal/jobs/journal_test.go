package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nocap/internal/zkerr"
)

// writeJournal writes raw bytes as the journal of a fresh data dir.
func writeJournal(t *testing.T, raw string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recLine is one journal line as the manager writes it: encodeRecord's
// output, checksum included.
func recLine(t *testing.T, r record) string {
	t.Helper()
	b, err := encodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseAll runs parseJournal with no snapshot horizon.
func parseAll(raw []byte) (replayInfo, int64, error) {
	var info replayInfo
	clean, err := parseJournal(raw, 0, &info)
	return info, clean, err
}

func TestParseJournalCleanFile(t *testing.T) {
	raw := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted}) +
		recLine(t, record{Seq: 2, Job: "j-a", State: recRunning, Attempt: 1}) +
		recLine(t, record{Seq: 3, Job: "j-a", State: recDone, Attempt: 1})
	info, clean, err := parseAll([]byte(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(info.records) != 3 || info.torn != 0 {
		t.Fatalf("records %d torn %d", len(info.records), info.torn)
	}
	if clean != int64(len(raw)) {
		t.Fatalf("clean %d, want %d", clean, len(raw))
	}
}

func TestParseJournalTornUnterminatedFinal(t *testing.T) {
	good := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted})
	raw := good + `{"seq":2,"job":"j-a","sta` // crash mid-append, no newline
	info, clean, err := parseAll([]byte(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(info.records) != 1 || info.torn != 1 {
		t.Fatalf("records %d torn %d, want 1/1", len(info.records), info.torn)
	}
	if clean != int64(len(good)) {
		t.Fatalf("clean prefix %d, want %d", clean, len(good))
	}
}

func TestParseJournalTornTerminatedGarbageFinal(t *testing.T) {
	good := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted})
	raw := good + "\x00\x00garbage\n" // newline landed, payload did not
	info, clean, err := parseAll([]byte(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(info.records) != 1 || info.torn != 1 {
		t.Fatalf("records %d torn %d, want 1/1", len(info.records), info.torn)
	}
	if clean != int64(len(good)) {
		t.Fatalf("clean prefix %d, want %d", clean, len(good))
	}
}

// Journal v2: mid-file corruption is skipped and counted, not fatal —
// one flipped sector must not strand every healthy record around it.
func TestParseJournalMidFileCorruptionSkippedAndCounted(t *testing.T) {
	raw := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted}) +
		"not json at all\n" +
		recLine(t, record{Seq: 3, Job: "j-a", State: recDone})
	info, clean, err := parseAll([]byte(raw))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(info.records) != 2 || info.corrupt != 1 || info.torn != 0 {
		t.Fatalf("records %d corrupt %d torn %d, want 2/1/0", len(info.records), info.corrupt, info.torn)
	}
	if clean != int64(len(raw)) {
		t.Fatalf("clean %d, want %d (corrupt records stay in place until compaction)", clean, len(raw))
	}
}

// A record whose stored checksum disagrees with its content — or that
// carries no checksum at all, as when the damage ate the crc key — is
// corrupt even though it is perfectly valid JSON.
func TestParseJournalChecksumMismatchSkipped(t *testing.T) {
	good := recLine(t, record{Seq: 2, Job: "j-a", State: recRunning, Attempt: 1})
	for name, bad := range map[string]string{
		// Flip one byte inside the job id, leaving the stored crc behind.
		"mismatch": strings.Replace(good, `"job":"j-a"`, `"job":"j-b"`, 1),
		"missing":  `{"seq":2,"job":"j-a","state":"running","attempt":1}` + "\n",
	} {
		raw := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted}) +
			bad +
			recLine(t, record{Seq: 3, Job: "j-a", State: recDone, Attempt: 1})
		info, _, err := parseAll([]byte(raw))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if len(info.records) != 2 || info.corrupt != 1 {
			t.Fatalf("%s: records %d corrupt %d, want 2/1", name, len(info.records), info.corrupt)
		}
		for _, r := range info.records {
			if r.Seq == 2 {
				t.Fatalf("%s: unverifiable record survived replay", name)
			}
		}
	}
}

// Past maxConsecutiveCorrupt corrupt records in a row the journal is
// not bit-rotten but destroyed: recovery must refuse to start.
func TestParseJournalConsecutiveCorruptionCapFailsLoudly(t *testing.T) {
	raw := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted})
	for i := 0; i <= maxConsecutiveCorrupt; i++ {
		raw += "corrupt line\n"
	}
	raw += recLine(t, record{Seq: 2, Job: "j-a", State: recDone})
	if _, _, err := parseAll([]byte(raw)); !errors.Is(err, zkerr.ErrMalformedProof) {
		t.Fatalf("beyond consecutive cap: %v, want ErrMalformedProof", err)
	}
	// One fewer stays under the cap: skip-and-count applies.
	raw = recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted})
	for i := 0; i < maxConsecutiveCorrupt; i++ {
		raw += "corrupt line\n"
	}
	raw += recLine(t, record{Seq: 2, Job: "j-a", State: recDone})
	info, _, err := parseAll([]byte(raw))
	if err != nil {
		t.Fatalf("at the cap: %v", err)
	}
	if len(info.records) != 2 || info.corrupt != int64(maxConsecutiveCorrupt) {
		t.Fatalf("records %d corrupt %d", len(info.records), info.corrupt)
	}
}

// decodeRecord round-trips encodeRecord and rejects semantic garbage
// with the zkerr taxonomy.
func TestDecodeRecordValidation(t *testing.T) {
	line, err := encodeRecord(record{Seq: 7, Job: "j-a", State: recDone, Attempt: 2, ProofBytes: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeRecord(line[:len(line)-1])
	if err != nil {
		t.Fatalf("decode own encoding: %v", err)
	}
	if r.Seq != 7 || r.Job != "j-a" || r.State != recDone || r.CRC == nil {
		t.Fatalf("round-trip mangled record: %+v", r)
	}
	for name, raw := range map[string]string{
		"no-job":           `{"seq":1,"state":"done"}`,
		"unknown-state":    `{"seq":1,"job":"j-a","state":"zombie"}`,
		"negative-attempt": `{"seq":1,"job":"j-a","state":"done","attempt":-1}`,
		"no-checksum":      `{"seq":1,"job":"j-a","state":"done"}`,
		"truncated":        string(line[:len(line)/2]),
	} {
		if _, err := decodeRecord([]byte(raw)); !errors.Is(err, zkerr.ErrMalformedProof) {
			t.Fatalf("%s: %v, want ErrMalformedProof", name, err)
		}
	}
}

// TestOpenTruncatesTornTail: openJournal must physically truncate the
// torn tail so subsequent appends start on a clean line boundary.
func TestOpenTruncatesTornTail(t *testing.T) {
	good := recLine(t, record{Seq: 1, Job: "j-a", State: recAccepted})
	dir := writeJournal(t, good+`{"seq":2,"job":"j-a","state":"runn`)
	jl, info, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer jl.close()
	if info.torn != 1 || len(info.records) != 1 {
		t.Fatalf("torn %d records %d", info.torn, len(info.records))
	}
	if err := jl.append(record{Job: "j-a", State: recRunning, Attempt: 1}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	// Re-parse from disk: both records decode, nothing torn.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	info2, _, err := parseAll(data)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(info2.records) != 2 || info2.torn != 0 {
		t.Fatalf("after append: records %d torn %d, want 2/0", len(info2.records), info2.torn)
	}
	// Sequence numbering continues past the surviving record.
	if info2.records[1].Seq != 2 {
		t.Fatalf("resumed seq %d, want 2", info2.records[1].Seq)
	}
}

// TestTornFinalRecordRecoversFromPreviousState is the satellite's
// end-to-end case: a journal whose final record (a terminal "done") was
// torn off mid-write must recover the job from its previous journaled
// state — running — and re-enqueue it to completion.
func TestTornFinalRecordRecoversFromPreviousState(t *testing.T) {
	dir := t.TempDir()

	// Run a job to completion to get a realistic journal.
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{Proof: []byte("first")}, nil
	})
	cfg.Dir = dir
	m1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, id)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m1.Close(ctx)
	cancel()

	// Tear the final (done) record: keep a strict prefix of its bytes.
	jp := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"done"`) {
		t.Fatalf("unexpected final record: %q", last)
	}
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(jp, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery: the done record is gone, so the job's last clean state
	// is running → re-enqueued (attempt refunded) and completed again.
	var reran bool
	cfg2 := cfg
	cfg2.Exec = func(ctx context.Context, spec Spec) (Result, error) {
		reran = true
		return Result{Proof: []byte("second")}, nil
	}
	m2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("reopen over torn journal: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m2.Close(ctx)
	}()
	if mm := m2.Metrics(); mm.TornRecords != 1 || mm.RecoveredJobs != 1 {
		t.Fatalf("torn %d recovered %d, want 1/1", mm.TornRecords, mm.RecoveredJobs)
	}
	info := waitTerminal(t, m2, id)
	if info.State != StateDone {
		t.Fatalf("state %s (err %q), want done", info.State, info.Error)
	}
	if !info.Recovered {
		t.Fatal("job not flagged recovered")
	}
	if info.Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (interrupted attempt refunded)", info.Attempts)
	}
	if !reran {
		t.Fatal("recovered job never re-executed")
	}
	proof, err := m2.Proof(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(proof) != "second" {
		t.Fatalf("proof %q, want re-proved bytes", proof)
	}
	assertExactlyOneTerminal(t, dir)
}

// TestTornAcceptedRecordIsDroppedSilently: a submission whose accepted
// record tore was never acknowledged to the client, so recovery must
// drop it — no ghost job.
func TestTornAcceptedRecordIsDroppedSilently(t *testing.T) {
	spec := Spec{Payload: json.RawMessage(`1`)}
	full := recLine(t, record{Seq: 1, Job: "j-ghost", State: recAccepted, Spec: &spec})
	dir := writeJournal(t, full[:len(full)/2])
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, nil
	})
	cfg.Dir = dir
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	}()
	if _, err := m.Get("j-ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("torn-accepted job resurfaced: %v", err)
	}
	if got := len(m.List()); got != 0 {
		t.Fatalf("%d jobs after recovering an unacked submission, want 0", got)
	}
	if mm := m.Metrics(); mm.TornRecords != 1 {
		t.Fatalf("torn records %d, want 1", mm.TornRecords)
	}
}

// TestReplayOrphanTransitionSkippedAndCounted: a running record for a
// job with no accepted record means the accepted record was lost to
// corruption. Under journal v2's skip-and-count policy the orphan is
// itself skipped and counted — failing loudly would turn one corrupt
// record into a refusal to start.
func TestReplayOrphanTransitionSkippedAndCounted(t *testing.T) {
	dir := writeJournal(t,
		recLine(t, record{Seq: 1, Job: "j-x", State: recRunning, Attempt: 1})+
			recLine(t, record{Seq: 2, Job: "j-ok", State: recAccepted})+
			recLine(t, record{Seq: 3, Job: "j-ok", State: recDone, Attempt: 1}))
	cfg := testConfig(t, func(ctx context.Context, spec Spec) (Result, error) {
		return Result{}, nil
	})
	cfg.Dir = dir
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open over orphan transition: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	}()
	if _, err := m.Get("j-x"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("orphan job resurfaced: %v", err)
	}
	if info, err := m.Get("j-ok"); err != nil || info.State != StateDone {
		t.Fatalf("healthy neighbour: %+v, %v", info, err)
	}
	if mm := m.Metrics(); mm.CorruptRecords != 1 {
		t.Fatalf("corrupt records %d, want 1", mm.CorruptRecords)
	}
}

// TestJournalSeqMonotonic pins that appends keep a strictly increasing
// sequence across reopen.
func TestJournalSeqMonotonic(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := jl.append(record{Job: "j-a", State: recAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()
	jl2, info, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	if err := jl2.append(record{Job: "j-a", State: recRunning}); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, r := range append(info.records, record{Seq: jl2.seq}) {
		if r.Seq <= last {
			t.Fatalf("record %d seq %d not increasing past %d", i, r.Seq, last)
		}
		last = r.Seq
	}
	if jl2.seq != 4 {
		t.Fatalf("seq after reopen+append = %d, want 4", jl2.seq)
	}
}

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "proof.bin")
	if err := writeFileAtomic(path, []byte("short"), 0o644, ""); err != nil {
		t.Fatal(err)
	}
	long := []byte(strings.Repeat("x", 4096))
	if err := writeFileAtomic(path, long, 0o600, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(long) {
		t.Fatalf("file %d bytes, want %d", len(data), len(long))
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("leftover files: %v", names)
	}
}

// TestJournalGrowthMetrics sanity-checks the byte/record counters the
// metrics endpoint reports.
func TestJournalGrowthMetrics(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if jl.records != 0 || jl.bytes != 0 {
		t.Fatalf("fresh journal records %d bytes %d", jl.records, jl.bytes)
	}
	for i := 0; i < 5; i++ {
		if err := jl.append(record{Job: fmt.Sprintf("j-%d", i), State: recAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if jl.records != 5 || jl.bytes != st.Size() {
		t.Fatalf("counters records=%d bytes=%d, disk=%d", jl.records, jl.bytes, st.Size())
	}
}
