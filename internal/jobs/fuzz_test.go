package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nocap/internal/zkerr"
)

// fuzzSeedCorpus builds the seed corpus for FuzzDecodeRecord from a
// REAL journal: a throwaway manager runs a handful of jobs (success,
// retry, cancel) and the corpus is the resulting journal's lines — the
// genuine wire format, not hand-written approximations — plus
// systematically damaged variants of them.
func fuzzSeedCorpus(f *testing.F) [][]byte {
	f.Helper()
	dir, err := os.MkdirTemp("", "nocap-fuzz-journal-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	m, err := Open(Config{
		Dir: dir,
		Exec: func(ctx context.Context, spec Spec) (Result, error) {
			if string(spec.Payload) == `"retry-once"` {
				if spec.Tenant == "" {
					return Result{}, zkerr.Internalf("fuzz: injected transient failure")
				}
			}
			return Result{Proof: []byte("fuzz-proof"), Stats: json.RawMessage(`{"ns":1}`)}, nil
		},
		Workers: 2, MaxPending: 16, Seed: 1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	ids := make([]string, 0, 3)
	for _, spec := range []Spec{
		{Payload: json.RawMessage(`{"n":256}`), Tenant: "acme"},
		{Payload: json.RawMessage(`"retry-once"`), Tenant: "acme"},
		{Payload: json.RawMessage(`"plain"`)},
	} {
		id, err := m.Submit(spec)
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := m.Wait(ctx, id); err != nil {
			f.Fatal(err)
		}
		cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m.Close(ctx)
	cancel()

	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	var corpus [][]byte
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		corpus = append(corpus, []byte(line))
		// Truncations: torn mid-record at several depths.
		for _, frac := range []int{4, 2} {
			corpus = append(corpus, []byte(line[:len(line)/frac]))
		}
		// Bit flip in the middle (typically inside a field value), with
		// the stored checksum left behind.
		flipped := []byte(line)
		flipped[len(flipped)/2] ^= 0x20
		corpus = append(corpus, flipped)
	}
	// Checksum-valid but semantically bogus: a record whose fields are
	// garbage yet whose crc is honestly computed over them, so only
	// semantic validation can reject it.
	bogus := `{"seq":1,"job":"j-x","state":"zombie"}`
	c := crc32.ChecksumIEEE([]byte(bogus))
	corpus = append(corpus,
		[]byte(fmt.Sprintf(`{"seq":1,"job":"j-x","state":"zombie","crc":%d}`, c)),
		[]byte(`{"seq":1,"job":"","state":"done","crc":12345}`),
		[]byte(`{"seq":1,"job":"j-x","state":"done","attempt":-3}`),
		[]byte(`{}`), []byte(`null`), []byte(`42`), []byte(``), []byte("\x00\xff\xfe"))
	return corpus
}

// FuzzDecodeRecord pins the journal decoder's contract under hostile
// bytes: it must never panic, every rejection must classify as
// zkerr.ErrMalformedProof, and every acceptance must satisfy the
// decoder's own invariants (non-empty job, known state, non-negative
// counters, verified checksum).
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := decodeRecord(line)
		if err != nil {
			if zkerr.Code(err) != "malformed-proof" {
				t.Fatalf("rejection escaped the taxonomy: %v (code %q)", err, zkerr.Code(err))
			}
			return
		}
		if r.Job == "" {
			t.Fatalf("accepted record without job id: %q", line)
		}
		if !validRecState(r.State) {
			t.Fatalf("accepted record with state %q: %q", r.State, line)
		}
		if r.Attempt < 0 || r.ProofBytes < 0 || r.BackoffMS < 0 {
			t.Fatalf("accepted record with negative counters: %+v", r)
		}
		if r.CRC == nil {
			t.Fatalf("accepted record without a checksum: %q", line)
		}
		// Re-encoding an accepted record must verify again.
		reline, err := encodeRecord(r)
		if err != nil {
			t.Fatalf("re-encode accepted record: %v", err)
		}
		if _, err := decodeRecord(reline[:len(reline)-1]); err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
	})
}
