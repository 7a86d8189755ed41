package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nocap/internal/faultinject"
	"nocap/internal/proofcache"
	"nocap/internal/prover"
)

// reply is one HTTP answer as the client saw it.
type reply struct {
	status int
	body   []byte
	header http.Header
}

// checkProofReply asserts the bytes of one proof reply: 200, a
// Content-Length equal to the body, a body equal to json.Marshal of its
// own decoding into v plus a newline (what json.Encoder writes), and a
// proof_b64 that decodes to want when want is set. It returns the
// decoded proof.
func checkProofReply(t *testing.T, name string, r reply, v any, want []byte) []byte {
	t.Helper()
	if r.status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", name, r.status, r.body)
	}
	if cl := r.header.Get("Content-Length"); cl != strconv.Itoa(len(r.body)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, len(r.body))
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), r.body) {
		t.Errorf("%s: body is not json.Marshal of the same response plus a newline", name)
	}
	var p struct {
		ProofB64 string `json:"proof_b64"`
	}
	if err := json.Unmarshal(r.body, &p); err != nil {
		t.Fatal(err)
	}
	proof, err := base64.StdEncoding.DecodeString(p.ProofB64)
	if err != nil || len(proof) == 0 {
		t.Fatalf("%s: proof_b64 decodes to %d bytes, %v", name, len(proof), err)
	}
	if want != nil && !bytes.Equal(proof, want) {
		t.Errorf("%s: proof_b64 is not the stored proof", name)
	}
	return proof
}

// TestProofReplyBytes pins the one proof-reply writer on every path that
// answers with a proof — a fresh leader, a coalesced follower, a cache
// hit, a server with the cache off, and GET /jobs/{id}?proof=1: each
// body is exactly what json.Encoder writes for the same response, under
// a Content-Length equal to the body, and carries the stored proof.
func TestProofReplyBytes(t *testing.T) {
	cfg := jobsConfig(t)
	cfg.CacheMB = 4
	s, base, _ := startServer(t, cfg)
	client := &http.Client{Timeout: time.Minute}
	waitReady(t, client, base)
	req := ProveRequest{Circuit: "synthetic", N: 256}
	reqBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			defer close(ch)
			resp, err := client.Post(base+"/prove", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Errorf("POST /prove: %v", err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("read reply: %v", err)
				return
			}
			ch <- reply{resp.StatusCode, body, resp.Header}
		}()
		return ch
	}

	// Hold the leader's prove at its commit checkpoint until a second
	// identical request has joined its flight.
	running, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	faultinject.MustArm(faultinject.Plan{
		Point: "spartan.prove.commit",
		Kind:  faultinject.Hook,
		Hook: func() error {
			close(running)
			<-release
			return nil
		},
	})
	defer faultinject.Disarm()
	leaderCh := post(base)
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached its prove")
	}
	followerCh := post(base)
	deadline := time.Now().Add(10 * time.Second)
	for s.CacheMetrics().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce()
	leader, follower := <-leaderCh, <-followerCh
	faultinject.Disarm()
	hit := <-post(base)

	stored, ok := s.prover.Lookup(req)
	if !ok {
		t.Fatal("the leader's proof is not in the cache")
	}
	for _, c := range []struct {
		name   string
		r      reply
		cached bool
	}{
		{"fresh leader", leader, false},
		{"coalesced follower", follower, true},
		{"cache hit", hit, true},
	} {
		var pr ProveResponse
		checkProofReply(t, c.name, c.r, &pr, stored.Proof)
		if pr.Cached != c.cached || pr.ProofBytes != len(stored.Proof) {
			t.Errorf("%s: cached %v, proof_bytes %d", c.name, pr.Cached, pr.ProofBytes)
		}
	}
	if cm := s.CacheMetrics(); cm.Misses != 1 || cm.Coalesced != 1 || cm.Inserts != 1 {
		t.Fatalf("cache metrics %+v, want one leader, one follower, one insert", cm)
	}

	// The job's proof is read back from its payload file.
	id := submitJob(t, client, base, req)
	if jr := pollJob(t, client, base, id); jr.State != "done" {
		t.Fatalf("job %s: state %s (%s)", id, jr.State, jr.Error)
	}
	mgr, _ := s.jobsManager()
	payload, err := mgr.Proof(id)
	if err != nil {
		t.Fatal(err)
	}
	status, body, h := doJSON(t, client, http.MethodGet, base+"/jobs/"+id+"?proof=1", "", nil)
	checkProofReply(t, "?proof=1", reply{status, body, h}, &JobResponse{}, payload)

	// With the cache off the proof is fresh (and, with ZK, unlike any
	// stored one), so it is checked by verifying it.
	_, plainBase, _ := startServer(t, testConfig())
	var pr ProveResponse
	proof := checkProofReply(t, "cache off", <-post(plainBase), &pr, nil)
	if pr.Cached || pr.ProofBytes != len(proof) {
		t.Errorf("cache off: cached %v, proof_bytes %d for %d bytes", pr.Cached, pr.ProofBytes, len(proof))
	}
	status, body = postJSON(t, client, plainBase+"/verify",
		VerifyRequest{Circuit: req.Circuit, N: req.N, ProofB64: pr.ProofB64})
	if status != http.StatusOK || !strings.Contains(string(body), `"valid":true`) {
		t.Fatalf("cache off: proof does not verify: %d %s", status, body)
	}
}

// BenchmarkWriteProveHit measures answering a cache hit: a 281 KiB proof
// looked up in the proof cache and written into a recorder whose body
// buffer is reused, so the figures are the reply's own. The base64 text
// is made once, when the proof is committed, outside the loop.
func BenchmarkWriteProveHit(b *testing.B) {
	cache := proofcache.New(proofcache.Config{MaxBytes: 64 << 20})
	var key, alias proofcache.Key
	alias[0] = 1
	proof := make([]byte, 281<<10)
	rand.New(rand.NewSource(1)).Read(proof)
	cache.Acquire(key, alias)
	if _, err := cache.Commit(context.Background(), key, proof, func(context.Context, []byte) error { return nil }); err != nil {
		b.Fatal(err)
	}
	var s Server
	req := ProveRequest{Circuit: "synthetic", N: 1 << 13}
	body := bytes.NewBuffer(make([]byte, 0, 512<<10))
	b.ReportAllocs()
	for b.Loop() {
		p, ok := cache.Lookup(alias)
		if !ok {
			b.Fatal("proof cache miss")
		}
		body.Reset()
		rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: body, Code: http.StatusOK}
		s.writeProve(rec, req, prover.FromCache(p), 0)
	}
}

// TestWriteProveHitAllocs holds a hit's reply to the small rest of the
// response: no per-hit copy or encoding of the proof text.
func TestWriteProveHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	if got := testing.Benchmark(BenchmarkWriteProveHit).AllocedBytesPerOp(); got >= 16<<10 {
		t.Fatalf("a cache hit's reply allocates %d bytes, want under 16 KB", got)
	}
}
