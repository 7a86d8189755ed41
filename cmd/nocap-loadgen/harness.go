package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"nocap/internal/jobs"
	"nocap/internal/server"
)

// outcome tallies one traffic kind's results.
type outcome struct {
	sent, ok, shed, violations int64
}

type harness struct {
	base   string
	client *http.Client
	n      int

	mu       sync.Mutex
	outcomes map[string]*outcome
	problems []string
}

// record tallies one request of kind: a violation when problem is set,
// else a shed or a pass.
func (h *harness) record(kind string, shed bool, problem string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o := h.outcomes[kind]
	if o == nil {
		o = &outcome{}
		h.outcomes[kind] = o
	}
	o.sent++
	switch {
	case problem != "":
		o.violations++
		if len(h.problems) < 20 {
			h.problems = append(h.problems, fmt.Sprintf("%s: %s", kind, problem))
		}
	case shed:
		o.shed++
	default:
		o.ok++
	}
}

// call sends one request — with the tenant key when key is set, and a
// JSON body when body is non-nil — and returns the answer, body read.
func (h *harness) call(method, path, key string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

// A check inspects an answer whose status the request expected and
// returns what is wrong with it, or "" when nothing is.
type check func(resp *http.Response, body []byte) string

// classify sorts one answer. A transport error is a violation. An
// expected status passes through chk (nil accepts any body). A typed 429
// is a shed and an untyped one a violation. Any other status is a
// violation. problem is "" unless the answer is a violation.
func classify(resp *http.Response, body []byte, err error, want []int, chk check) (shed bool, problem string) {
	switch {
	case err != nil:
		return false, err.Error()
	case slices.Contains(want, resp.StatusCode):
		if chk == nil {
			return false, ""
		}
		return false, chk(resp, body)
	case resp.StatusCode == http.StatusTooManyRequests:
		return true, typed(resp, body)
	default:
		return false, fmt.Sprintf("status %d: %.120s", resp.StatusCode, body)
	}
}

// typed checks that an error answer (status 400 and up) carries a
// taxonomy code; any other answer passes.
func typed(resp *http.Response, body []byte) string {
	var er server.ErrorResponse
	if resp.StatusCode >= 400 && (json.Unmarshal(body, &er) != nil || er.Code == "") {
		return fmt.Sprintf("untyped %d: %.120s", resp.StatusCode, body)
	}
	return ""
}

// send makes one request and classifies the answer. A shed or a
// violation is recorded under kind at once; a pass is left to the
// caller, which records it when its own follow-up checks are done.
func (h *harness) send(kind, method, path, key string, body []byte, want []int, chk check) bool {
	resp, data, err := h.call(method, path, key, body)
	shed, problem := classify(resp, data, err, want, chk)
	if shed || problem != "" {
		h.record(kind, shed, problem)
		return false
	}
	return true
}

// expect is send with a pass recorded too.
func (h *harness) expect(kind, method, path, key string, body []byte, want []int, chk check) {
	if h.send(kind, method, path, key, body, want, chk) {
		h.record(kind, false, "")
	}
}

func proveBody(n int) []byte {
	body, _ := json.Marshal(server.ProveRequest{Circuit: "synthetic", N: n})
	return body
}

func verifyBody(n int, proofB64 string) []byte {
	body, _ := json.Marshal(server.VerifyRequest{Circuit: "synthetic", N: n, ProofB64: proofB64})
	return body
}

// proved checks a 200 /prove answer: a complete proof body whose request
// returned every arena checkout. The proof lands in *proofB64.
func proved(proofB64 *string) check {
	return func(_ *http.Response, body []byte) string {
		var pr server.ProveResponse
		if json.Unmarshal(body, &pr) != nil || pr.ProofB64 == "" {
			return "200 without a complete proof body"
		}
		if pr.Stats.Arena.Outstanding != 0 {
			return fmt.Sprintf("request leaked %d arena checkouts", pr.Stats.Arena.Outstanding)
		}
		*proofB64 = pr.ProofB64
		return ""
	}
}

// verdict checks a /verify answer: a 200 must say whether the proof is
// valid as want says, with a taxonomy code when it is not; an error
// status must be typed.
func verdict(want bool) check {
	return func(resp *http.Response, body []byte) string {
		var vr server.VerifyResponse
		switch {
		case resp.StatusCode != http.StatusOK:
			return typed(resp, body)
		case json.Unmarshal(body, &vr) != nil || vr.Valid != want || (!want && vr.Code == ""):
			return fmt.Sprintf("verify answered %.120s, want valid=%v", body, want)
		}
		return ""
	}
}

// seedProof proves one statement for the verify traffic to replay.
func (h *harness) seedProof() (string, error) {
	var proof string
	resp, data, err := h.call(http.MethodPost, "/prove", "", proveBody(h.n))
	if shed, problem := classify(resp, data, err, []int{http.StatusOK}, proved(&proof)); shed || problem != "" {
		if problem == "" {
			problem = "shed"
		}
		return "", fmt.Errorf("seed prove: %s", problem)
	}
	return proof, nil
}

// accepted checks a 202 POST /jobs answer; the job id lands in *id.
func accepted(id *string) check {
	return func(_ *http.Response, body []byte) string {
		var jr server.JobResponse
		if json.Unmarshal(body, &jr) != nil || jr.ID == "" {
			return "202 without a job id"
		}
		*id = jr.ID
		return ""
	}
}

// submitJobAs posts one async job of size n with a tenant API key ("" for
// none) and returns its id. A shed or a violation is recorded under kind
// and reported as ok=false.
func (h *harness) submitJobAs(kind string, n int, key string) (id string, ok bool) {
	ok = h.send(kind, http.MethodPost, "/jobs", key, proveBody(n), []int{http.StatusAccepted}, accepted(&id))
	return id, ok
}

// pollJobAs polls GET /jobs/{id} until the job reaches a terminal state.
// Status polls must come back payload-free (that contract is asserted
// here on every poll); once done, the proof is fetched with ?proof=1
// and the full response returned.
func (h *harness) pollJobAs(id string, budget time.Duration, key string) (server.JobResponse, error) {
	get := func(path string) (jr server.JobResponse, err error) {
		resp, data, err := h.call(http.MethodGet, path, key, nil)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %.120s", resp.StatusCode, data)
		}
		if err == nil {
			err = json.Unmarshal(data, &jr)
		}
		if err != nil {
			return server.JobResponse{}, fmt.Errorf("GET %s: %w", path, err)
		}
		return jr, nil
	}
	deadline := time.Now().Add(budget)
	for {
		jr, err := get("/jobs/" + id)
		switch {
		case err != nil:
			return jr, err
		case jr.ProofB64 != "":
			return server.JobResponse{}, fmt.Errorf("poll %s: status poll carried the proof payload", id)
		case jr.State == string(jobs.StateDone):
			return get("/jobs/" + id + "?proof=1")
		case jobs.State(jr.State).Terminal():
			return jr, nil
		case time.Now().After(deadline):
			return server.JobResponse{}, fmt.Errorf("job %s still %q after %v", id, jr.State, budget)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// finishJob polls a job to its end and records under kind whether it
// ended done after at least one attempt with a proof — equal to want
// when want is set. It returns the proof of a passing job, else "".
func (h *harness) finishJob(kind, id, key, want string) string {
	info, err := h.pollJobAs(id, time.Minute, key)
	problem := ""
	switch {
	case err != nil:
		problem = err.Error()
	case info.State != string(jobs.StateDone) || info.ProofB64 == "" || info.Attempts < 1:
		problem = fmt.Sprintf("job %s ended %q (code %q), attempts %d", id, info.State, info.Code, info.Attempts)
	case want != "" && info.ProofB64 != want:
		problem = fmt.Sprintf("job %s proof differs from its reference (%d vs %d b64 bytes)",
			id, len(info.ProofB64), len(want))
	}
	h.record(kind, false, problem)
	if problem != "" {
		return ""
	}
	return info.ProofB64
}

// drive calls fire(client, i) from clients goroutines, i counting calls
// across all of them, until requests calls have started (0: no count
// limit) or duration has passed, and returns the elapsed wall time.
func drive(clients, requests int, duration time.Duration, fire func(client, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(duration)
	var mu sync.Mutex
	next := 0
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if (requests > 0 && next >= requests) || time.Now().After(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				fire(c, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// report prints the per-kind outcome table and returns the violation
// count.
func (h *harness) report(clients int, elapsed time.Duration) (violations int64) {
	kinds := make([]string, 0, len(h.outcomes))
	for k := range h.outcomes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("nocap-loadgen: %d clients, %v\n", clients, elapsed.Round(time.Millisecond))
	fmt.Printf("%-10s %6s %6s %6s %10s\n", "kind", "sent", "ok", "shed", "violations")
	var sent int64
	for _, k := range kinds {
		o := h.outcomes[k]
		fmt.Printf("%-10s %6d %6d %6d %10d\n", k, o.sent, o.ok, o.shed, o.violations)
		sent += o.sent
		violations += o.violations
	}
	for _, p := range h.problems {
		fmt.Printf("  violation: %s\n", p)
	}
	fmt.Printf("nocap-loadgen: %d requests, %d violations\n", sent, violations)
	return violations
}
