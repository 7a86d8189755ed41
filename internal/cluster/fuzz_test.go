package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nocap/internal/jobs"
)

// fuzzBodyLimit is the request-body cap the fuzz harness puts in front
// of the handlers, as the server's worker plane does.
const fuzzBodyLimit = 4 << 10

// FuzzClusterRPC throws arbitrary bodies at the three worker-plane POST
// handlers of a live coordinator that has one unit leased to node
// "holder". Whatever arrives, the coordinator never panics, answers 200,
// 400 or 413, never creates a node row for a request it rejected, and
// resolves the unit only for the one completion that is the holder's —
// so a completion resolves at most one unit, and nothing else resolves
// any.
func FuzzClusterRPC(f *testing.F) {
	seed := func(kind uint8, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, body)
	}
	outcome := []JobOutcome{{ID: "job", Proof: []byte("proof")}}
	seed(0, PollRequest{Node: "node-b", Warm: []string{"synthetic|1024|0"}, WaitMS: 1})
	seed(0, PollRequest{})
	seed(1, HeartbeatRequest{Node: "holder", Leases: []string{"lease-1", "lease-9"}})
	seed(1, HeartbeatRequest{Node: "node-b", Leases: []string{"lease-1"}})
	seed(1, HeartbeatRequest{Leases: []string{"lease-1"}})
	seed(2, CompleteRequest{Node: "holder", Lease: "lease-1", Outcomes: outcome})
	seed(2, CompleteRequest{Node: "node-b", Lease: "lease-1", Outcomes: outcome})
	seed(2, CompleteRequest{Lease: "lease-1", Outcomes: outcome})
	seed(2, CompleteRequest{Node: "holder", Lease: "lease-7"})
	seed(2, CompleteRequest{Node: "holder", Lease: "lease-1", Outcomes: []JobOutcome{{ID: "other", Error: "x", Code: "internal"}}})
	f.Add(uint8(2), []byte(`{"node":"holder","lease":"lease-1","outcomes":[{"id":"job","proof":"!!"}]}`))
	f.Add(uint8(2), []byte(`{"node":"holder","lease":"lease-1"} trailing`))
	f.Add(uint8(1), []byte(`{nope`))
	f.Add(uint8(0), bytes.Repeat([]byte(" "), fuzzBodyLimit+1))
	f.Add(uint8(2), append([]byte(`{"node":"holder","lease":"lease-1","pad":"`), bytes.Repeat([]byte("x"), fuzzBodyLimit)...))

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		c := New(Config{LeaseTTL: time.Minute, MaxPollWait: time.Millisecond, Seed: 1})
		defer c.Close()
		ctx, cancel := context.WithCancel(context.Background())
		resolved := make(chan []jobs.BatchOutcome, 1)
		go func() {
			resolved <- c.BatchExec(ctx, []jobs.BatchMember{{ID: "job", Spec: jobs.Spec{Payload: json.RawMessage(`1`)}, Ctx: ctx}})
		}()
		defer func() {
			cancel()
			<-resolved
		}()
		call := func(h http.HandlerFunc, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Body = http.MaxBytesReader(rec, req.Body, fuzzBodyLimit)
			h(rec, req)
			return rec
		}
		var pr PollResponse
		for deadline := time.Now().Add(10 * time.Second); pr.Assignment == nil; {
			if time.Now().After(deadline) {
				t.Fatal("the unit was never leased")
			}
			poll, _ := json.Marshal(PollRequest{Node: "holder", WaitMS: 1})
			if err := json.Unmarshal(call(c.HandlePoll, "/cluster/poll", poll).Body.Bytes(), &pr); err != nil {
				t.Fatal(err)
			}
		}
		if pr.Assignment.Lease != "lease-1" {
			t.Fatalf("harness lease is %q, the corpus assumes lease-1", pr.Assignment.Lease)
		}
		before := c.Metrics()

		handler, path := c.HandlePoll, "/cluster/poll"
		switch kind % 3 {
		case 1:
			handler, path = c.HandleHeartbeat, "/cluster/heartbeat"
		case 2:
			handler, path = c.HandleComplete, "/cluster/complete"
		}
		rec := call(handler, path, body)
		after := c.Metrics()

		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(after.Nodes) != len(before.Nodes) {
				t.Fatalf("rejected (%d) %s created a node: %+v", rec.Code, path, after.Nodes)
			}
			if after.Completions != before.Completions || after.Duplicates != before.Duplicates || after.LiveLeases != before.LiveLeases {
				t.Fatalf("rejected (%d) %s moved coordinator state: %+v -> %+v", rec.Code, path, before, after)
			}
		default:
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
		}
		if len(body) <= fuzzBodyLimit && rec.Code == http.StatusRequestEntityTooLarge {
			t.Fatalf("%s answered 413 to a %d-byte body under the %d-byte cap", path, len(body), fuzzBodyLimit)
		}

		// The unit resolves exactly when this was the holder completing
		// its own lease, and then exactly once.
		var cr CompleteResponse
		accepted := kind%3 == 2 && rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &cr) == nil && !cr.Discarded
		var sent CompleteRequest
		holders := kind%3 == 2 && json.NewDecoder(bytes.NewReader(body)).Decode(&sent) == nil &&
			sent.Node == "holder" && sent.Lease == "lease-1" && len(body) <= fuzzBodyLimit
		if accepted != holders {
			t.Fatalf("completion accepted=%v for node %q lease %q (status %d)", accepted, sent.Node, sent.Lease, rec.Code)
		}
		if accepted {
			if after.Completions != before.Completions+1 || after.LiveLeases != 0 {
				t.Fatalf("accepted completion: completions %d -> %d, live leases %d", before.Completions, after.Completions, after.LiveLeases)
			}
			select {
			case outs := <-resolved:
				resolved <- outs
				if len(outs) != 1 {
					t.Fatalf("unit of one resolved with %d outcomes", len(outs))
				}
			case <-time.After(10 * time.Second):
				t.Fatal("accepted completion never resolved the unit")
			}
			return
		}
		if after.Completions != before.Completions || after.LiveLeases != 1 {
			t.Fatalf("%s (status %d) disturbed the lease: completions %d -> %d, live leases %d",
				path, rec.Code, before.Completions, after.Completions, after.LiveLeases)
		}
		select {
		case outs := <-resolved:
			t.Fatalf("%s (status %d) resolved the unit: %+v", path, rec.Code, outs)
		default:
		}
	})
}
