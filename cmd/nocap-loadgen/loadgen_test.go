package main

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nocap/internal/tenant"
)

func TestJournalTerminalViolation(t *testing.T) {
	const (
		accepted = `{"seq":1,"job":"j-1","state":"accepted","crc":1}` + "\n"
		done1    = `{"seq":2,"job":"j-1","state":"done","crc":2}` + "\n"
		done2    = `{"seq":3,"job":"j-2","state":"done","crc":3}` + "\n"
		failed1  = `{"seq":4,"job":"j-1","state":"failed","crc":4}` + "\n"
		torn     = `{"seq":5,"job":"j-2","sta`
	)
	for _, tc := range []struct {
		name, journal, want string
	}{
		{"one terminal record per job", accepted + done1 + done2, ""},
		{"torn final line", accepted + done1 + done2 + torn, ""},
		{"two terminal records for one job", accepted + done1 + done2 + failed1, "job j-1 has 2 terminal journal records"},
		{"two terminal records and a torn tail", accepted + done1 + failed1 + torn, "job j-1 has 2 terminal journal records"},
		{"no terminal record", accepted, "journal holds no terminal record"},
		{"empty journal", "", "journal holds no terminal record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := journalTerminalViolation(path); got != tc.want {
				t.Fatalf("journalTerminalViolation = %q, want %q", got, tc.want)
			}
		})
	}
	if got := journalTerminalViolation(filepath.Join(t.TempDir(), "missing")); !strings.HasPrefix(got, "read journal:") {
		t.Fatalf("missing journal: %q, want a read error", got)
	}
}

func TestCheckLedger(t *testing.T) {
	ms := func(d int64) int64 { return d * int64(time.Millisecond) }
	// served returns a tenant that was admitted k units, served them all,
	// and waited meanMS on average.
	served := func(id string, k, meanMS int64) tenant.QueueStats {
		return tenant.QueueStats{ID: id, Enqueued: k, Dequeued: k, QueueWaitNs: k * ms(meanMS)}
	}
	for _, tc := range []struct {
		name  string
		stats []tenant.QueueStats
		sent  []string
		heavy string
		want  []string // one substring per expected failure
	}{
		{
			name:  "equal tenants within the bound",
			stats: []tenant.QueueStats{served("t0", 8, 10), served("t1", 8, 30), served("default", 0, 0)},
			sent:  []string{"t0", "t1"},
		},
		{
			name: "heavy tenant may shed",
			stats: []tenant.QueueStats{
				{ID: "t0", Enqueued: 60, Dequeued: 60, QueueWaitNs: 60 * ms(20), RejectedFull: 9},
				served("t1", 20, 40),
			},
			sent:  []string{"t0", "t1"},
			heavy: "t0",
		},
		{
			name: "shed light tenant",
			stats: []tenant.QueueStats{
				served("t0", 60, 20),
				{ID: "t1", Enqueued: 20, Dequeued: 20, QueueWaitNs: 20 * ms(20), RejectedFull: 1},
			},
			sent:  []string{"t0", "t1"},
			heavy: "t0",
			want:  []string{"tenant t1 shed 1 requests queue-full"},
		},
		{
			name:  "stranded tenant",
			stats: []tenant.QueueStats{served("t0", 8, 10), {ID: "t1", Enqueued: 8, Dequeued: 5, QueueWaitNs: 5 * ms(10)}},
			sent:  []string{"t0", "t1"},
			want:  []string{"tenant t1 admitted 8 but served 5"},
		},
		{
			name:  "diverged waits under equal load",
			stats: []tenant.QueueStats{served("t0", 8, 10), served("t1", 8, 400)},
			sent:  []string{"t0", "t1"},
			want:  []string{"tenant t1 mean queue wait 400ms vs reference 10ms"},
		},
		{
			name:  "light tenant starved behind the heavy one",
			stats: []tenant.QueueStats{served("t0", 60, 10), served("t1", 4, 300)},
			sent:  []string{"t0", "t1"},
			heavy: "t0",
			want:  []string{"tenant t1 mean queue wait 300ms vs reference 10ms"},
		},
		{
			name:  "empty tenant",
			stats: []tenant.QueueStats{served("t0", 8, 10), {ID: "t1"}},
			sent:  []string{"t0", "t1"},
			want:  []string{"tenant t1 was sent work but its ledger shows none admitted"},
		},
		{
			name:  "tenant missing from the ledger",
			stats: []tenant.QueueStats{served("default", 8, 10)},
			sent:  []string{"t0", "t1"},
			want: []string{
				"tenant t0 was sent work but its ledger shows none admitted",
				"tenant t1 was sent work but its ledger shows none admitted",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := checkLedger(tc.stats, tc.sent, tc.heavy)
			if len(got) != len(tc.want) {
				t.Fatalf("checkLedger = %q, want %d failure(s) %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("failure %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}

func TestMetricValues(t *testing.T) {
	const page = "# HELP nocap_batches_total batches\n" +
		"nocap_batches_total 11\n" +
		"nocap_batches_total_extra 99\n" +
		"nocap_tenant_enqueued_total{tenant=\"t0\"} 4\n" +
		"nocap_cluster_lease_expiries_total 2e+00\n" +
		"nocap_garbled_total twelve\n"
	v, err := metricValues(page, "nocap_cluster_lease_expiries_total", "nocap_batches_total")
	if err != nil || len(v) != 2 || v[0] != 2 || v[1] != 11 {
		t.Fatalf("metricValues = %v, %v; want [2 11]", v, err)
	}
	for _, name := range []string{"nocap_missing_total", "nocap_tenant_enqueued_total", "nocap_garbled_total"} {
		if _, err := metricValues(page, "nocap_batches_total", name); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("metricValues(%s) err = %v, want an error naming it", name, err)
		}
	}
}

func TestClassify(t *testing.T) {
	answer := func(status int) *http.Response { return &http.Response{StatusCode: status} }
	typedBody := []byte(`{"error":"busy","code":"queue-full"}`)
	untypedBody := []byte(`busy`)
	mustBeValid := func(_ *http.Response, body []byte) string {
		if string(body) != "valid" {
			return "not valid"
		}
		return ""
	}
	for _, tc := range []struct {
		name        string
		resp        *http.Response
		body        []byte
		err         error
		want        []int
		chk         check
		wantShed    bool
		wantProblem string // substring; "" means a pass or a clean shed
	}{
		{name: "expected status, no body check", resp: answer(200), want: []int{200}},
		{name: "expected status, body passes", resp: answer(200), body: []byte("valid"), want: []int{200}, chk: mustBeValid},
		{name: "expected status, body fails", resp: answer(200), body: []byte("nope"), want: []int{200}, chk: mustBeValid, wantProblem: "not valid"},
		{name: "expected typed error", resp: answer(400), body: typedBody, want: []int{400}, chk: typed},
		{name: "expected untyped error", resp: answer(400), body: untypedBody, want: []int{400}, chk: typed, wantProblem: "untyped 400"},
		{name: "typed 429 is a shed", resp: answer(429), body: typedBody, want: []int{200}, wantShed: true},
		{name: "untyped 429", resp: answer(429), body: untypedBody, want: []int{200}, wantShed: true, wantProblem: "untyped 429"},
		{name: "5xx", resp: answer(503), body: typedBody, want: []int{200}, wantProblem: "status 503"},
		{name: "unexpected 2xx", resp: answer(202), want: []int{200}, wantProblem: "status 202"},
		{name: "transport error", err: errors.New("connection reset"), want: []int{200}, wantProblem: "connection reset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shed, problem := classify(tc.resp, tc.body, tc.err, tc.want, tc.chk)
			if shed != tc.wantShed {
				t.Errorf("shed = %v, want %v", shed, tc.wantShed)
			}
			if (tc.wantProblem == "") != (problem == "") || !strings.Contains(problem, tc.wantProblem) {
				t.Errorf("problem = %q, want %q", problem, tc.wantProblem)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		want    bool
		status  int
		body    string
		problem bool
	}{
		{"valid proof accepted", true, 200, `{"valid":true}`, false},
		{"valid proof rejected", true, 200, `{"valid":false,"code":"soundness-check-failed"}`, true},
		{"corrupt proof rejected", false, 200, `{"valid":false,"code":"soundness-check-failed"}`, false},
		{"corrupt proof rejected without a code", false, 200, `{"valid":false}`, true},
		{"corrupt proof accepted", false, 200, `{"valid":true}`, true},
		{"corrupt framing, typed 400", false, 400, `{"error":"bad","code":"malformed-proof"}`, false},
		{"corrupt framing, untyped 400", false, 400, `bad`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := verdict(tc.want)(&http.Response{StatusCode: tc.status}, []byte(tc.body))
			if (got != "") != tc.problem {
				t.Fatalf("verdict = %q, want a problem: %v", got, tc.problem)
			}
		})
	}
}

func TestDriveHandsOutEachRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	drive(4, 37, time.Minute, func(c, i int) {
		if c < 0 || c >= 4 {
			t.Errorf("client %d out of range", c)
		}
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if len(seen) != 37 {
		t.Fatalf("drive made %d distinct calls, want 37", len(seen))
	}
	for i := 0; i < 37; i++ {
		if seen[i] != 1 {
			t.Errorf("request %d made %d times, want once", i, seen[i])
		}
	}
	calls := 0
	drive(2, 0, -time.Second, func(int, int) { calls++ })
	if calls != 0 {
		t.Errorf("a spent time budget still made %d calls", calls)
	}
}
