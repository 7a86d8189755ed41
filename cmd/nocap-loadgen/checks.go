package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"nocap"
	"nocap/internal/jobs"
	"nocap/internal/leakcheck"
	"nocap/internal/server"
	"nocap/internal/tenant"
)

// finish closes a run, in order: it drains srv (nil for a run with no
// server left), checks the journal's one-terminal-record invariant
// (journal "" for a run without one), prints the outcome report, checks
// the process invariants of an in-process run, and fails on any
// violation. clean is printed when the run passes.
func (s *soak) finish(srv *server.Server, journal string, elapsed time.Duration, failed bool, clean string) (bool, error) {
	if srv != nil {
		if err := drain(srv); err != nil {
			return true, fmt.Errorf("drain: %w", err)
		}
	}
	if journal != "" {
		if msg := journalTerminalViolation(journal); msg != "" {
			s.h.record("journal", false, msg)
		}
	}
	if s.h.report(s.clients, elapsed) > 0 {
		failed = true
	}
	if s.snap != nil && checkProcessInvariants(s.snap, s.arenaBefore) {
		failed = true
	}
	if !failed && clean != "" {
		fmt.Printf("nocap-loadgen: %s\n", clean)
	}
	return failed, nil
}

// ledger runs checkLedger over the tenants of cfgs that the run sent
// work to (outcomes recorded under prefix+ID), prints each tenant's
// line and each failure, and reports whether any check failed.
func (s *soak) ledger(stats []tenant.QueueStats, cfgs []tenant.Config, prefix, heavy string) (failed bool) {
	var sent []string
	for _, c := range cfgs {
		if o := s.h.outcomes[prefix+c.ID]; o != nil && o.sent > 0 {
			sent = append(sent, c.ID)
		}
	}
	for _, qs := range stats {
		if qs.ID != "default" {
			fmt.Printf("nocap-loadgen: tenant %s served %d (shed %d, mean wait %v)\n",
				qs.ID, qs.Dequeued, qs.RejectedFull, meanWait(qs).Round(time.Microsecond))
		}
	}
	for _, f := range checkLedger(stats, sent, heavy) {
		fmt.Printf("FAIL: %s\n", f)
		failed = true
	}
	return failed
}

// checkLedger asserts the scheduler's per-tenant ledger after a run,
// over the tenants the run sent work to. Each must have been admitted
// work — so no run passes on a ledger its work never entered — and
// served all of it, shed nothing queue-full, and queued on average
// within 4× + 200 ms of the reference wait. The reference is heavy's
// wait when heavy is set, and heavy alone may shed: its queue is the one
// meant to overflow. Otherwise the tenants carry equal load and the
// reference is the shortest wait among them. The bound is deliberately
// generous — this is a soak, not a microbenchmark — but a tenant
// starved behind a neighbour, or a path that bypassed the DRR charge,
// blows past it. It returns one message per failed check.
func checkLedger(stats []tenant.QueueStats, sent []string, heavy string) []string {
	byID := make(map[string]tenant.QueueStats, len(stats))
	for _, qs := range stats {
		byID[qs.ID] = qs
	}
	ref := meanWait(byID[heavy])
	if heavy == "" {
		for i, id := range sent {
			if w := meanWait(byID[id]); i == 0 || w < ref {
				ref = w
			}
		}
	}
	var fails []string
	for _, id := range sent {
		qs, w := byID[id], meanWait(byID[id])
		switch {
		case qs.Enqueued == 0:
			fails = append(fails, fmt.Sprintf("tenant %s was sent work but its ledger shows none admitted", id))
			continue
		case qs.Dequeued != qs.Enqueued:
			fails = append(fails, fmt.Sprintf("tenant %s admitted %d but served %d: starved work left behind",
				id, qs.Enqueued, qs.Dequeued))
		}
		if qs.RejectedFull != 0 && id != heavy {
			fails = append(fails, fmt.Sprintf("tenant %s shed %d requests queue-full: another tenant's backlog leaked into its queue",
				id, qs.RejectedFull))
		}
		if w > 4*ref+200*time.Millisecond {
			fails = append(fails, fmt.Sprintf("tenant %s mean queue wait %v vs reference %v: starvation bound violated",
				id, w, ref))
		}
	}
	return fails
}

func meanWait(qs tenant.QueueStats) time.Duration {
	if qs.Dequeued == 0 {
		return 0
	}
	return time.Duration(qs.QueueWaitNs / qs.Dequeued)
}

// checkProcessInvariants asserts the in-process end state: every
// goroutine the service and the runs started is gone, and no scratch
// is stranded in the arena.
func checkProcessInvariants(snap *leakcheck.Snapshot, arenaBefore nocap.ArenaStats) (failed bool) {
	if leaked := snap.Leaked(5 * time.Second); len(leaked) > 0 {
		failed = true
		fmt.Printf("FAIL: %d leaked goroutine signature(s):\n", len(leaked))
		for _, sig := range leaked {
			fmt.Printf("  %s\n", sig)
		}
	}
	arenaAfter := nocap.ReadProveStats().Arena
	if arenaAfter.Outstanding != arenaBefore.Outstanding ||
		arenaAfter.OutstandingElems != arenaBefore.OutstandingElems {
		failed = true
		fmt.Printf("FAIL: arena checkouts leaked: %d outstanding (%d elems) vs baseline %d (%d)\n",
			arenaAfter.Outstanding, arenaAfter.OutstandingElems,
			arenaBefore.Outstanding, arenaBefore.OutstandingElems)
	}
	if arenaAfter.DoubleReturns != arenaBefore.DoubleReturns {
		failed = true
		fmt.Printf("FAIL: %d arena double returns during the run\n",
			arenaAfter.DoubleReturns-arenaBefore.DoubleReturns)
	}
	return failed
}

// metricValues reads each named unlabelled sample from a Prometheus text
// page. A sample that is missing or does not parse is an error, so a
// renamed metric cannot pass a check on zeros.
func metricValues(text string, names ...string) ([]int64, error) {
	vals := make([]int64, len(names))
next:
	for i, name := range names {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %v", name, err)
				}
				vals[i] = int64(v)
				continue next
			}
		}
		return nil, fmt.Errorf("metric %s missing from /metrics", name)
	}
	return vals, nil
}

// metricsSay is the check for a GET /metrics answer: judge gets the
// named samples, in order, and returns what is wrong with them.
func metricsSay(judge func(v []int64) string, names ...string) check {
	return func(_ *http.Response, body []byte) string {
		v, err := metricValues(string(body), names...)
		if err != nil {
			return err.Error()
		}
		return judge(v)
	}
}

// journalTerminalViolation scans the journal for the exactly-once
// ledger invariant: at most one done/failed/cancelled record per job,
// and at least one such record — a journal the run's jobs never reached
// proves nothing.
func journalTerminalViolation(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("read journal: %v", err)
	}
	terminal := make(map[string]int)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Job   string `json:"job"`
			State string `json:"state"`
		}
		if json.Unmarshal(line, &rec) != nil {
			continue // a torn tail is the parser's problem, not ours
		}
		if jobs.State(rec.State).Terminal() {
			terminal[rec.Job]++
		}
	}
	if len(terminal) == 0 {
		return "journal holds no terminal record"
	}
	for job, count := range terminal {
		if count > 1 {
			return fmt.Sprintf("job %s has %d terminal journal records", job, count)
		}
	}
	return ""
}

// tearJournal simulates a crash mid-append: it cuts the journal's final
// record in half, leaving an unterminated JSON prefix with no newline.
func tearJournal(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	idx := bytes.LastIndexByte(trimmed, '\n') + 1
	last := trimmed[idx:]
	if len(last) < 2 {
		return fmt.Errorf("journal too small to tear (%d bytes)", len(data))
	}
	return os.Truncate(path, int64(idx+len(last)/2))
}

// eventually calls cond every few milliseconds until it reports true or
// budget runs out, and reports whether it did.
func eventually(budget time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(budget); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// waitReady polls /readyz until the server finishes journal recovery
// and reports ready.
func (h *harness) waitReady(budget time.Duration) error {
	if !eventually(budget, func() bool {
		resp, _, err := h.call(http.MethodGet, "/readyz", "", nil)
		return err == nil && resp.StatusCode == http.StatusOK
	}) {
		return fmt.Errorf("server not ready within %v", budget)
	}
	return nil
}

func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
