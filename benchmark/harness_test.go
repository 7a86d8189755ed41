package main

import (
	"strings"
	"testing"
	"time"

	"nocap"
)

// BENCHMARK.json is what the driver reads and the lists in metrics.go
// and main.go are what the harness prints; they must say the same.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		if bf.EndToEnd[i].metricDef != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, bf.EndToEnd[i].metricDef, d)
		}
		if b := bf.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, b)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower"}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if bf.PerLayer[i] != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, bf.PerLayer[i], d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

// The constraint counts the workloads charge per operation are stated,
// not measured; they must be what the circuits really pad to.
func TestStatedStatementSizes(t *testing.T) {
	check := func(st statement, want int) {
		bm, err := nocap.CircuitByName(st.Circuit, st.N)
		if err != nil {
			t.Fatal(err)
		}
		if got := bm.Inst.NumConstraints(); got != want {
			t.Errorf("%v pads to %d constraints, the harness states %d", st, got, want)
		}
	}
	for _, ps := range paperStatements {
		check(ps.stmt, ps.constraints)
	}
	for _, req := range hotStatements {
		check(req.stmt, req.constraints)
	}
	for _, n := range []int{514, 1024, 2050, 4096, 4098, 8192} {
		check(statement{"synthetic", n, 1}, syntheticPadded(n))
	}
}

func TestProofCheckAcceptsGoodAndCountsBad(t *testing.T) {
	st := statement{"synthetic", 256, 1}
	bm, params, err := st.fitted(nocap.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		t.Fatal(err)
	}
	data, err := nocap.MarshalProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 1

	c := newProofCheck([]retained{{stmt: st, data: data}, {stmt: st, data: bad}, {stmt: statement{"no-such-circuit", 1, 1}}}, nocap.DefaultParams())
	c.pass()
	c.pass()
	if len(c.fails) != 2 {
		t.Fatalf("failures %v; want the tampered proof and the unknown circuit, once each", c.fails)
	}
	if len(c.verifyMS[0]) != 2 || len(c.verifyMS[1]) != 0 || len(c.verifyMS[2]) != 0 {
		t.Errorf("verify timings %v, want the good proof's two passes only", c.verifyMS)
	}
	if got := c.verifyP50(); got != min(c.verifyMS[0][0], c.verifyMS[0][1]) {
		t.Errorf("verifyP50 = %g, want the good proof's faster pass of %v", got, c.verifyMS[0])
	}
}

// fakeInstance is a workload whose operations take a fixed time and
// fail on request.
type fakeInstance struct {
	libBase
	failEvery int
	left      int
}

func (f *fakeInstance) step(_ int, traced bool, log *clientLog) bool {
	if f.left == 0 {
		return false
	}
	f.left--
	tr := log.tracer(traced)
	rec := newOpRec(traced, statement{"fake", 1, 1}, 8)
	root := tr.begin("op", -1)
	sp := tr.begin("spartan.prove", root)
	time.Sleep(time.Millisecond)
	tr.end(sp)
	tr.end(root)
	rec.latency = time.Millisecond
	if f.failEvery > 0 && (len(log.ops)+1)%f.failEvery == 0 {
		rec.fail = "injected"
	}
	if tr != nil {
		rec.spans = tr.spans
	}
	log.ops = append(log.ops, rec)
	return true
}

func (f *fakeInstance) proofs([]*clientLog) ([]retained, error) { return nil, nil }

func TestWindowStopsAtLimitDeadlineAndExhaustion(t *testing.T) {
	logs, _ := window(&fakeInstance{left: 1000}, 1, time.Minute, 5, false)
	if got := len(logs[0].ops); got != 5 {
		t.Errorf("limit 5: %d operations", got)
	}
	logs, _ = window(&fakeInstance{left: 3}, 1, time.Minute, 0, false)
	if got := len(logs[0].ops); got != 3 {
		t.Errorf("exhausted after 3: %d operations", got)
	}
	logs, elapsed := window(&fakeInstance{left: 1 << 30}, 1, 30*time.Millisecond, 0, false)
	if got := len(logs[0].ops); got == 0 || elapsed > 2*time.Second {
		t.Errorf("deadline 30ms: %d operations in %v", got, elapsed)
	}
}

func TestTallyCountsFailuresAndTracedRunsAlternate(t *testing.T) {
	inst := &fakeInstance{left: 1 << 30, failEvery: 4}
	logs, elapsed := window(inst, 1, 4*traceSlice, 0, true)
	m := &measured{clients: 1, elapsed: elapsed, check: newProofCheck(nil, nocap.DefaultParams())}
	m.ops, m.fails, m.verifyMS = flatten(logs)

	rec := &record{}
	tally(rec, workload{name: "fake"}, m)
	if rec.Correct || rec.Failed != len(m.ops)/4 || rec.Attempted != len(m.ops) {
		t.Errorf("tally: correct=%v failed=%d attempted=%d of %d ops", rec.Correct, rec.Failed, rec.Attempted, len(m.ops))
	}
	traced := rec.Samples["traced_ops"]
	if traced == 0 || traced == len(m.ops) {
		t.Fatalf("%d of %d operations traced; a traced run alternates", traced, len(m.ops))
	}

	v := perLayerValues(m, map[string]float64{"ntt.forward_ms": 0.5})
	if got := v["spartan.prove_ms_p50"]; got < 1 || got > 50 {
		t.Errorf("spartan.prove_ms_p50 = %g, want about the 1 ms the fake sleeps", got)
	}
	if v["ntt.forward_ms"] != 0.5 {
		t.Error("probe values were not carried into the per-layer metrics")
	}
	set := metricSet(perLayer, v)
	if len(set) != len(perLayer) {
		t.Errorf("metric set has %d entries, want every one of the %d per-layer metrics", len(set), len(perLayer))
	}
	if set["cluster.lease_expiries"].Unit != "count" {
		t.Errorf("an unmeasured metric lost its unit: %+v", set["cluster.lease_expiries"])
	}
}

func TestTraceOverheadIsTakenPerClass(t *testing.T) {
	op := func(class string, traced bool, latencyMS int) opRec {
		return opRec{class: class, traced: traced, latency: time.Duration(latencyMS) * time.Millisecond}
	}
	// The traced half happened to get the slow class more often; per
	// class nothing is slower, so the overhead is 0, not +several 100%.
	var ops []opRec
	for range 3 {
		ops = append(ops, op("small", false, 10), op("small", true, 10), op("big", false, 400), op("big", true, 400))
	}
	for range 5 {
		ops = append(ops, op("big", true, 400))
	}
	if got := traceOverheadPct(ops); got != 0 {
		t.Errorf("overhead = %g%%, want 0", got)
	}
	for i := range ops {
		if ops[i].traced {
			ops[i].latency += ops[i].latency / 10
		}
	}
	if got := traceOverheadPct(ops); got < 9.9 || got > 10.1 {
		t.Errorf("overhead = %g%%, want 10", got)
	}
}

func TestQuietMeanWeighsEachClassAtItsP10(t *testing.T) {
	var ops []opRec
	add := func(class string, n int, fast, slow time.Duration) {
		for i := range n {
			lat := slow
			if i < n/5 { // a fifth of the window was quiet
				lat = fast
			}
			ops = append(ops, opRec{class: class, latency: lat, cycle: lat})
		}
	}
	add("small", 80, 10*time.Millisecond, 17*time.Millisecond)
	add("big", 20, 400*time.Millisecond, 610*time.Millisecond)
	ops = append(ops, opRec{class: "small", latency: time.Millisecond, fail: "refused"}) // not counted

	got := quietMean(ops, func(op *opRec) float64 { return ms(op.latency) })
	if want := 0.8*10 + 0.2*400; got != want {
		t.Errorf("quietMean = %g ms, want %g: every class at its quiet latency, by share", got, want)
	}

	m := &measured{clients: 2, ops: ops, elapsed: 10 * time.Second, check: newProofCheck(nil, nocap.DefaultParams())}
	v := endToEndValues(m)
	if want := 2 / 0.088; v["ops_per_s"] < want*0.999 || v["ops_per_s"] > want*1.001 {
		t.Errorf("ops_per_s = %g, want clients over the quiet cycle = %g", v["ops_per_s"], want)
	}
	if v["latency_quiet_ms"] != 88 {
		t.Errorf("latency_quiet_ms = %g, want 88", v["latency_quiet_ms"])
	}
	if plain := windowValues(m)["window.latency_p50_ms"]; plain != 17 {
		t.Errorf("window.latency_p50_ms = %g, want the plain median 17", plain)
	}
}
