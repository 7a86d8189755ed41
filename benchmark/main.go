// Command benchmark is the one yardstick for the whole prover: seven
// closed-loop workloads over the nocap facade, an in-process nocap-serve
// on loopback HTTP and in-process cluster workers, measured end to end
// with tracing off and layer by layer with tracing on. BENCHMARK.json
// at the repository root names the metrics, bounds and workloads;
// README.md in this directory says why each exists and how they
// interact.
//
//	go run ./benchmark --workload lib-prove-2p16 --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload all --out set.jsonl
//	go run ./benchmark compare base.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is for
// people. The exit code is non-zero when any output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// processStart is as close to exec as Go code gets; set-up time is
// counted from here to the first timed operation.
var processStart = time.Now()

// setup_s is the median of several cold set-ups: this process's own
// plus child processes that set up and exit, so each one starts with
// empty twiddle, arena and proof caches. There are at least
// setupRepeats of them; a set-up of a few hundred milliseconds, whose
// timing the box's noise moves most, is repeated until the children
// have used setupBudget or there are setupMost.
const (
	setupRepeats = 3
	setupMost    = 7
	setupBudget  = 2 * time.Second
)

// warmupFor and warmupOps end the warm-up, whichever comes first. It
// runs the workload's own operations on statements the timed window
// will not see again, and is charged to set-up.
const (
	warmupFor = time.Second
	warmupOps = 20
)

type workload struct {
	name    string
	why     string
	clients int
	new     func(*runConfig) (instance, error)
	// must and should are the properties that make the workload the one
	// its name promises, checked on the window's counter deltas. A run
	// that breaks a must is reported as incorrect rather than as a
	// number. A should depends on timing — a stall of the host can break
	// it with every output still right — and is reported as a warning.
	must   func(d promSample) []string
	should func(d promSample) []string
}

var workloads = []workload{
	{name: "lib-prove-2p16", clients: 1, new: newLibProve,
		why: "kernel-bound: one 2^16 prove per op, rs-encode+merkle+sumcheck are ~90% and service layers do nothing"},
	{name: "lib-paper-circuits", clients: 1, new: newPaperCycle,
		why: "the paper's five circuits, synthesize+prove+serialize+parse+verify per op: gadget sparsity, synthesis and verify inside the op"},
	{name: "serve-sync-unique", clients: serviceClients, new: newServeUnique,
		why: "POST /prove of never-repeated 2^13 statements: zero cache hits, so HTTP, admission, synthesis, verify-on-insert and reply encoding all show",
		must: func(d promSample) []string {
			return expect(d.family("nocap_proofcache_hits_total") == 0, "serve-sync-unique saw proof-cache hits")
		}},
	{name: "serve-sync-hot", clients: serviceClients, new: newServeHot,
		why: "zipf over six pre-cached statements: every reply is a cache hit, kernels do nothing; a kernel optimisation must not move it",
		must: func(d promSample) []string {
			hits, misses := d.family("nocap_proofcache_hits_total"), d.family("nocap_proofcache_misses_total")
			return expect(ratio(hits, hits+misses) >= 0.99, "serve-sync-hot proof-cache hit ratio below 0.99")
		}},
	{name: "jobs-async", clients: serviceClients, new: newJobsAsync,
		why: "submit+poll of tiny 2^10 proves on a real journal: append+fsync, proof persist, dispatcher and poll path dominate"},
	{name: "jobs-batch", clients: serviceClients, new: newJobsBatch,
		why: "bursts of 8 same-key jobs through the batch planner: same layers as jobs-async with the opposite sharing",
		should: func(d promSample) []string {
			mean := ratio(d.family("nocap_batch_jobs_total"), d.family("nocap_batches_total"))
			return expect(mean >= 4, "jobs-batch mean batch size below 4")
		}},
	{name: "cluster-2w", clients: serviceClients, new: newCluster,
		why: "jobs-async's path plus lease dispatch, h2c long-poll, heartbeat and completion upload to two in-process workers",
		must: func(d promSample) []string {
			return expect(d.family("nocap_cluster_local_fallbacks_total") == 0, "cluster-2w proved on the coordinator")
		},
		should: func(d promSample) []string {
			return expect(d.family("nocap_cluster_lease_expiries_total") == 0, "cluster-2w lost a lease")
		}},
}

func expect(ok bool, msg string) []string {
	if ok {
		return nil
	}
	return []string{msg}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	out       string
	workDir   string
}

// record is one run as it is appended to an --out file: the contract's
// result plus everything needed to compare it with another.
type record struct {
	Schema    int                    `json:"schema"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       environment            `json:"env"`
	Config    map[string]any         `json:"config"`
	Samples   map[string]int         `json:"samples"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Window holds an untraced run's plain figures (completions over
	// wall time, percentiles over every operation), which a traced run
	// reports as the window.* per-layer metrics.
	Window map[string]float64 `json:"window,omitempty"`
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	log.SetOutput(io.Discard) // the server's own logging is not part of the report
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload name, or `all` for every workload untraced then traced")
	flag.Int64Var(&rc.seed, "seed", 1, "seed of the request generators")
	flag.Float64Var(&rc.seconds, "seconds", 12, "length of the timed window (BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	flag.StringVar(&rc.out, "out", "", "append the full result record to this JSON-lines file")
	flag.BoolVar(&rc.setupOnly, "setup-only", false, "set the workload up, print the set-up time and exit (the harness runs itself this way)")
	flag.Parse()
	rc.trace = trace != 0

	if err := run(rc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs were not all correct")

func run(rc runConfig) error {
	if rc.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", rc.seconds)
	}
	if rc.workload == "all" {
		return runAll(rc)
	}
	w, ok := findWorkload(rc.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown --workload %q (have %v, or all)", rc.workload, names)
	}
	// Everything the run writes lives under the build directory of the
	// checkout it was started in, and is removed when it ends.
	rc.workDir = filepath.Join(".bench_build", "benchmark", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(rc.workDir)

	rec, err := runWorkload(w, &rc)
	if err != nil {
		return err
	}
	if rc.setupOnly {
		return nil
	}
	report(os.Stderr, rec)
	if rc.out != "" {
		if err := appendRecord(rc.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(contractResult{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return errIncorrect
	}
	return nil
}

// runWorkload sets the workload up, measures one window and checks what
// it produced.
func runWorkload(w workload, rc *runConfig) (rec *record, err error) {
	inst, err := w.new(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		// A set-up child is about to exit and nothing it started is in
		// flight; draining would only add the HTTP/2 GOAWAY second of a
		// cluster shut-down to the wall time of every run.
		if rc.setupOnly {
			return
		}
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: shut-down: %w", w.name, cerr)
		}
	}()
	warm, _ := window(inst, w.clients, warmupFor, (warmupOps+w.clients-1)/w.clients, false)
	ops, fails, _ := flatten(warm)
	for _, op := range ops {
		if op.fail != "" {
			fails = append(fails, op.fail)
		}
	}
	if len(fails) > 0 {
		return nil, fmt.Errorf("%s: warm-up: %s", w.name, fails[0])
	}
	m := &measured{clients: w.clients, setupS: time.Since(processStart).Seconds()}
	if rc.setupOnly {
		fmt.Println(strconv.FormatFloat(m.setupS, 'f', -1, 64))
		return nil, nil
	}

	if m.before, err = takeSnapshot(inst, rc.trace); err != nil {
		return nil, err
	}
	logs, elapsed := window(inst, w.clients, time.Duration(rc.seconds*float64(time.Second)), 0, rc.trace)
	m.peakRSS = peakRSSMB()
	if m.after, err = takeSnapshot(inst, rc.trace); err != nil {
		return nil, err
	}
	if m.after.counters != nil {
		if m.delta, err = promDelta(m.before.counters, m.after.counters); err != nil {
			return nil, err
		}
	}
	m.elapsed = elapsed
	m.ops, m.fails, m.verifyMS = flatten(logs)

	kept, err := inst.proofs(logs)
	if err != nil {
		m.fails = append(m.fails, err.Error())
	}
	m.check = newProofCheck(kept, inst.baseParams())
	m.check.pass()

	rec = &record{
		Schema: 1, Workload: w.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Env: readEnvironment(), Config: inst.describe(),
	}
	if rc.trace {
		var spans [][]span
		for _, op := range m.ops {
			if op.traced {
				spans = append(spans, op.spans)
			}
		}
		if err := writeSpans(filepath.Join(".bench_build", "benchmark", "spans-"+w.name+".jsonl"), spans); err != nil {
			return nil, err
		}
		probes, err := runProbes(rc.workDir)
		if err != nil {
			return nil, fmt.Errorf("layers probe pass: %w", err)
		}
		tally(rec, w, m)
		rec.Metrics = metricSet(perLayer, perLayerValues(m, probes))
		return rec, nil
	}
	// One more verify pass after each set-up child: the passes then
	// span several seconds, and a proof's fastest pass is reported.
	if m.setupS, err = medianSetup(rc, m.setupS, m.check.pass); err != nil {
		return nil, err
	}
	tally(rec, w, m)
	rec.Metrics = metricSet(endToEnd, endToEndValues(m))
	rec.Window = windowValues(m)
	return rec, nil
}

// tally counts what was attempted and what failed, and applies the
// checks that hold for every workload: no scratch buffer leaked, no 5xx
// answered, and what the workload must and should have been.
func tally(rec *record, w workload, m *measured) {
	fails := append([]string(nil), m.fails...)
	traced := 0
	for _, op := range m.ops {
		if op.fail != "" {
			fails = append(fails, op.fail)
		}
		if op.traced {
			traced++
		}
	}
	fails = append(fails, m.check.fails...)
	attempted := len(m.ops) + len(m.verifyMS) + len(m.fails) + len(m.check.kept)

	var global []string
	if d := m.delta; d != nil {
		global = append(global, expect(d.family("nocap_server_errors_total") == 0, "the server answered 5xx")...)
		global = append(global, expect(m.after.counters["nocap_arena_outstanding"] == 0, "arena checkouts outstanding after the window")...)
		if w.must != nil {
			global = append(global, w.must(d)...)
		}
		if w.should != nil {
			rec.Warnings = w.should(d)
		}
	}
	if len(m.ops) == 0 {
		global = append(global, "no operation completed")
	}
	rec.Samples = map[string]int{
		"ops": len(m.ops), "traced_ops": traced,
		"verify_in_window": len(m.verifyMS), "verify_passes": m.check.passes,
		"proofs_checked": len(m.check.kept),
		// A percentile is worth reporting with ten samples beyond it;
		// the library workloads' p90 has fewer in a ten-second window.
		"latency_samples_beyond_p90": samplesBeyond(len(m.ops), 90),
	}
	rec.Attempted = max(attempted, 1)
	rec.Failed = len(fails) + len(global)
	rec.Failures = append(fails, global...)
	if len(rec.Failures) > 20 {
		rec.Failures = rec.Failures[:20]
	}
	rec.Correct = rec.Failed == 0
}

// medianSetup runs the harness again as a child that sets the workload
// up and exits — at least until there are setupRepeats set-up times,
// and for a cheap set-up until the children have used setupBudget or
// there are setupMost — and returns the median of them all. Each child
// is waited for before the next starts; between runs in between.
func medianSetup(rc *runConfig, own float64, between func()) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := []float64{own}
	start := time.Now()
	for len(times) < setupRepeats || (len(times) < setupMost && time.Since(start) < setupBudget) {
		cmd := exec.Command(self, "--workload", rc.workload, "--seed", strconv.FormatInt(rc.seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		var t float64
		if _, err := fmt.Sscan(string(out), &t); err != nil {
			return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
		}
		times = append(times, t)
		between()
	}
	return median(times), nil
}

// runAll runs every workload untraced and then traced, each in a child
// process so it starts with empty caches and has its own peak RSS.
func runAll(rc runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(rc.seed, 10),
				"--seconds", strconv.FormatFloat(rc.seconds, 'f', -1, 64), "--trace", trace}
			if rc.out != "" {
				args = append(args, "--out", rc.out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s trace=%s: %v", w.name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for people: the header, the sample counts and
// every metric by name with its unit.
func report(w io.Writer, rec *record) {
	e := rec.Env
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "commit %s  %s %s/%s  nproc %d  GOMAXPROCS %d  %s\n",
		e.Commit, e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.CPUModel)
	cfg, _ := json.Marshal(rec.Config)
	fmt.Fprintf(w, "config %s\n", cfg)
	for _, k := range slices.Sorted(maps.Keys(rec.Samples)) {
		fmt.Fprintf(w, "samples.%s %d\n", k, rec.Samples[k])
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	for _, k := range slices.Sorted(maps.Keys(rec.Window)) {
		fmt.Fprintf(w, "%-40s %16.6g (not bounded)\n", k, rec.Window[k])
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, f := range rec.Warnings {
		fmt.Fprintf(w, "WARNING %s\n", f)
	}
}
