package main

// metricDef names one metric the harness prints. BENCHMARK.json lists
// the same names, units and directions; TestBenchmarkJSONMatchesHarness
// keeps the two from drifting apart.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEnd are what a user of the prover sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_quiet_ms", "ms", "lower"},
	{"verify_p50_ms", "ms", "lower"},
	{"constraints_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"proof_kib", "KiB", "lower"},
	{"setup_s", "s", "lower"},
}

var kernelStages = []string{"sumcheck", "rs-encode", "merkle", "spmv", "poly-arith"}

var paperCircuits = []string{"aes", "sha", "rsa", "auction", "litmus"}

// perLayer are the single-layer metrics of a traced run, in print
// order. A metric whose layer a workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	lower := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, "lower"})
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, "higher"})
		}
	}

	// The window as it was, the box's noise included.
	higher("1/s", "window.ops_per_s")
	lower("ms", "window.latency_p50_ms", "window.latency_p90_ms")
	lower("s", "window.cpu_s_per_op")

	// Harness spans around its own calls.
	lower("ms", "op.self_ms_p50", "circuits.synth_ms_p50", "spartan.prove_ms_p50", "spartan.verify_ms_p50",
		"wire.marshal_ms_p50", "wire.unmarshal_ms_p50")
	for _, c := range paperCircuits {
		lower("ms", "circuits."+c+".cycle_ms_p50")
	}

	// Per-run collectors (library) or the server's aggregate (service).
	for _, st := range kernelStages {
		lower("ms", "kernel."+st+".wall_ms_per_op")
		lower("count", "kernel."+st+".calls_per_op", "kernel."+st+".elems_per_op")
	}
	lower("ratio", "kernel.stage_sum_over_prove")
	lower("count", "arena.gets_per_op")
	higher("ratio", "arena.hit_ratio")
	lower("count", "arena.outstanding_after")
	higher("ratio", "par.cpu_over_wall")

	// Go runtime deltas over the window.
	lower("MB", "runtime.alloc_mb_per_op")
	lower("count", "runtime.mallocs_per_op")
	lower("ms", "runtime.gc_pause_ms_per_op")
	lower("count", "runtime.gc_cycles_per_op")

	// Client-side spans, reply fields and /metrics deltas.
	lower("ms", "client.encode_ms_p50", "client.decode_ms_p50",
		"server.queue_ms_p50", "server.prove_ms_p50", "server.overhead_ms_p50", "server.verify_ms_p50",
		"server.queue_wait_ms_per_op")
	lower("count", "server.rejected_per_op", "server.errors_5xx")
	lower("ms", "tenant.queue_wait_ms_per_op")
	lower("count", "tenant.rejected_queue_full")
	higher("ratio", "proofcache.hit_ratio")
	lower("count", "proofcache.coalesced_per_op", "proofcache.inserts_per_op", "proofcache.verify_rejects")
	lower("ms", "jobs.submit_ms_p50", "jobs.accept_to_done_ms_p50")
	lower("count", "jobs.polls_per_op", "jobs.journal_bytes_per_op", "jobs.journal_records_per_op", "jobs.retries")
	higher("count", "jobs.batch_mean_size", "jobs.batch_amortized_saves_per_op")
	lower("count", "cluster.dispatches_per_op", "cluster.polls_per_op", "cluster.heartbeats_per_op",
		"cluster.lease_expiries", "cluster.local_fallbacks", "cluster.duplicate_completions")

	// The layers probe pass.
	for _, p := range probeDefs {
		lower(p.unit, p.name)
	}

	lower("%", "trace.overhead_pct")
	return out
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds the printed map for a list of definitions from the
// measured values, defaulting unmeasured metrics to 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
