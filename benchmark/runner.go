package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"nocap"
)

// keepProofs is how many of a workload's most recent proofs are kept
// and verified after the timed window.
const keepProofs = 16

// traceSlice is the length of the alternating traced/untraced slices of
// a traced run. Both halves see the same drift, so their p50s differ by
// the tracing overhead and little else.
const traceSlice = 500 * time.Millisecond

// statement is what a proof proves: the request as the harness sent it.
type statement struct {
	Circuit string
	N, Reps int
}

// fitted builds the statement locally and fits the PCS geometry to it
// the way the server's buildFor and cmd/nocap-prove do.
func (st statement) fitted(base nocap.Params) (*nocap.Benchmark, nocap.Params, error) {
	bm, err := nocap.CircuitByName(st.Circuit, st.N)
	if err != nil {
		return nil, base, err
	}
	return bm, fit(base, bm, st.Reps), nil
}

func fit(p nocap.Params, bm *nocap.Benchmark, reps int) nocap.Params {
	p.Reps = reps
	if half := bm.Inst.NumVars() / 2; p.PCS.Rows > half {
		p.PCS.Rows = half
	}
	return p
}

// retained is a proof kept for the post-window check. Library workloads
// that never serialize inside the operation keep the proof itself and
// marshal it after the window.
type retained struct {
	at    time.Time
	stmt  statement
	data  []byte
	proof *nocap.Proof
	jobID string
}

// opRec is one completed (or failed) operation as the client saw it.
type opRec struct {
	latency time.Duration
	// cycle is the client's time from starting this operation to being
	// free to start the next: the step's duration shared among the
	// operations it completed (one, or a burst). The closed loop's
	// throughput is clients ÷ mean cycle.
	cycle       time.Duration
	fail        string // "" when the operation succeeded
	class       string // operations of one class do the same work
	constraints int    // padded constraints of the proof delivered
	proofBytes  int

	// Filled on traced operations only.
	traced    bool
	spans     []span
	stats     nocap.ProveStats // per-run collector (library workloads)
	proveWall time.Duration    // wall and CPU inside the prove span
	proveCPU  time.Duration
	hasReply  bool // queueMS/proveMS come from the server's reply
	queueMS   float64
	proveMS   float64
	polls     int
}

func newOpRec(traced bool, st statement, constraints int) opRec {
	return opRec{traced: traced, class: st.Circuit + "/" + strconv.Itoa(constraints), constraints: constraints}
}

// traceOverheadPct is how much slower the traced operations of a traced
// run were than the untraced ones interleaved with them: the relative
// difference of the two p50s, taken per class of operation (a mixed
// workload's overall p50 moves with the mix each half happened to get)
// and averaged over the classes by their share of the operations.
func traceOverheadPct(ops []opRec) float64 {
	type halves struct{ traced, plain []float64 }
	classes := map[string]*halves{}
	for _, op := range ops {
		if op.fail != "" {
			continue
		}
		h := classes[op.class]
		if h == nil {
			h = &halves{}
			classes[op.class] = h
		}
		if op.traced {
			h.traced = append(h.traced, ms(op.latency))
		} else {
			h.plain = append(h.plain, ms(op.latency))
		}
	}
	var weighted, weight float64
	for _, h := range classes {
		if len(h.traced) < 3 || len(h.plain) < 3 {
			continue
		}
		base, n := percentile(h.plain, 50), float64(len(h.traced)+len(h.plain))
		weighted += n * (percentile(h.traced, 50) - base) / base
		weight += n
	}
	return 100 * ratio(weighted, weight)
}

// clientLog is what one closed-loop client did during a window. Only
// its own goroutine writes it until the window ends.
type clientLog struct {
	client   int
	epoch    time.Time
	ops      []opRec
	kept     []retained // ring of the most recent keepProofs
	verifyMS []float64  // in-window POST /verify round trips
	fails    []string   // failures outside an operation (a verify)
	nextOp   int64
}

// tracer returns a tracer for the next operation, or nil when the
// operation is not traced.
func (l *clientLog) tracer(traced bool) *tracer {
	l.nextOp++
	if !traced {
		return nil
	}
	return &tracer{epoch: l.epoch, op: int64(l.client)<<32 | l.nextOp}
}

func (l *clientLog) keep(r retained) {
	r.at = time.Now()
	if len(l.kept) == keepProofs {
		copy(l.kept, l.kept[1:])
		l.kept = l.kept[:keepProofs-1]
	}
	l.kept = append(l.kept, r)
}

// instance is one workload, set up and ready to be driven.
type instance interface {
	// step runs one closed-loop iteration for a client — one operation,
	// or for jobs-batch one burst — and appends what happened to log.
	// It returns false when the workload has run out of inputs.
	step(client int, traced bool, log *clientLog) bool
	// proofs returns up to keepProofs of the most recent proofs the
	// window produced, serialized, for the post-window check.
	proofs(logs []*clientLog) ([]retained, error)
	// counters scrapes the layer counters the system exposes; library
	// workloads have none and return nil.
	counters() (promSample, error)
	// baseParams are the proving parameters before a statement's reps
	// and geometry are fitted.
	baseParams() nocap.Params
	// describe is the pinned configuration for the result record.
	describe() map[string]any
	close() error
}

// window drives the instance with its clients for d (or until every
// client has done limit operations, when limit > 0) and returns the
// logs and the elapsed time from the first request to the last reply.
func window(inst instance, clients int, d time.Duration, limit int, traceMode bool) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, clients)
	epoch := time.Now()
	deadline := epoch.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		logs[c] = &clientLog{client: c, epoch: epoch}
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			for limit <= 0 || len(log.ops) < limit {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				traced := traceMode && (now.Sub(epoch)/traceSlice)%2 == 1
				done := len(log.ops)
				more := inst.step(log.client, traced, log)
				if n := len(log.ops) - done; n > 0 {
					cycle := time.Since(now) / time.Duration(n)
					for i := done; i < len(log.ops); i++ {
						log.ops[i].cycle = cycle
					}
				}
				if !more {
					return
				}
			}
		}(logs[c])
	}
	wg.Wait()
	return logs, time.Since(epoch)
}

// latest merges the clients' kept proofs and returns the keepProofs
// most recent, oldest first.
func latest(logs []*clientLog) []retained {
	var all []retained
	for _, l := range logs {
		all = append(all, l.kept...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	if len(all) > keepProofs {
		all = all[len(all)-keepProofs:]
	}
	return all
}

// proofCheck is the post-window correctness check: every retained
// proof is decoded and verified against a statement built locally from
// the request alone. It runs in passes spread over the rest of the run,
// so that a noisy stretch of the box slows one pass, not all of them.
type proofCheck struct {
	kept   []retained
	built  []builtStatement // parallel to kept
	fails  []string
	passes int
	// verifyMS[i] are the decode+verify times of kept[i], one per pass.
	verifyMS [][]float64
}

type builtStatement struct {
	bm     *nocap.Benchmark
	params nocap.Params
}

// newProofCheck builds each distinct statement once. A statement that
// cannot be built fails its proofs; they are then skipped by pass.
func newProofCheck(kept []retained, base nocap.Params) *proofCheck {
	c := &proofCheck{kept: kept, built: make([]builtStatement, len(kept)), verifyMS: make([][]float64, len(kept))}
	cache := map[statement]builtStatement{}
	for i, r := range kept {
		b, ok := cache[r.stmt]
		if !ok {
			var err error
			if b.bm, b.params, err = r.stmt.fitted(base); err != nil {
				c.fails = append(c.fails, fmt.Sprintf("check %v: build: %v", r.stmt, err))
			}
			cache[r.stmt] = b
		}
		c.built[i] = b
	}
	return c
}

// pass verifies every retained proof once more. Only the first pass
// records failures: a proof either verifies or it does not.
func (c *proofCheck) pass() {
	first := c.passes == 0
	c.passes++
	for i, r := range c.kept {
		b := c.built[i]
		if b.bm == nil {
			continue
		}
		start := time.Now()
		proof, err := nocap.UnmarshalProofLimits(r.data, nocap.DefaultDecodeLimits())
		if err == nil {
			err = nocap.Verify(b.params, b.bm.Inst, b.bm.IO, proof)
		}
		took := time.Since(start)
		if err != nil {
			if first {
				c.fails = append(c.fails, fmt.Sprintf("check %v: %v", r.stmt, err))
			}
			c.built[i].bm = nil
			continue
		}
		c.verifyMS[i] = append(c.verifyMS[i], ms(took))
	}
}

// verifyP50 is the median over the retained proofs of each proof's
// fastest pass.
func (c *proofCheck) verifyP50() float64 {
	var best []float64
	for _, passes := range c.verifyMS {
		if len(passes) > 0 {
			best = append(best, slices.Min(passes))
		}
	}
	return median(best)
}

// sizes are the serialized sizes of the retained proofs, in bytes.
func (c *proofCheck) sizes() []float64 {
	out := make([]float64, len(c.kept))
	for i, r := range c.kept {
		out[i] = float64(len(r.data))
	}
	return out
}

// snapshot is the process- and system-level state read just outside the
// timed window, on both sides of it.
type snapshot struct {
	cpu      time.Duration
	mem      runtime.MemStats
	counters promSample
}

func takeSnapshot(inst instance, withMem bool) (snapshot, error) {
	var s snapshot
	var err error
	if s.counters, err = inst.counters(); err != nil {
		return s, err
	}
	if withMem {
		runtime.ReadMemStats(&s.mem)
	}
	s.cpu = cpuTime()
	return s, nil
}

// measured is everything one run observed, before it is turned into
// named metrics.
type measured struct {
	clients  int
	ops      []opRec
	fails    []string // failures outside operations
	verifyMS []float64
	elapsed  time.Duration
	before   snapshot
	after    snapshot
	// delta is the change of the system's counters over the window; nil
	// for the library workloads, which expose none.
	delta   promSample
	peakRSS float64
	check   *proofCheck
	setupS  float64
}

func flatten(logs []*clientLog) (ops []opRec, fails []string, verifyMS []float64) {
	for _, l := range logs {
		ops = append(ops, l.ops...)
		fails = append(fails, l.fails...)
		verifyMS = append(verifyMS, l.verifyMS...)
	}
	return ops, fails, verifyMS
}

// quietMean is what one operation of the window's mix costs when the
// box is quiet: each class of operation at the p10 of value over its
// own operations, averaged over the classes by their share of the
// window. Neighbours on the host only ever add time, in stretches of
// seconds to minutes, so the low end of a class's distribution is the
// code and the rest is mostly the box; a plain median moves 20–40 %
// between runs here, this a few.
func quietMean(ops []opRec, value func(*opRec) float64) float64 {
	byClass := map[string][]float64{}
	n := 0
	for i := range ops {
		if ops[i].fail == "" {
			byClass[ops[i].class] = append(byClass[ops[i].class], value(&ops[i]))
			n++
		}
	}
	var mean float64
	for _, vals := range byClass {
		mean += float64(len(vals)) / float64(n) * percentile(vals, 10)
	}
	return mean
}

// windowValues are the plain figures of a window, noise and all:
// completions over wall time, nearest-rank percentiles over every
// operation, CPU over operations.
func windowValues(m *measured) map[string]float64 {
	var lat []float64
	for _, op := range m.ops {
		if op.fail == "" {
			lat = append(lat, ms(op.latency))
		}
	}
	done := float64(len(lat))
	return map[string]float64{
		"window.ops_per_s":      ratio(done, m.elapsed.Seconds()),
		"window.latency_p50_ms": percentile(lat, 50),
		"window.latency_p90_ms": percentile(lat, 90),
		"window.cpu_s_per_op":   ratio((m.after.cpu - m.before.cpu).Seconds(), done),
	}
}

// endToEndValues turns an untraced run into the end-to-end metrics.
func endToEndValues(m *measured) map[string]float64 {
	var sizes []float64
	var constraints, done float64
	for _, op := range m.ops {
		if op.fail != "" {
			continue
		}
		done++
		constraints += float64(op.constraints)
		if op.proofBytes > 0 {
			sizes = append(sizes, float64(op.proofBytes))
		}
	}
	if len(sizes) == 0 {
		sizes = m.check.sizes()
	}
	cycle := quietMean(m.ops, func(op *opRec) float64 { return op.cycle.Seconds() })
	opsPerS := ratio(float64(m.clients), cycle)
	return map[string]float64{
		"ops_per_s":         opsPerS,
		"latency_quiet_ms":  quietMean(m.ops, func(op *opRec) float64 { return ms(op.latency) }),
		"verify_p50_ms":     m.check.verifyP50(),
		"constraints_per_s": opsPerS * ratio(constraints, done),
		"peak_rss_mb":       m.peakRSS,
		"proof_kib":         median(sizes) / 1024,
		"setup_s":           m.setupS,
	}
}

// perLayerValues turns a traced run into the per-layer metrics. Span
// and collector figures come from the traced operations; counter and
// runtime deltas cover the whole window and divide by every operation
// in it.
func perLayerValues(m *measured, probes map[string]float64) map[string]float64 {
	v := windowValues(m)
	for name, val := range probes {
		v[name] = val
	}

	byName := map[string][]float64{}
	var selfMS, queue, prove, overhead, accept []float64
	var stats nocap.ProveStats
	var proveWall, proveCPU time.Duration
	var all, traced, polls float64
	for _, op := range m.ops {
		if op.fail != "" {
			continue
		}
		all++
		if !op.traced {
			continue
		}
		traced++
		durs := durationsByName(op.spans)
		for name, d := range durs {
			byName[name] = append(byName[name], ms(d))
		}
		for i, self := range selfTimes(op.spans) {
			if op.spans[i].Parent < 0 {
				selfMS = append(selfMS, ms(self))
			}
		}
		stats = stats.Plus(op.stats)
		proveWall += op.proveWall
		proveCPU += op.proveCPU
		polls += float64(op.polls)
		if op.hasReply {
			queue = append(queue, op.queueMS)
			prove = append(prove, op.proveMS)
			overhead = append(overhead, ms(op.latency)-op.queueMS-op.proveMS)
		}
		if submit, ok := durs["jobs.submit"]; ok {
			accept = append(accept, ms(op.latency-submit))
		}
	}
	for name, vals := range byName {
		v[name+"_ms_p50"] = percentile(vals, 50)
	}
	v["op.self_ms_p50"] = percentile(selfMS, 50)
	v["server.queue_ms_p50"] = percentile(queue, 50)
	v["server.prove_ms_p50"] = percentile(prove, 50)
	v["server.overhead_ms_p50"] = percentile(overhead, 50)
	v["server.verify_ms_p50"] = percentile(m.verifyMS, 50)
	v["jobs.accept_to_done_ms_p50"] = percentile(accept, 50)
	v["jobs.polls_per_op"] = ratio(polls, traced)
	v["trace.overhead_pct"] = traceOverheadPct(m.ops)

	d := m.delta

	// Kernel and arena: the traced operations' own collectors where the
	// harness attached them, else the server's process aggregate.
	perOp, arena := traced, stats.Arena
	stages := stats.Stages.Named()
	if d != nil {
		perOp = all
		for _, st := range kernelStages {
			label := fmt.Sprintf("{stage=%q}", st)
			stages[st] = nocap.StageStats{
				Calls: int64(d["nocap_kernel_calls_total"+label]),
				Elems: int64(d["nocap_kernel_elems_total"+label]),
				Wall:  time.Duration(d["nocap_kernel_wall_ns_total"+label]),
			}
		}
		arena = nocap.ArenaStats{
			Gets:        int64(d["nocap_arena_gets_total"]),
			Hits:        int64(d["nocap_arena_hits_total"]),
			Misses:      int64(d["nocap_arena_misses_total"]),
			Outstanding: int64(m.after.counters["nocap_arena_outstanding"]),
		}
		// No prove span to bracket on the far side of HTTP: the whole
		// window's CPU over its wall time.
		proveWall, proveCPU = m.elapsed, m.after.cpu-m.before.cpu
	} else {
		arena.Outstanding = nocap.ReadProveStats().Arena.Outstanding
	}
	var stageWall time.Duration
	for _, st := range kernelStages {
		ss := stages[st]
		stageWall += ss.Wall
		v["kernel."+st+".wall_ms_per_op"] = ratio(ms(ss.Wall), perOp)
		v["kernel."+st+".calls_per_op"] = ratio(float64(ss.Calls), perOp)
		v["kernel."+st+".elems_per_op"] = ratio(float64(ss.Elems), perOp)
	}
	if d == nil {
		v["kernel.stage_sum_over_prove"] = ratio(stageWall.Seconds(), proveWall.Seconds())
	}
	v["arena.gets_per_op"] = ratio(float64(arena.Gets), perOp)
	v["arena.hit_ratio"] = ratio(float64(arena.Hits), float64(arena.Hits+arena.Misses))
	v["arena.outstanding_after"] = float64(arena.Outstanding)
	v["par.cpu_over_wall"] = ratio(proveCPU.Seconds(), proveWall.Seconds())

	mem0, mem1 := &m.before.mem, &m.after.mem
	v["runtime.alloc_mb_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20), all)
	v["runtime.mallocs_per_op"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), all)
	v["runtime.gc_pause_ms_per_op"] = ratio(float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, all)
	v["runtime.gc_cycles_per_op"] = ratio(float64(mem1.NumGC-mem0.NumGC), all)

	if d != nil {
		counterValues(v, d, all)
	}
	return v
}

// counterValues adds the per-layer metrics read off the server's
// /metrics delta over the window; ops is every operation in it.
func counterValues(v map[string]float64, d promSample, ops float64) {
	perAll := func(family string) float64 { return ratio(d.family(family), ops) }
	v["server.queue_wait_ms_per_op"] = perAll("nocap_queue_wait_ns_total") / 1e6
	v["server.rejected_per_op"] = perAll("nocap_rejected_queue_full_total") + perAll("nocap_rejected_draining_total") +
		perAll("nocap_rejected_rate_limited_total") + perAll("nocap_rejected_tenant_quota_total")
	v["server.errors_5xx"] = d.family("nocap_server_errors_total")
	v["tenant.queue_wait_ms_per_op"] = perAll("nocap_tenant_queue_wait_ns_total") / 1e6
	v["tenant.rejected_queue_full"] = d.family("nocap_tenant_rejected_queue_full_total")
	hits, misses := d.family("nocap_proofcache_hits_total"), d.family("nocap_proofcache_misses_total")
	v["proofcache.hit_ratio"] = ratio(hits, hits+misses)
	v["proofcache.coalesced_per_op"] = perAll("nocap_proofcache_coalesced_total")
	v["proofcache.inserts_per_op"] = perAll("nocap_proofcache_inserts_total")
	v["proofcache.verify_rejects"] = d.family("nocap_proofcache_verify_rejects_total")
	v["jobs.journal_bytes_per_op"] = perAll("nocap_jobs_journal_bytes")
	v["jobs.journal_records_per_op"] = perAll("nocap_jobs_journal_records")
	v["jobs.retries"] = d.family("nocap_jobs_retries_total")
	v["jobs.batch_mean_size"] = ratio(d.family("nocap_batch_jobs_total"), d.family("nocap_batches_total"))
	v["jobs.batch_amortized_saves_per_op"] = perAll("nocap_batch_amortized_saves_total")
	v["cluster.dispatches_per_op"] = perAll("nocap_cluster_dispatches_total")
	v["cluster.polls_per_op"] = perAll("nocap_cluster_polls_total")
	v["cluster.heartbeats_per_op"] = perAll("nocap_cluster_heartbeats_total")
	v["cluster.lease_expiries"] = d.family("nocap_cluster_lease_expiries_total")
	v["cluster.local_fallbacks"] = d.family("nocap_cluster_local_fallbacks_total")
	v["cluster.duplicate_completions"] = d.family("nocap_cluster_duplicate_completions_total")
}
