// Per-stage execution counters for the kernel layer.
//
// Every kernel entry point records wall time, elements processed, and
// call counts against one of the five task-taxonomy stages. Counters
// live in Collectors: the package-level aggregate sink (Snapshot) is
// always credited, and a per-run Collector carried in the context
// (WithCollector) is credited as well, so two concurrent proving runs
// each observe exactly their own work while the process-wide totals
// stay monotone for /metrics-style reporting. Instrumentation is always
// on — a span is two monotonic-clock reads and a handful of atomic
// adds, far below the cost of any kernel invocation it wraps.
//
// Note on concurrency: kernels that fan out across a worker pool time
// the whole fan-out from the coordinating goroutine, so every stage's
// Wall is wall-clock time and the stages of one run sum to at most its
// elapsed time. (A caller that invokes a kernel from inside its own
// worker pool would be summing CPU time instead; none does — row encodes
// go through RSEncodeRowsCtx, one span around the whole matrix.)
package kernel

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one of the five task-taxonomy kernels (paper §V-A).
// The names match internal/tasks' task kinds.
type Stage int

const (
	// StageSumcheck is the sumcheck dynamic-programming kernel: DP-array
	// folds and round-polynomial evaluations (paper Listing 1).
	StageSumcheck Stage = iota
	// StageEncode is the Reed-Solomon encode kernel (zero-extend + NTT).
	StageEncode
	// StageMerkle is the Merkle hashing kernel: column leaf packing and
	// 2-to-1 level compression.
	StageMerkle
	// StageSpMV is the sparse matrix-vector product kernel.
	StageSpMV
	// StagePoly is the MLE / polynomial arithmetic kernel: eq-table
	// expansion and row combinations.
	StagePoly

	numStages
)

var stageNames = [numStages]string{"sumcheck", "rs-encode", "merkle", "spmv", "poly-arith"}

// String returns the taxonomy name of the stage.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// stageCounters is one stage's cumulative counters.
type stageCounters struct {
	calls atomic.Int64
	elems atomic.Int64
	ns    atomic.Int64
}

// Collector accumulates per-stage counters. The zero value is ready to
// use; all methods are safe for concurrent use. One Collector per
// proving run, attached to the run's context with WithCollector, gives
// that run its own truthful stage breakdown regardless of what other
// runs do concurrently.
type Collector struct {
	perStage [numStages]stageCounters
}

// add credits one finished span to the collector.
func (c *Collector) add(stage Stage, elems int, ns int64) {
	sc := &c.perStage[stage]
	sc.calls.Add(1)
	sc.elems.Add(int64(elems))
	sc.ns.Add(ns)
}

// AddStats credits a whole Stats delta to the collector without touching
// the process-wide aggregate. Batched proving uses it to hand each batch
// member its share of work that ran once under a shared plan collector:
// those spans already credited the aggregate when they ran, so routing
// the shares through the normal span path would double-count them.
func (c *Collector) AddStats(s Stats) {
	add := func(st Stage, ss StageStats) {
		sc := &c.perStage[st]
		sc.calls.Add(ss.Calls)
		sc.elems.Add(ss.Elems)
		sc.ns.Add(int64(ss.Wall))
	}
	add(StageSumcheck, s.Sumcheck)
	add(StageEncode, s.Encode)
	add(StageMerkle, s.Merkle)
	add(StageSpMV, s.SpMV)
	add(StagePoly, s.Poly)
}

// Snapshot reads the collector's current cumulative counters.
func (c *Collector) Snapshot() Stats {
	read := func(st Stage) StageStats {
		sc := &c.perStage[st]
		return StageStats{
			Calls: sc.calls.Load(),
			Elems: sc.elems.Load(),
			Wall:  time.Duration(sc.ns.Load()),
		}
	}
	return Stats{
		Sumcheck: read(StageSumcheck),
		Encode:   read(StageEncode),
		Merkle:   read(StageMerkle),
		SpMV:     read(StageSpMV),
		Poly:     read(StagePoly),
	}
}

// global is the process-wide aggregate sink: every span is credited
// here in addition to the run's own collector (if any).
var global Collector

// collectorKey carries a *Collector in a context.
type collectorKey struct{}

// WithCollector returns a context that attributes all kernel spans begun
// under it (via BeginCtx or the ...Ctx kernels) to c, in addition to the
// process-wide aggregate.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, c)
}

// FromContext returns the collector attached to ctx, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}

// Span is an in-flight timing measurement begun with BeginCtx.
type Span struct {
	stage Stage
	start time.Time
	c     *Collector // per-run collector, nil when unattributed
}

// BeginCtx starts timing one kernel invocation, credited to the
// aggregate sink and to the per-run collector carried by ctx (if any).
func BeginCtx(ctx context.Context, stage Stage) Span {
	return Span{stage: stage, start: time.Now(), c: FromContext(ctx)}
}

// End finishes the span, crediting the stage with one call, the given
// number of processed elements, and the elapsed wall time.
func (sp Span) End(elems int) {
	ns := int64(time.Since(sp.start))
	global.add(sp.stage, elems, ns)
	if sp.c != nil {
		sp.c.add(sp.stage, elems, ns)
	}
}

// StageStats is a snapshot of one stage's cumulative counters.
type StageStats struct {
	// Calls is the number of kernel invocations.
	Calls int64
	// Elems is the total number of elements processed.
	Elems int64
	// Wall is the cumulative wall time spent inside the kernel.
	Wall time.Duration
}

// Sub returns the counter difference s − o.
func (s StageStats) Sub(o StageStats) StageStats {
	return StageStats{Calls: s.Calls - o.Calls, Elems: s.Elems - o.Elems, Wall: s.Wall - o.Wall}
}

// Add returns the counter sum s + o.
func (s StageStats) Add(o StageStats) StageStats {
	return StageStats{Calls: s.Calls + o.Calls, Elems: s.Elems + o.Elems, Wall: s.Wall + o.Wall}
}

// Stats is a snapshot of every stage's counters.
type Stats struct {
	Sumcheck StageStats
	Encode   StageStats
	Merkle   StageStats
	SpMV     StageStats
	Poly     StageStats
}

// Snapshot reads the current cumulative process-wide counters (the
// aggregate sink).
func Snapshot() Stats {
	return global.Snapshot()
}

// Sub returns the per-stage difference s − o, used to attribute counters
// to one proving run bracketed by two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Sumcheck: s.Sumcheck.Sub(o.Sumcheck),
		Encode:   s.Encode.Sub(o.Encode),
		Merkle:   s.Merkle.Sub(o.Merkle),
		SpMV:     s.SpMV.Sub(o.SpMV),
		Poly:     s.Poly.Sub(o.Poly),
	}
}

// Add returns the per-stage sum s + o, used to combine per-run
// collectors when checking them against the aggregate sink.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Sumcheck: s.Sumcheck.Add(o.Sumcheck),
		Encode:   s.Encode.Add(o.Encode),
		Merkle:   s.Merkle.Add(o.Merkle),
		SpMV:     s.SpMV.Add(o.SpMV),
		Poly:     s.Poly.Add(o.Poly),
	}
}

// shareOf returns share i of total split k ways so the k shares sum to
// total exactly: an even floor division with the remainder spread one
// unit at a time over the lowest-indexed shares.
func shareOf(total int64, k, i int) int64 {
	q, r := total/int64(k), total%int64(k)
	if int64(i) < r {
		q++
	}
	return q
}

// Split partitions s into k shares that sum back to s exactly. Batched
// proving uses it to attribute shared-plan work proportionally: members
// of a batch are structurally identical, so the proportional share of
// once-per-batch work is an even split, with counter remainders going to
// the lowest-indexed members so no unit is lost or invented.
func (s Stats) Split(k int) []Stats {
	if k <= 0 {
		return nil
	}
	out := make([]Stats, k)
	split := func(get func(*Stats) *StageStats, total StageStats) {
		for i := range out {
			ss := get(&out[i])
			ss.Calls = shareOf(total.Calls, k, i)
			ss.Elems = shareOf(total.Elems, k, i)
			ss.Wall = time.Duration(shareOf(int64(total.Wall), k, i))
		}
	}
	split(func(s *Stats) *StageStats { return &s.Sumcheck }, s.Sumcheck)
	split(func(s *Stats) *StageStats { return &s.Encode }, s.Encode)
	split(func(s *Stats) *StageStats { return &s.Merkle }, s.Merkle)
	split(func(s *Stats) *StageStats { return &s.SpMV }, s.SpMV)
	split(func(s *Stats) *StageStats { return &s.Poly }, s.Poly)
	return out
}

// Named returns the stages keyed by their taxonomy names, for JSON
// emission and generic reporting.
func (s Stats) Named() map[string]StageStats {
	return map[string]StageStats{
		StageSumcheck.String(): s.Sumcheck,
		StageEncode.String():   s.Encode,
		StageMerkle.String():   s.Merkle,
		StageSpMV.String():     s.SpMV,
		StagePoly.String():     s.Poly,
	}
}

// String renders the snapshot as an aligned table (one row per stage).
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %16s %14s\n", "stage", "calls", "elems", "wall")
	row := func(st Stage, ss StageStats) {
		fmt.Fprintf(&b, "%-10s %12d %16d %14s\n", st, ss.Calls, ss.Elems, ss.Wall)
	}
	row(StageSumcheck, s.Sumcheck)
	row(StageEncode, s.Encode)
	row(StageMerkle, s.Merkle)
	row(StageSpMV, s.SpMV)
	row(StagePoly, s.Poly)
	return b.String()
}
