package main

import (
	"context"
	"fmt"
	"time"

	"nocap"
)

// libReps is the repetition count of the library workloads: the paper's
// configuration, nocap.DefaultParams().
const libReps = 3

// libBase carries what every library workload shares: one caller into
// the nocap facade under the paper's parameters, no counters to scrape,
// nothing to shut down.
type libBase struct{}

func (libBase) counters() (promSample, error) { return nil, nil }
func (libBase) baseParams() nocap.Params      { return nocap.DefaultParams() }
func (libBase) close() error                  { return nil }

func (libBase) describe() map[string]any {
	return map[string]any{"clients": 1, "params": describeParams(nocap.DefaultParams(), libReps)}
}

func describeParams(p nocap.Params, reps int) map[string]any {
	code := "nil"
	if c := p.PCS.Code; c != nil {
		code = fmt.Sprintf("%s/blowup=%d/queries=%d", c.Name(), c.Blowup(), c.Queries())
	}
	return map[string]any{
		"reps": reps, "rows": p.PCS.Rows, "zk": p.PCS.ZK, "code": code,
		"proximity": p.PCS.NumProximity, "max_points": p.PCS.MaxPoints,
		"recompute": p.Recompute, "hash": p.PCS.Engine().Name(),
	}
}

// tracedProve is ProveCtx with, on a traced operation, a per-run
// collector attached and the process CPU time read on both sides of the
// call, so kernel stages and parallel efficiency are attributed to this
// prove alone.
func tracedProve(tr *tracer, parent int, rec *opRec, p nocap.Params, bm *nocap.Benchmark) (*nocap.Proof, error) {
	ctx := context.Background()
	if tr == nil {
		return nocap.ProveCtx(ctx, p, bm.Inst, bm.IO, bm.Witness)
	}
	col := nocap.NewCollector()
	sp := tr.begin("spartan.prove", parent)
	cpu0, start := cpuTime(), time.Now()
	proof, err := nocap.ProveCtx(col.Attach(ctx), p, bm.Inst, bm.IO, bm.Witness)
	rec.proveWall, rec.proveCPU = time.Since(start), cpuTime()-cpu0
	tr.end(sp)
	rec.stats = col.Stats()
	return proof, err
}

// libProve is lib-prove-2p16: the statement is built once in set-up and
// the operation is the prove alone.
type libProve struct {
	libBase
	stmt   statement
	bm     *nocap.Benchmark
	params nocap.Params
}

func newLibProve(*runConfig) (instance, error) {
	w := &libProve{stmt: statement{"synthetic", 1 << 16, libReps}}
	var err error
	w.bm, w.params, err = w.stmt.fitted(nocap.DefaultParams())
	return w, err
}

func (w *libProve) step(_ int, traced bool, log *clientLog) bool {
	tr := log.tracer(traced)
	rec := newOpRec(traced, w.stmt, w.bm.Inst.NumConstraints())
	root := tr.begin("op", -1)
	start := time.Now()
	proof, err := tracedProve(tr, root, &rec, w.params, w.bm)
	rec.latency = time.Since(start)
	tr.end(root)
	if err != nil {
		rec.fail = "prove: " + err.Error()
	} else {
		log.keep(retained{stmt: w.stmt, proof: proof})
	}
	if tr != nil {
		rec.spans = tr.spans
	}
	log.ops = append(log.ops, rec)
	return true
}

func (w *libProve) proofs(logs []*clientLog) ([]retained, error) {
	kept := latest(logs)
	for i := range kept {
		data, err := nocap.MarshalProof(kept[i].proof)
		if err != nil {
			return nil, fmt.Errorf("marshal retained proof: %w", err)
		}
		kept[i].data = data
	}
	return kept, nil
}

// paperCycle is lib-paper-circuits: round-robin over the paper's five
// circuits, the operation being everything a library user does with
// one — synthesize, prove, serialize, parse, verify.
type paperCycle struct {
	libBase
	next int
}

// paperStatements are the five circuits at the sizes the issue fixes,
// with the padded constraint count each synthesizes to
// (TestPaperStatementSizes checks the counts against the circuits).
var paperStatements = []struct {
	stmt        statement
	constraints int
}{
	{statement{"aes", 1, libReps}, 1 << 17},
	{statement{"sha", 1, libReps}, 1 << 16},
	{statement{"rsa", 8, libReps}, 1 << 13},
	{statement{"auction", 64, libReps}, 1 << 13},
	{statement{"litmus", 16, libReps}, 1 << 12},
}

func newPaperCycle(*runConfig) (instance, error) { return &paperCycle{}, nil }

func (w *paperCycle) step(_ int, traced bool, log *clientLog) bool {
	ps := paperStatements[w.next%len(paperStatements)]
	w.next++
	tr := log.tracer(traced)
	rec := newOpRec(traced, ps.stmt, ps.constraints)
	root := tr.begin("circuits."+ps.stmt.Circuit+".cycle", -1)
	start := time.Now()
	data, err := w.cycle(tr, root, &rec, ps.stmt)
	rec.latency = time.Since(start)
	tr.end(root)
	if err != nil {
		rec.fail = err.Error()
	} else {
		rec.proofBytes = len(data)
		log.keep(retained{stmt: ps.stmt, data: data})
	}
	if tr != nil {
		rec.spans = tr.spans
	}
	log.ops = append(log.ops, rec)
	return true
}

func (w *paperCycle) cycle(tr *tracer, root int, rec *opRec, st statement) ([]byte, error) {
	sp := tr.begin("circuits.synth", root)
	bm, params, err := st.fitted(nocap.DefaultParams())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("synthesize %s: %w", st.Circuit, err)
	}
	proof, err := tracedProve(tr, root, rec, params, bm)
	if err != nil {
		return nil, fmt.Errorf("prove %s: %w", st.Circuit, err)
	}
	sp = tr.begin("wire.marshal", root)
	data, err := nocap.MarshalProof(proof)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("marshal %s: %w", st.Circuit, err)
	}
	sp = tr.begin("wire.unmarshal", root)
	parsed, err := nocap.UnmarshalProof(data)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("unmarshal %s: %w", st.Circuit, err)
	}
	sp = tr.begin("spartan.verify", root)
	err = nocap.Verify(params, bm.Inst, bm.IO, parsed)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("verify %s: %w", st.Circuit, err)
	}
	return data, nil
}

func (w *paperCycle) proofs(logs []*clientLog) ([]retained, error) { return latest(logs), nil }
