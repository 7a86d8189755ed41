// Package prover is the one place that knows how a prove request
// becomes a proof (DESIGN.md §17): the request schema and its bounds,
// the circuit build and PCS-geometry fit, the per-attempt deadline, the
// collector → prove → marshal → stats recipe (solo, or one member of a
// shared batch plan), and the verified proof-cache protocol.
//
// Every path that proves on a request's behalf calls it: POST /prove
// (Check, Lookup, Build, Prove) and the nocap-prove CLI (Check, Build,
// Prove — the CLI as a Prover with no cache and no bounds), async solo
// and batched attempts, the cluster coordinator's in-process fallback
// and nocap-worker nodes (Exec, BatchExec — the jobs package's executor
// signatures). One recipe
// is what makes "a proof is byte-identical no matter which path or node
// produced it" a property of the code, and why every path reports the
// same per-run stats.
package prover

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"nocap"
	"nocap/internal/faultinject"
	"nocap/internal/hashfn"
	"nocap/internal/jobs"
	"nocap/internal/proofcache"
	"nocap/internal/zkerr"
)

// fiBuild fires once per circuit build; tests count builds through it to
// check that a front-index hit synthesizes nothing.
var fiBuild = faultinject.Register("prover.build")

// Request names a statement to prove. It is the POST /prove and POST
// /jobs body; the jobs journal stores it verbatim as the job payload
// and the cluster coordinator forwards that payload to worker nodes, so
// every executor decodes exactly what admission accepted.
type Request struct {
	// Circuit is a benchmark name (see nocap.CircuitNames).
	Circuit string `json:"circuit"`
	// N is the circuit size parameter; clamped to the circuit minimum,
	// bounded above by Config.MaxN.
	N int `json:"n"`
	// Reps is the soundness repetition count (default 1).
	Reps int `json:"reps,omitempty"`
	// TimeoutMS shortens (never extends) the attempt deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// StageStats is one kernel stage's per-run counters.
type StageStats struct {
	Calls  int64 `json:"calls"`
	Elems  int64 `json:"elems"`
	WallNs int64 `json:"wall_ns"`
}

// ArenaStats is one run's scratch-pool behaviour; Outstanding == 0 is
// the per-run leak check.
type ArenaStats struct {
	Gets        int64 `json:"gets"`
	Puts        int64 `json:"puts"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Outstanding int64 `json:"outstanding"`
}

// Stats is the per-run execution breakdown, measured by the run's own
// collector (truthful under concurrency).
type Stats struct {
	Stages map[string]StageStats `json:"stages"`
	Arena  ArenaStats            `json:"arena"`
}

// StatsOf renders a collector snapshot in the wire form.
func StatsOf(run nocap.ProveStats) Stats {
	a := run.Arena
	out := Stats{
		Stages: make(map[string]StageStats, 5),
		Arena:  ArenaStats{Gets: a.Gets, Puts: a.Puts, Hits: a.Hits, Misses: a.Misses, Outstanding: a.Outstanding},
	}
	for name, ss := range run.Stages.Named() {
		out.Stages[name] = StageStats{Calls: ss.Calls, Elems: ss.Elems, WallNs: int64(ss.Wall)}
	}
	return out
}

// Statement is a request bound to its circuit by Prover.Build: the
// built benchmark, the parameters fitted to it, and the deadline one
// attempt at it may take.
type Statement struct {
	Circuit string
	Params  nocap.Params
	Bench   *nocap.Benchmark
	timeout time.Duration  // set by Build, always positive
	request proofcache.Key // the request digest Build was given
}

// Outcome is one attempt's result. A cached outcome (hit or followed
// flight) carries the leader's verified bytes and no stats: no prove
// ran for it.
type Outcome struct {
	Proof []byte
	// B64 is Proof's standard base64 text when the cache made it (every
	// outcome that passed through a cache); nil otherwise.
	B64    []byte
	Stats  Stats
	Cached bool
	// Elapsed is the time spent inside the prover proper.
	Elapsed time.Duration
}

// proveFunc produces the proof of one attempt: a solo prove of the
// statement, or one member's prove against a shared batch plan.
type proveFunc func(context.Context) (*nocap.Proof, error)

// Verify checks a decoded proof against the statement.
func (st *Statement) Verify(ctx context.Context, proof *nocap.Proof) error {
	return nocap.VerifyCtx(ctx, st.Params, st.Bench.Inst, st.Bench.IO, proof)
}

func (st *Statement) solo(ctx context.Context) (*nocap.Proof, error) {
	return nocap.ProveCtx(ctx, st.Params, st.Bench.Inst, st.Bench.IO, st.Bench.Witness)
}

// attempt is the recipe every prove shares: a fresh collector
// (pre-credited with the run's share of any batch-plan work) attached
// to the context, the prove, the marshal, the stats block.
func attempt(ctx context.Context, prove proveFunc, credit nocap.ProveStats) (Outcome, error) {
	col := nocap.NewCollector()
	col.AddStats(credit)
	start := time.Now()
	proof, err := prove(col.Attach(ctx))
	elapsed := time.Since(start)
	if err != nil {
		return Outcome{}, err
	}
	data, err := nocap.MarshalProof(proof)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Proof: data, Stats: StatsOf(col.Stats()), Elapsed: elapsed}, nil
}

// cacheKey addresses a proof by (circuit-id, params-digest,
// witness-commitment): two requests share a key exactly when they prove
// the same statement under the same parameters, so everything that
// could change the proof's meaning — circuit, PCS geometry, code,
// repetitions, masking, recomputation — folds into the digest, and the
// full IO and witness vectors fold into the commitment.
func (st *Statement) cacheKey() proofcache.Key {
	paramsDigest := hashfn.Sum([]byte(describe(st.Params)))
	witness := hashfn.Hash2(hashfn.HashElems(st.Bench.IO), hashfn.HashElems(st.Bench.Witness))
	k := hashfn.Hash2(hashfn.Hash2(hashfn.Sum([]byte(st.Circuit)), paramsDigest), witness)
	return proofcache.Key(k)
}

// describe renders every parameter that could change a proof's meaning.
func describe(params nocap.Params) string {
	codeName := "nil"
	if params.PCS.Code != nil {
		codeName = fmt.Sprintf("%s/%d/%d", params.PCS.Code.Name(), params.PCS.Code.Blowup(), params.PCS.Code.Queries())
	}
	return fmt.Sprintf(
		"rows=%d code=%s prox=%d maxpts=%d zk=%t reps=%d recompute=%t hash=%s",
		params.PCS.Rows, codeName, params.PCS.NumProximity, params.PCS.MaxPoints,
		params.PCS.ZK, params.Reps, params.Recompute, params.PCS.Engine().Name())
}

// requestKey is the front-index key of a checked request: a digest of
// (circuit, n, reps) and the base parameters, which determine the
// statement Build would construct — synthesis is deterministic and the
// geometry fit is a function of the base parameters and the circuit.
// It hashes a short string and builds nothing. timeout_ms is not part
// of it: the deadline never changes a proof.
func (p *Prover) requestKey(req Request) proofcache.Key {
	params := p.cfg.Params
	params.Reps = max(req.Reps, 1)
	return proofcache.Key(hashfn.Sum([]byte(fmt.Sprintf("request circuit=%q n=%d %s", req.Circuit, req.N, describe(params)))))
}

// Config configures a Prover. Zero fields take the documented defaults.
type Config struct {
	// Params is the base proving configuration; a request's reps
	// override Params.Reps, and PCS geometry is fitted per circuit.
	Params nocap.Params
	// MaxN bounds accepted circuit sizes (default 1<<20).
	MaxN int
	// Timeout bounds one attempt; a request's timeout_ms shortens it
	// (default 60s).
	Timeout time.Duration
	// Cache, when set, is the verified content-addressed proof cache:
	// repeat statements are served from it and concurrent identical
	// proves coalesce onto one flight.
	Cache *proofcache.Cache
	// Limits bounds the decode of a proof being verified for cache
	// insertion (zero fields take nocap.DefaultDecodeLimits).
	Limits nocap.DecodeLimits
}

// Prover turns requests into proofs under one configuration. It holds
// no per-request state; all methods are safe for concurrent use.
type Prover struct {
	cfg Config
}

// New builds a Prover.
func New(cfg Config) *Prover {
	if cfg.MaxN <= 0 {
		cfg.MaxN = 1 << 20
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	return &Prover{cfg: cfg}
}

// Check validates a request without building its circuit — cheap enough
// to run before admission, so a request that could never prove gets its
// typed rejection instead of a queue slot or a journal record — and
// returns the deadline one attempt at it may take.
func (p *Prover) Check(req Request) (time.Duration, error) {
	if req.N > p.cfg.MaxN {
		return 0, zkerr.Resourcef("n=%d exceeds max %d", req.N, p.cfg.MaxN)
	}
	if req.Reps < 0 || req.Reps > 64 {
		return 0, zkerr.Usagef("reps must be in [0,64], got %d", req.Reps)
	}
	if !slices.Contains(nocap.CircuitNames(), req.Circuit) {
		return 0, zkerr.Usagef("unknown circuit %q (want one of %v)", req.Circuit, nocap.CircuitNames())
	}
	timeout := p.cfg.Timeout
	if d := time.Duration(req.TimeoutMS) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	return timeout, nil
}

// Build validates the request and constructs its statement: the circuit
// is built, reps (0 means 1) override the base repetition count, and
// the PCS geometry is fitted to the circuit.
func (p *Prover) Build(req Request) (*Statement, error) {
	timeout, err := p.Check(req)
	if err != nil {
		return nil, err
	}
	if err := faultinject.Check(fiBuild); err != nil {
		return nil, err
	}
	bm, err := nocap.CircuitByName(req.Circuit, req.N)
	if err != nil {
		return nil, err
	}
	params := p.cfg.Params
	params.Reps = max(req.Reps, 1)
	return &Statement{
		Circuit: req.Circuit,
		Params:  nocap.FitParams(params, bm.Inst),
		Bench:   bm,
		timeout: timeout,
		request: p.requestKey(req),
	}, nil
}

// FromCache is the cached outcome serving a proof the cache handed out.
func FromCache(proof proofcache.Proof) Outcome {
	return Outcome{Proof: proof.Data, B64: proof.B64, Cached: true}
}

// Lookup answers a checked request from the proof cache's front index,
// before anything is built: the verified proof stored for a previous
// identical request, or a miss (always, with no cache configured). A
// miss costs one short hash and takes the full path — Build, then Prove.
func (p *Prover) Lookup(req Request) (Outcome, bool) {
	if p.cfg.Cache == nil {
		return Outcome{}, false
	}
	proof, ok := p.cfg.Cache.Lookup(p.requestKey(req))
	return FromCache(proof), ok
}

// Prove makes one attempt at the statement under its deadline. With a
// cache configured it runs the cache protocol, which files the request
// digest in the front index under the statement's stored entry — at once
// on a hit, at the leader's verified commit otherwise — so a request
// whose statement another request stored is found by Lookup next time.
// A hit returns the cached bytes; a leader proves, commits (the cache
// re-verifies before inserting and resolves the flight), and aborts the
// flight on failure; a follower — an identical prove is already in
// flight — gets that flight back instead of an outcome, for the caller
// to Wait on (under the same deadline) where waiting is cheapest.
func (p *Prover) Prove(ctx context.Context, st *Statement) (Outcome, *proofcache.Flight, error) {
	ctx, cancel := context.WithTimeout(ctx, st.timeout)
	defer cancel()
	return p.prove(ctx, st, st.solo, nocap.ProveStats{})
}

// prove is Prove for any proveFunc; ctx already carries the deadline.
func (p *Prover) prove(ctx context.Context, st *Statement, run proveFunc, credit nocap.ProveStats) (Outcome, *proofcache.Flight, error) {
	cache := p.cfg.Cache
	if cache == nil {
		out, err := attempt(ctx, run, credit)
		return out, nil, err
	}
	key := st.cacheKey()
	acq := cache.Acquire(key, st.request)
	switch {
	case acq.Hit:
		return FromCache(acq.Proof), nil, nil
	case !acq.Leader:
		return Outcome{}, acq.Flight, nil
	}
	out, err := attempt(ctx, run, credit)
	if err != nil {
		cache.Abort(key, err)
		return Outcome{}, nil, err
	}
	// Verify-on-insert: decode under the configured limits and fully
	// re-verify against the statement. The cache refuses (and counts)
	// anything that fails — a corrupt entry must be a visible soundness
	// incident, never a served proof.
	verified, err := cache.Commit(ctx, key, out.Proof, func(ctx context.Context, data []byte) error {
		proof, err := nocap.UnmarshalProofLimits(data, p.cfg.Limits)
		if err != nil {
			return err
		}
		return st.Verify(ctx, proof)
	})
	if err != nil {
		return Outcome{}, nil, err
	}
	out.Proof, out.B64 = verified.Data, verified.B64
	return out, nil, nil
}

func decode(payload json.RawMessage) (Request, error) {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return Request{}, zkerr.Usagef("prover: decode request payload: %v", err)
	}
	return req, nil
}

// BatchKey derives the coalescing key for a journaled request: jobs
// with the same circuit, size, and reps share every piece of plan state
// (proving params and hash engine are per-Prover), so they can prove
// through one shared-structure plan — and a node that just proved one
// has warm encoder/twiddle caches for the next. Payloads that fail to
// decode never batch; the solo path owns reporting that error.
func BatchKey(spec jobs.Spec) (string, bool) {
	req, err := decode(spec.Payload)
	return fmt.Sprintf("%s|%d|%d", req.Circuit, req.N, req.Reps), err == nil
}

// Exec is the jobs.Exec for one solo attempt at a journaled request.
func (p *Prover) Exec(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
	req, err := decode(spec.Payload)
	if err != nil {
		return jobs.Result{}, err
	}
	if _, err := p.Check(req); err != nil {
		return jobs.Result{}, err
	}
	if out, ok := p.Lookup(req); ok {
		return jobs.Result{Proof: out.Proof, Cached: true}, nil
	}
	st, err := p.Build(req)
	if err != nil {
		return jobs.Result{}, err
	}
	return p.jobAttempt(ctx, st, st.solo, nocap.ProveStats{})
}

// jobAttempt is prove for the jobs executors: a follower waits for its
// flight right here, holding its slot — safe, because the leader always
// holds a different slot and makes progress (with one slot no follower
// can exist: the single slot is the leader).
func (p *Prover) jobAttempt(ctx context.Context, st *Statement, run proveFunc, credit nocap.ProveStats) (jobs.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, st.timeout)
	defer cancel()
	out, flight, err := p.prove(ctx, st, run, credit)
	if err == nil && flight != nil {
		var proof proofcache.Proof
		proof, err = flight.Wait(ctx)
		out = FromCache(proof)
		if err != nil && ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The LEADER's request died, not this job: report a
			// retryable failure so the manager re-proves, instead of
			// inheriting a cancellation this job never asked for.
			err = zkerr.Internalf("prover: cache leader abandoned prove: %v", err)
		}
	}
	if err != nil {
		return jobs.Result{}, err
	}
	if out.Cached {
		return jobs.Result{Proof: out.Proof, Cached: true}, nil
	}
	stats, err := json.Marshal(out.Stats)
	if err != nil {
		return jobs.Result{}, zkerr.Internalf("prover: marshal stats: %v", err)
	}
	return jobs.Result{Proof: out.Proof, Stats: stats}, nil
}

// BatchExec is the jobs.BatchExec: it proves a coalesced batch through
// one shared-structure plan (DESIGN.md §15). Batch-mates share
// (circuit, n, reps) by construction, so the first member's request
// describes the statement. The once-per-batch work — circuit build, z
// assembly, the SpMV products and satisfaction check, the instance
// digest — runs once under the plan's own collector and is charged back
// to the members in exact proportional shares (sum(members) == aggregate);
// each member then proves with its own context, deadline, collector,
// transcript, and (with ZK) randomness, so member proofs are
// byte-identical to solo proofs of the same request. Members run the
// same cache protocol as solo attempts: the first leads the flight and
// its committed bytes serve the rest. A plan that cannot be built fails
// every member (each would have failed the same way solo).
func (p *Prover) BatchExec(ctx context.Context, members []jobs.BatchMember) []jobs.BatchOutcome {
	outs := make([]jobs.BatchOutcome, len(members))
	if len(members) == 0 {
		return outs
	}
	st, plan, shares, err := p.plan(ctx, members)
	for i, mb := range members {
		if err != nil {
			outs[i].Err = err
			continue
		}
		outs[i].Result, outs[i].Err = p.member(mb, *st, plan, shares[i])
	}
	return outs
}

// plan builds the batch's statement and shared plan, and splits the
// plan's own work into one share per member.
func (p *Prover) plan(ctx context.Context, members []jobs.BatchMember) (*Statement, *nocap.BatchPlan, []nocap.ProveStats, error) {
	req, err := decode(members[0].Spec.Payload)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := p.Build(req)
	if err != nil {
		return nil, nil, nil, err
	}
	col := nocap.NewCollector()
	plan, err := nocap.NewBatchPlanForCtx(col.Attach(ctx), st.Params, st.Bench)
	return st, plan, nocap.SplitProveStats(col.Stats(), len(members)), err
}

// member proves one batch member against the shared plan, honouring the
// member's own cancellation and its own request's deadline.
func (p *Prover) member(mb jobs.BatchMember, st Statement, plan *nocap.BatchPlan, share nocap.ProveStats) (jobs.Result, error) {
	if err := mb.Ctx.Err(); err != nil {
		return jobs.Result{}, err
	}
	req, err := decode(mb.Spec.Payload)
	if err != nil {
		return jobs.Result{}, err
	}
	if st.timeout, err = p.Check(req); err != nil {
		return jobs.Result{}, err
	}
	return p.jobAttempt(mb.Ctx, &st, plan.ProveMemberCtx, share)
}
