// Package jobs is the durable asynchronous job layer of the proving
// service (DESIGN.md §11). A Manager accepts proving jobs, journals
// every state transition to an append-only fsync'd JSONL file before
// acknowledging it, hands attempts to its executor from a bounded set of
// dispatchers, retries transient failures with capped exponential
// backoff and full jitter, sheds load through a
// consecutive-internal-failure circuit breaker, and — after a crash —
// replays the journal so every job that was ever accepted still reaches
// exactly one terminal state.
//
// An attempt is one thing: a unit of k ≥ 1 jobs handed to one executor
// (BatchExec). A solo job is a unit of one.
//
// The package deliberately does not import the prover: the executor
// produces the proof bytes, so the job machinery is testable with
// synthetic workloads and the server wires in the real pipeline.
package jobs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nocap/internal/backoff"
	"nocap/internal/faultinject"
	"nocap/internal/zkerr"
)

// Both points fire once per member before the member reaches the
// executor, under panic containment: fiAttemptExec for a unit of one
// (chaos tests use it to exercise the retry machinery without involving
// the prover), fiBatchExec for each member of a larger unit in order, so
// a test can fail the Nth member of a batch without touching its
// batch-mates.
var (
	fiAttemptExec = faultinject.Register("jobs.attempt.exec")
	fiBatchExec   = faultinject.Register("jobs.batch.exec")
)

// Sentinel errors returned by the Manager API. The serving layer maps
// them to HTTP statuses (breaker-open → 503 + Retry-After, queue-full →
// 429 + Retry-After, unknown → 404, terminal → 409, closed → 503).
var (
	ErrClosed      = errors.New("jobs: manager closed")
	ErrQueueFull   = errors.New("jobs: queue full")
	ErrBreakerOpen = errors.New("jobs: circuit breaker open")
	ErrUnknownJob  = errors.New("jobs: unknown job")
	ErrTerminal    = errors.New("jobs: job already in a terminal state")
	// ErrTenantQuota: the submitting tenant is at its live-job cap
	// (Config.TenantLimit); a per-tenant 429, never caused by other
	// tenants' jobs.
	ErrTenantQuota = errors.New("jobs: tenant job quota exceeded")
	// ErrDegraded: the data disk is failing (DegradedThreshold
	// consecutive journal/snapshot/proof writes failed), so new jobs —
	// whose acceptance contract is durability — are refused until a
	// probe write succeeds. Synchronous proving, which promises nothing
	// durable, keeps working; the server maps this to a typed 503.
	ErrDegraded = errors.New("jobs: durability degraded: data disk is failing")
	// ErrLeaseLost: a cluster worker's lease on this attempt expired
	// before a completion arrived (node death, partition, hang). The
	// attempt never reached a prover verdict, so finishAttempt refunds
	// it — journal-backed, like crash replay — and re-enqueues instead
	// of consuming retry budget or feeding the breaker.
	ErrLeaseLost = errors.New("jobs: worker lease lost")
	// ErrPoolShed: the in-process worker pool refused the attempt (tenant
	// queue full, pool stopping) before any prover saw it. Like a lost
	// lease the attempt is refunded, but nothing is journaled and no
	// counter moves: no node died, the job just waits its turn.
	ErrPoolShed = errors.New("jobs: attempt shed by the worker pool")
)

// shedRequeueDelay is how long a job the pool shed, or the batch-mates
// of a half-open probe, wait before becoming ready again.
const shedRequeueDelay = 50 * time.Millisecond

// State is a job's externally visible lifecycle state. A job moves
// accepted → running → {done, failed, cancelled}; retries move it back
// to accepted with the attempt counter advanced.
type State string

const (
	StateAccepted  State = "accepted"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is one of the three terminal states.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec describes a job. Payload is caller-defined (the HTTP server
// stores its ProveRequest here verbatim); the Manager persists it
// opaquely in the journal's accepted record so recovery can re-run it.
// Tenant attributes the job to a tenant for quota accounting; it rides
// in the accepted record, so attribution survives crashes and replay
// restores per-tenant accounting exactly.
type Spec struct {
	Payload json.RawMessage `json:"payload,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
}

// Result is a successful attempt's output: the proof bytes (persisted
// atomically under <dir>/proofs/) and optional caller-defined stats
// JSON surfaced on GET and journaled with the done record. Cached marks
// a proof served from the content-addressed cache rather than proven by
// this attempt.
type Result struct {
	Proof  []byte
	Stats  json.RawMessage
	Cached bool
}

// BatchMember is one job of a unit handed to the executor. Ctx is the
// member's own attempt context: cancelling one member (DELETE /jobs/id)
// cancels only that member's Ctx, so the executor must check it per
// member and must not let one member's cancellation or failure disturb
// its batch-mates.
type BatchMember struct {
	ID   string
	Spec Spec
	Ctx  context.Context
}

// BatchOutcome is one member's attempt outcome.
type BatchOutcome struct {
	Result Result
	Err    error
}

// BatchExec is the executor: it runs one attempt at a unit of k ≥ 1
// jobs. It must return exactly one outcome per member, index-aligned,
// and must honour each member's Ctx independently. The Manager wraps
// every call in panic containment, so a panicking attempt surfaces as a
// retryable internal error rather than a crash.
type BatchExec func(ctx context.Context, members []BatchMember) []BatchOutcome

// Exec is the solo-typed way to supply an executor: one attempt at one
// spec under that attempt's own context. Unit lifts it to a BatchExec.
type Exec func(ctx context.Context, spec Spec) (Result, error)

// Unit builds an executor from a solo recipe and a shared-plan recipe.
// It is the one place the rule is written: a unit of one runs the solo
// recipe, a larger unit the shared plan. With batch nil every member
// runs solo under its own Ctx; with solo nil every unit goes to batch.
func Unit(solo Exec, batch BatchExec) BatchExec {
	if solo == nil {
		return batch
	}
	return func(ctx context.Context, members []BatchMember) []BatchOutcome {
		if batch != nil && len(members) > 1 {
			return batch(ctx, members)
		}
		outs := make([]BatchOutcome, len(members))
		for i, mb := range members {
			mctx := mb.Ctx
			if mctx == nil {
				mctx = ctx
			}
			outs[i].Result, outs[i].Err = solo(mctx, mb.Spec)
		}
		return outs
	}
}

// Config configures a Manager. Zero fields take the documented
// defaults; Dir and an executor (Exec, BatchExec, or both) are required.
type Config struct {
	// Dir is the data directory holding journal.jsonl and proofs/.
	Dir string
	// Exec and BatchExec supply the executor, Unit(Exec, BatchExec): with
	// only Exec every job runs through it; with only BatchExec every unit
	// (k = 1 included) goes to it; with both, a unit of one runs Exec and
	// a coalesced batch BatchExec.
	Exec      Exec
	BatchExec BatchExec
	// Workers is the number of dispatcher goroutines (default 2). Each
	// blocks inside the executor for the length of an attempt, so this
	// caps the Manager's concurrent demand on it.
	Workers int
	// MaxPending bounds non-terminal jobs; Submit beyond it returns
	// ErrQueueFull (default 64).
	MaxPending int
	// MaxAttempts is the per-job attempt budget (default 4).
	MaxAttempts int
	// BackoffBase/BackoffMax shape retry backoff: the delay before
	// attempt n+1 is uniform in (0, min(BackoffMax, BackoffBase·2^(n-1))]
	// — capped exponential with full jitter (defaults 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive internal failures trip the breaker
	// (default 5); BreakerCooldown is the open → half-open delay
	// (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed seeds backoff jitter for deterministic tests (0 → time-based).
	Seed int64
	// Now overrides the breaker clock in tests.
	Now func() time.Time
	// TenantLimit, when non-nil, returns the live-job cap for a tenant
	// (<= 0 means unlimited). Submit beyond the cap returns
	// ErrTenantQuota. Evaluated under the manager lock against the
	// replay-restored per-tenant counts, so quotas hold across crashes.
	TenantLimit func(tenantID string) int
	// JournalMaxBytes / JournalMaxRecords cap the journal before the
	// background compactor rewrites it as snapshot + tail (DESIGN.md
	// §13). Zero disables that cap; with both zero no compactor runs
	// and the journal grows without bound.
	JournalMaxBytes   int64
	JournalMaxRecords int64
	// Retention is how long terminal jobs (and their proof files) stay
	// queryable after finishing; compaction garbage-collects older
	// ones. Zero keeps them forever.
	Retention time.Duration
	// CompactCheck is the compactor's cap-polling interval (default 1s).
	CompactCheck time.Duration
	// DegradedThreshold consecutive disk-write failures (journal
	// append, snapshot write, proof persist) flip the manager into
	// degraded mode, where Submit returns ErrDegraded (default 3).
	DegradedThreshold int
	// ProbeInterval is how often degraded mode probes the disk with a
	// journaled no-op write; the first success exits degraded mode
	// (default 1s).
	ProbeInterval time.Duration
	// Logf receives one structured line per degraded-mode entry/exit
	// and per compaction (default log.Printf).
	Logf func(format string, args ...any)
	// BatchKey, when set, enables the batch planner (DESIGN.md §15):
	// ready jobs whose specs map to the same key for the same tenant
	// within BatchWindow of each other coalesce into one unit, amortizing
	// shared structure. Return ok=false for specs that must not batch;
	// they dispatch as units of one. Requires BatchExec.
	BatchKey func(spec Spec) (key string, ok bool)
	// BatchWindow is how long the planner holds a group open for
	// batch-mates after its first job arrives (default 5ms); BatchMax
	// caps the batch size, flushing a group early when reached
	// (default DefaultBatchMax).
	BatchWindow time.Duration
	BatchMax    int
}

// DefaultBatchMax is the batch size cap when Config.BatchMax is zero.
const DefaultBatchMax = 8

func (c Config) withDefaults() (Config, error) {
	if c.Dir == "" {
		return c, zkerr.Usagef("jobs: Config.Dir is required")
	}
	if c.Exec == nil && c.BatchExec == nil {
		return c, zkerr.Usagef("jobs: Config.Exec or Config.BatchExec is required")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.CompactCheck <= 0 {
		c.CompactCheck = time.Second
	}
	if c.DegradedThreshold <= 0 {
		c.DegradedThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.BatchKey != nil && c.BatchExec == nil {
		return c, zkerr.Usagef("jobs: Config.BatchKey requires Config.BatchExec")
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 5 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = DefaultBatchMax
	}
	return c, nil
}

// JobInfo is the externally visible snapshot of one job; its JSON form
// is what GET /jobs/{id} returns.
type JobInfo struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Tenant      string `json:"tenant,omitempty"`
	Attempts    int    `json:"attempts"`
	MaxAttempts int    `json:"max_attempts"`
	Recovered   bool   `json:"recovered,omitempty"`
	// Cached marks a done job whose proof came from the proof cache.
	Cached bool `json:"cached,omitempty"`
	// CancelRequested marks a non-terminal job with a cancel in flight
	// (the running attempt's context is cancelled; the job terminalizes
	// when it unwinds).
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// JournalLost marks a terminal state that could not be journaled
	// (persistent append failure): the state shown here is not durable,
	// and a restart will replay the job from its last durable record.
	JournalLost bool            `json:"journal_lost,omitempty"`
	Error       string          `json:"error,omitempty"`
	Code        string          `json:"code,omitempty"`
	ProofBytes  int             `json:"proof_bytes,omitempty"`
	Stats       json.RawMessage `json:"stats,omitempty"`
}

// Metrics is a point-in-time snapshot for the metrics endpoint.
type Metrics struct {
	Accepted            int64
	Done                int64
	Failed              int64
	Cancelled           int64
	Retries             int64
	Active              int64
	RecoveredJobs       int64
	TornRecords         int64
	JournalRecords      int64
	JournalBytes        int64
	JournalAppendErrors int64
	JournalLostJobs     int64
	BreakerState        BreakerState
	BreakerTrips        int64
	// CorruptRecords counts journal records skipped on replay for bad
	// checksums or bogus content (distinct from torn tails).
	CorruptRecords int64
	// Compactions / SnapshotBytes / RetiredJobs describe the compactor:
	// completed cycles, the live snapshot's size, and terminal jobs
	// garbage-collected past the retention window.
	Compactions   int64
	SnapshotBytes int64
	RetiredJobs   int64
	// OrphansSwept counts stranded temp files and unreferenced proof
	// files deleted during recovery.
	OrphansSwept int64
	// Degraded state: whether Submit is refusing jobs over disk
	// failures, how many times that mode was entered, the current
	// consecutive-failure streak, and probe writes attempted.
	Degraded        bool
	DegradedEntries int64
	DiskFailStreak  int64
	ProbeWrites     int64
	// Batch planner counters (DESIGN.md §15): batched attempts
	// dispatched, jobs proved through them, the most recent batch's
	// size, and jobs that skipped redundant shared-structure work
	// because a batch-mate already did it (size−1 per batch).
	Batches             int64
	BatchJobs           int64
	LastBatchSize       int64
	BatchAmortizedSaves int64
	// LeaseReassigns counts attempts refunded because a cluster
	// worker's lease expired (node death → journal-backed reassignment).
	LeaseReassigns int64
}

// jobRec is the Manager's in-memory view of one job.
type jobRec struct {
	id              string
	spec            Spec
	state           State
	attempt         int
	lastErr         string
	lastCode        string
	recovered       bool
	cached          bool
	cancelRequested bool
	journalLost     bool
	proofFile       string
	proofBytes      int
	stats           json.RawMessage
	terminalAt      time.Time          // when the job terminalized (retention GC clock)
	cancel          context.CancelFunc // set while an attempt runs
	timer           *time.Timer        // pending retry / requeue timer
	// shed: the pool shed this job's last attempt after its running
	// record was journaled; the re-dispatch reuses that record.
	shed bool
	done chan struct{} // closed on terminal transition
}

func (j *jobRec) terminal() bool { return j.state.Terminal() }

func (j *jobRec) info(maxAttempts int) JobInfo {
	return JobInfo{
		ID:              j.id,
		State:           j.state,
		Tenant:          j.spec.Tenant,
		Attempts:        j.attempt,
		MaxAttempts:     maxAttempts,
		Recovered:       j.recovered,
		Cached:          j.cached,
		CancelRequested: j.cancelRequested && !j.terminal(),
		JournalLost:     j.journalLost,
		Error:           j.lastErr,
		Code:            j.lastCode,
		ProofBytes:      j.proofBytes,
		Stats:           j.stats,
	}
}

// Manager is the durable job manager. Open constructs one; all methods
// are safe for concurrent use.
type Manager struct {
	cfg Config
	// unit is the executor every attempt runs through.
	unit       BatchExec
	journal    *journal
	breaker    *breaker
	baseCtx    context.Context
	cancelBase context.CancelFunc
	quit       chan struct{}
	ready      chan *jobRec
	// batches feeds coalesced units from the batcher goroutine to the
	// workers; nil when batching is disabled (no BatchKey), in which
	// case workers consume ready directly, one job per unit.
	batches chan []*jobRec
	wg      sync.WaitGroup

	// rand seeds retry jitter; guarded by mu.
	rand *rand.Rand

	mu      sync.Mutex
	byID    map[string]*jobRec
	order   []*jobRec
	closing bool
	// activeTenant counts live (non-terminal) jobs per tenant, restored
	// by replay so TenantLimit quotas survive crashes.
	activeTenant map[string]int64

	active      int64
	accepted    int64
	doneCount   int64
	failedCount int64
	cancelCount int64
	retries     int64
	recovered   int64
	torn        int64
	journalErrs int64
	journalLost int64

	// Durable-state lifecycle counters (DESIGN.md §13), under mu.
	corruptRecs   int64
	orphansSwept  int64
	compactions   int64
	snapshotBytes int64
	retired       int64
	probeWrites   int64

	// Degraded-mode state machine, under mu: diskFails is the
	// consecutive disk-write failure streak; at DegradedThreshold the
	// manager enters degraded mode, and the first successful disk write
	// (probe or otherwise) exits it.
	diskFails       int64
	degraded        bool
	degradedSince   time.Time
	degradedEntries int64

	// Batch planner counters (under mu).
	batchCount    int64
	batchJobs     int64
	lastBatchSize int64
	batchSaves    int64

	leaseReassigns int64

	// compactMu serializes compaction cycles (it is never taken while
	// holding mu).
	compactMu sync.Mutex
}

// Open opens (creating if absent) the data directory, replays the
// journal — re-enqueueing every job that was accepted or running at the
// last shutdown or crash — and starts the dispatcher pool.
func Open(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	jl, info, err := openJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	baseCtx, cancelBase := context.WithCancel(context.Background())
	m := &Manager{
		cfg:          cfg,
		unit:         Unit(cfg.Exec, cfg.BatchExec),
		journal:      jl,
		breaker:      newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
		baseCtx:      baseCtx,
		cancelBase:   cancelBase,
		quit:         make(chan struct{}),
		ready:        make(chan *jobRec, 2*cfg.MaxPending+16),
		rand:         rand.New(rand.NewSource(cfg.Seed)),
		byID:         make(map[string]*jobRec),
		activeTenant: make(map[string]int64),
	}
	m.torn = info.torn
	m.corruptRecs = info.corrupt
	m.orphansSwept = info.orphanTemps
	if err := m.replay(info); err != nil {
		jl.close()
		cancelBase()
		return nil, err
	}
	m.orphansSwept += m.sweepOrphanProofs()
	if cfg.BatchKey != nil {
		m.batches = make(chan []*jobRec, 2*cfg.MaxPending+16)
		m.wg.Add(1)
		go m.batcher()
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if cfg.JournalMaxBytes > 0 || cfg.JournalMaxRecords > 0 {
		m.wg.Add(1)
		go m.compactor()
	}
	m.wg.Add(1)
	go m.prober()
	for _, j := range m.order {
		if !j.terminal() {
			m.enqueue(j)
		}
	}
	return m, nil
}

// replay rebuilds the job table: snapshot first (the folded state of
// every record up to its BaseSeq), then the journal tail applied in
// order, later states overriding earlier ones. A non-accepted record
// for an unknown job means the journal lost the accepted record — in a
// checksummed journal that is a corrupt (or corrupt-skipped) record,
// so it is itself skipped and counted rather than failing the whole
// replay: one bad sector must not strand thousands of healthy jobs.
func (m *Manager) replay(info replayInfo) error {
	if info.snap != nil {
		for _, sj := range info.snap.Jobs {
			j := &jobRec{
				id: sj.ID, state: sj.State, spec: sj.Spec, attempt: sj.Attempt,
				lastErr: sj.Error, lastCode: sj.Code, cached: sj.Cached,
				proofFile: sj.ProofFile, proofBytes: sj.ProofBytes, stats: sj.Stats,
				done: make(chan struct{}),
			}
			if sj.TerminalAt != "" {
				if t, err := time.Parse(time.RFC3339Nano, sj.TerminalAt); err == nil {
					j.terminalAt = t
				}
			}
			m.byID[j.id] = j
			m.order = append(m.order, j)
		}
	}
	for _, r := range info.records {
		j := m.byID[r.Job]
		if j == nil {
			if r.State != recAccepted {
				m.corruptRecs++
				m.logf("nocap-jobs event=journal_orphan_record seq=%d job=%s state=%s", r.Seq, r.Job, r.State)
				continue
			}
			j = &jobRec{id: r.Job, done: make(chan struct{})}
			if r.Spec != nil {
				j.spec = *r.Spec
			}
			m.byID[r.Job] = j
			m.order = append(m.order, j)
		}
		switch r.State {
		case recAccepted:
			j.state = StateAccepted
			j.attempt = r.Attempt
		case recRunning:
			j.state = StateRunning
			j.attempt = r.Attempt
		case recRetrying:
			j.state = StateAccepted
			j.attempt = r.Attempt
			j.lastErr, j.lastCode = r.Error, r.Code
			m.retries++
		case recDone:
			j.state = StateDone
			j.attempt = r.Attempt
			j.proofFile = r.ProofFile
			j.proofBytes = r.ProofBytes
			j.stats = r.Stats
			j.cached = r.Cached
			j.lastErr, j.lastCode = "", ""
		case recFailed:
			j.state = StateFailed
			j.attempt = r.Attempt
			j.lastErr, j.lastCode = r.Error, r.Code
		case recCancelled:
			j.state = StateCancelled
			j.attempt = r.Attempt
			j.lastErr, j.lastCode = r.Error, r.Code
		default:
			// decodeRecord admits only known states; recProbe records are
			// dropped by parseJournal before they get here.
			return zkerr.Malformedf("jobs: journal seq %d: unknown state %q", r.Seq, r.State)
		}
		if j.state.Terminal() {
			if t, err := time.Parse(time.RFC3339Nano, r.T); err == nil {
				j.terminalAt = t
			}
		}
	}
	now := time.Now()
	for _, j := range m.order {
		m.accepted++
		if j.state == StateRunning {
			// The attempt was in flight at the crash: refund it so the
			// interruption does not consume retry budget, and mark the
			// job recovered for observability.
			if j.attempt > 0 {
				j.attempt--
			}
			j.state = StateAccepted
			j.recovered = true
			m.recovered++
		}
		switch j.state {
		case StateDone:
			m.doneCount++
		case StateFailed:
			m.failedCount++
		case StateCancelled:
			m.cancelCount++
		}
		if j.terminal() {
			if j.terminalAt.IsZero() {
				// A terminal record whose timestamp does not parse: date
				// it now so the retention clock still starts ticking.
				j.terminalAt = now
			}
			close(j.done)
		} else {
			m.active++
			m.activeTenant[j.spec.Tenant]++
		}
	}
	return nil
}

// sweepOrphanProofs deletes proof files no loaded job references: a
// crash between a compaction's snapshot rename and its proof-file GC
// (or between a proof persist and its journal record, when the job
// later resolved differently) strands them. Runs once at Open, before
// workers start, so no attempt can be writing proofs concurrently.
func (m *Manager) sweepOrphanProofs() int64 {
	referenced := make(map[string]struct{}, len(m.byID))
	for _, j := range m.byID {
		if j.proofFile != "" {
			referenced[filepath.Base(j.proofFile)] = struct{}{}
		}
	}
	dir := filepath.Join(m.cfg.Dir, proofsDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := referenced[e.Name()]; ok {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	if n > 0 {
		m.logf("nocap-jobs event=orphan_proofs_swept count=%d", n)
	}
	return n
}

// logf emits one structured operator log line.
func (m *Manager) logf(format string, args ...any) {
	m.cfg.Logf(format, args...)
}

// appendLocked journals one record through the degraded-mode state
// machine: every disk failure feeds the consecutive-failure streak,
// every success resets it (and exits degraded mode if entered). Caller
// holds m.mu.
func (m *Manager) appendLocked(r record) error {
	err := m.journal.append(r)
	if err != nil {
		m.journalErrs++
		m.noteDiskFailureLocked("journal.append", err)
		return err
	}
	m.noteDiskSuccessLocked()
	return nil
}

// noteDiskFailureLocked records one failed disk write; at
// DegradedThreshold consecutive failures the manager enters degraded
// mode. Caller holds m.mu.
func (m *Manager) noteDiskFailureLocked(op string, err error) {
	m.diskFails++
	if !m.degraded && m.diskFails >= int64(m.cfg.DegradedThreshold) {
		m.degraded = true
		m.degradedSince = time.Now()
		m.degradedEntries++
		m.logf("nocap-jobs event=degraded_enter trigger=%s consecutive_failures=%d err=%q", op, m.diskFails, err)
	}
}

// noteDiskSuccessLocked records one successful disk write, resetting
// the failure streak and exiting degraded mode. Caller holds m.mu.
func (m *Manager) noteDiskSuccessLocked() {
	m.diskFails = 0
	if m.degraded {
		m.degraded = false
		m.logf("nocap-jobs event=degraded_exit duration=%s", time.Since(m.degradedSince).Round(time.Millisecond))
	}
}

// Degraded reports whether the manager is refusing new jobs over disk
// failures, and for how long it has been.
func (m *Manager) Degraded() (bool, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.degraded {
		return false, 0
	}
	return true, time.Since(m.degradedSince)
}

// prober is the degraded-mode recovery loop: while degraded, append a
// no-op probe record through the real journal path every ProbeInterval;
// the first success flips the manager back to healthy (inside
// appendLocked). Replay skips probe records, so they cost one journal
// line until the next compaction.
func (m *Manager) prober() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
			m.mu.Lock()
			if m.degraded && !m.closing {
				m.probeWrites++
				_ = m.appendLocked(record{Job: probeJobID, State: recProbe})
			}
			m.mu.Unlock()
		}
	}
}

// newID returns a fresh job identifier.
func newID() string {
	var b [9]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Submit accepts a job, journaling (and fsyncing) its accepted record
// before returning the id: an acknowledged job survives any crash. It
// sheds with ErrBreakerOpen while the breaker is open and ErrQueueFull
// when MaxPending non-terminal jobs already exist.
func (m *Manager) Submit(spec Spec) (string, error) {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return "", ErrClosed
	}
	if m.degraded {
		m.mu.Unlock()
		return "", ErrDegraded
	}
	if ok, _ := m.breaker.AllowSubmit(); !ok {
		m.mu.Unlock()
		return "", ErrBreakerOpen
	}
	if m.active >= int64(m.cfg.MaxPending) {
		m.mu.Unlock()
		return "", ErrQueueFull
	}
	if m.cfg.TenantLimit != nil {
		if lim := m.cfg.TenantLimit(spec.Tenant); lim > 0 && m.activeTenant[spec.Tenant] >= int64(lim) {
			m.mu.Unlock()
			return "", ErrTenantQuota
		}
	}
	j := &jobRec{id: newID(), spec: spec, state: StateAccepted, done: make(chan struct{})}
	if err := m.appendLocked(record{Job: j.id, State: recAccepted, Spec: &j.spec}); err != nil {
		m.mu.Unlock()
		return "", err
	}
	m.byID[j.id] = j
	m.order = append(m.order, j)
	m.active++
	m.activeTenant[spec.Tenant]++
	m.accepted++
	m.mu.Unlock()
	m.enqueue(j)
	return j.id, nil
}

// Get returns a job's current snapshot.
func (m *Manager) Get(id string) (JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.byID[id]
	if j == nil {
		return JobInfo{}, ErrUnknownJob
	}
	return j.info(m.cfg.MaxAttempts), nil
}

// List returns snapshots of every known job in submission order.
func (m *Manager) List() []JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobInfo, 0, len(m.order))
	for _, j := range m.order {
		out = append(out, j.info(m.cfg.MaxAttempts))
	}
	return out
}

// Proof returns the persisted proof bytes of a done job.
func (m *Manager) Proof(id string) ([]byte, error) {
	m.mu.Lock()
	j := m.byID[id]
	if j == nil {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if j.state != StateDone {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: job %s is %s, not done", id, j.state)
	}
	path := j.proofFile
	m.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, zkerr.Internalf("jobs: read proof for %s: %v", id, err)
	}
	return data, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (JobInfo, error) {
	m.mu.Lock()
	j := m.byID[id]
	m.mu.Unlock()
	if j == nil {
		return JobInfo{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
}

// Cancel requests cancellation and returns the job's snapshot after
// the request took effect. It is idempotent: a queued job terminalizes
// immediately, a running job has its attempt context cancelled (it
// terminalizes when the attempt unwinds — unless the proof had already
// completed, in which case done wins; cancellation is best-effort, not
// retroactive), and repeating a cancel — against an already-cancelled
// job or one with a cancel still in flight — succeeds with the current
// snapshot. Only a job that reached done or failed FIRST answers
// ErrTerminal: the caller's cancel lost the race to a different outcome,
// which is information, not noise.
func (m *Manager) Cancel(id string) (JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.byID[id]
	if j == nil {
		return JobInfo{}, ErrUnknownJob
	}
	if j.state == StateCancelled {
		return j.info(m.cfg.MaxAttempts), nil
	}
	if j.terminal() {
		return j.info(m.cfg.MaxAttempts), ErrTerminal
	}
	j.cancelRequested = true
	if j.state == StateRunning {
		if j.cancel != nil {
			j.cancel()
		}
		return j.info(m.cfg.MaxAttempts), nil
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	m.terminalizeLocked(j, StateCancelled, "cancelled before execution", "")
	return j.info(m.cfg.MaxAttempts), nil
}

// ActiveByTenant snapshots the live (non-terminal) job count per
// tenant, as restored by replay and maintained since.
func (m *Manager) ActiveByTenant() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.activeTenant))
	for id, n := range m.activeTenant {
		if n > 0 {
			out[id] = n
		}
	}
	return out
}

// BreakerState returns the breaker's current state and, when open, the
// remaining cooldown (for Retry-After hints).
func (m *Manager) BreakerState() (BreakerState, time.Duration) {
	if ok, remaining := m.breaker.AllowSubmit(); !ok {
		return BreakerOpen, remaining
	}
	return m.breaker.State(), 0
}

// Metrics returns a consistent counter snapshot.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Metrics{
		Accepted:            m.accepted,
		Done:                m.doneCount,
		Failed:              m.failedCount,
		Cancelled:           m.cancelCount,
		Retries:             m.retries,
		Active:              m.active,
		RecoveredJobs:       m.recovered,
		TornRecords:         m.torn,
		JournalRecords:      m.journal.records,
		JournalBytes:        m.journal.bytes,
		JournalAppendErrors: m.journalErrs,
		JournalLostJobs:     m.journalLost,
		BreakerState:        m.breaker.State(),
		BreakerTrips:        m.breaker.Trips(),
		CorruptRecords:      m.corruptRecs,
		Compactions:         m.compactions,
		SnapshotBytes:       m.snapshotBytes,
		RetiredJobs:         m.retired,
		OrphansSwept:        m.orphansSwept,
		Degraded:            m.degraded,
		DegradedEntries:     m.degradedEntries,
		DiskFailStreak:      m.diskFails,
		ProbeWrites:         m.probeWrites,
		Batches:             m.batchCount,
		BatchJobs:           m.batchJobs,
		LastBatchSize:       m.lastBatchSize,
		BatchAmortizedSaves: m.batchSaves,
		LeaseReassigns:      m.leaseReassigns,
	}
}

// Close shuts the Manager down: no new submissions, pending retry
// timers stopped, running attempts cancelled, dispatchers drained, the
// journal closed. Attempts interrupted by Close are NOT journaled as
// terminal — their last journal record stays "running"/"accepted", so
// the next Open re-enqueues them; that is the crash-equivalence that
// makes kill -9 and graceful shutdown recover identically.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	for _, j := range m.order {
		if j.timer != nil {
			j.timer.Stop()
			j.timer = nil
		}
	}
	m.mu.Unlock()

	m.cancelBase()
	close(m.quit)
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var waitErr error
	select {
	case <-drained:
	case <-ctx.Done():
		waitErr = ctx.Err()
	}
	m.mu.Lock()
	err := m.journal.close()
	m.mu.Unlock()
	if waitErr != nil {
		return waitErr
	}
	return err
}

// enqueue places a job on the ready channel, deferring briefly if the
// channel is momentarily full.
func (m *Manager) enqueue(j *jobRec) {
	m.mu.Lock()
	if m.closing || j.terminal() {
		m.mu.Unlock()
		return
	}
	j.timer = nil
	m.mu.Unlock()
	select {
	case m.ready <- j:
	default:
		t := time.AfterFunc(25*time.Millisecond, func() { m.enqueue(j) })
		m.mu.Lock()
		if m.closing || j.terminal() {
			t.Stop()
		} else {
			j.timer = t
		}
		m.mu.Unlock()
	}
}

// requeueAfter re-enqueues a job after d (breaker-denied dispatch, or a
// probe's batch-mates).
func (m *Manager) requeueAfter(j *jobRec, d time.Duration) {
	m.mu.Lock()
	if m.closing || j.terminal() {
		m.mu.Unlock()
		return
	}
	j.timer = time.AfterFunc(d, func() { m.enqueue(j) })
	m.mu.Unlock()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	ready := m.ready
	if m.batches != nil {
		ready = nil // the batcher goroutine owns ready
	}
	for {
		select {
		case <-m.quit:
			return
		case j := <-ready:
			m.dispatch([]*jobRec{j})
		case unit := <-m.batches:
			m.dispatch(unit)
		}
	}
}

// batcher sits between the ready channel and the workers when batching
// is enabled (DESIGN.md §15). It groups ready jobs by (tenant, batch
// key); a group flushes to the workers when it reaches BatchMax or when
// BatchWindow has elapsed since its first member arrived, whichever is
// sooner. Unbatchable jobs (BatchKey ok=false) flush immediately as
// singletons. Tenant is part of the group key, so a batch never mixes
// tenants and fairness/quota accounting stays per-tenant.
func (m *Manager) batcher() {
	defer m.wg.Done()
	type group struct {
		jobs     []*jobRec
		deadline time.Time
	}
	pending := make(map[string]*group)
	var order []string // group keys in arrival order, for deterministic flushing
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	timerSet := false

	emit := func(jobs []*jobRec) bool {
		select {
		case m.batches <- jobs:
			return true
		case <-m.quit:
			// Dropped batches stay journaled as accepted/retrying; the
			// next Open re-enqueues them (crash equivalence).
			return false
		}
	}
	flush := func(gk string) bool {
		g := pending[gk]
		delete(pending, gk)
		for i, k := range order {
			if k == gk {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		return emit(g.jobs)
	}
	rearm := func() {
		if timerSet {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timerSet = false
		}
		var earliest time.Time
		for _, k := range order {
			if g := pending[k]; earliest.IsZero() || g.deadline.Before(earliest) {
				earliest = g.deadline
			}
		}
		if !earliest.IsZero() {
			d := time.Until(earliest)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
			timerSet = true
		}
	}

	for {
		select {
		case <-m.quit:
			return
		case j := <-m.ready:
			key, ok := m.cfg.BatchKey(j.spec)
			if !ok {
				if !emit([]*jobRec{j}) {
					return
				}
				continue
			}
			gk := j.spec.Tenant + "\x00" + key
			g := pending[gk]
			if g == nil {
				g = &group{deadline: time.Now().Add(m.cfg.BatchWindow)}
				pending[gk] = g
				order = append(order, gk)
			}
			g.jobs = append(g.jobs, j)
			if len(g.jobs) >= m.cfg.BatchMax {
				if !flush(gk) {
					return
				}
			}
			rearm()
		case <-timer.C:
			timerSet = false
			now := time.Now()
			for _, k := range append([]string(nil), order...) {
				if g := pending[k]; g != nil && !g.deadline.After(now) {
					if !flush(k) {
						return
					}
				}
			}
			rearm()
		}
	}
}

// dispatch takes one breaker grant for a ready unit and runs it. A
// half-open probe must be a single attempt, so the first member probes
// alone and its batch-mates requeue.
func (m *Manager) dispatch(unit []*jobRec) {
	ok, probe := m.breaker.AllowAttempt()
	if !ok {
		d := m.breakerRetryDelay()
		for _, j := range unit {
			m.requeueAfter(j, d)
		}
		return
	}
	if probe {
		for _, j := range unit[1:] {
			m.requeueAfter(j, shedRequeueDelay)
		}
		unit = unit[:1]
	}
	m.run(unit, probe)
}

// breakerRetryDelay is how long a breaker-denied dispatch waits before
// re-enqueueing: a quarter of the cooldown, clamped to [10ms, 500ms].
func (m *Manager) breakerRetryDelay() time.Duration {
	d := m.cfg.BreakerCooldown / 4
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

// run executes one attempt at a unit: journal every live member running
// (fsync'd) under one lock hold, give each member its own cancellable
// context, call the executor once, then classify every member's outcome.
// A member that is already terminal or running is silently dropped (its
// state owner wins); a member whose running record cannot be journaled
// finishes with that error while its batch-mates proceed. probe says the
// breaker grant holds the half-open probe slot (the unit is then one
// job); every exit must either reach a Success/Failure verdict or
// abandon the probe.
func (m *Manager) run(unit []*jobRec, probe bool) {
	type attempt struct {
		j      *jobRec
		ctx    context.Context
		cancel context.CancelFunc
	}
	var live []attempt
	var unjournaled []*jobRec
	var journalErr error
	m.mu.Lock()
	for _, j := range unit {
		if m.closing || j.terminal() || j.state == StateRunning {
			continue
		}
		j.attempt++
		if j.shed {
			j.shed = false
		} else if err := m.appendLocked(record{Job: j.id, State: recRunning, Attempt: j.attempt}); err != nil {
			unjournaled = append(unjournaled, j)
			journalErr = err
			continue
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		j.state = StateRunning
		if j.cancelRequested {
			cancel() // Cancel raced the dispatch; make this member a no-op.
		}
		live = append(live, attempt{j, ctx, cancel})
	}
	m.mu.Unlock()
	if probe && len(live)+len(unjournaled) == 0 {
		m.breaker.abandonProbe()
		return
	}
	for _, j := range unjournaled {
		m.finishAttempt(j, Result{}, journalErr, probe)
	}

	// Per-member fault injection: a chaos-failed member finishes with the
	// injected error without ever reaching the executor, and its
	// batch-mates proceed without it.
	fi := fiAttemptExec
	if len(unit) > 1 {
		fi = fiBatchExec
	}
	running := live[:0]
	members := make([]BatchMember, 0, len(live))
	for _, a := range live {
		if ferr := injected(fi); ferr != nil {
			a.cancel()
			m.finishAttempt(a.j, Result{}, ferr, probe)
			continue
		}
		running = append(running, a)
		members = append(members, BatchMember{ID: a.j.id, Spec: a.j.spec, Ctx: a.ctx})
	}
	if len(running) == 0 {
		return
	}
	if len(unit) > 1 {
		m.mu.Lock()
		m.batchCount++
		m.batchJobs += int64(len(running))
		m.lastBatchSize = int64(len(running))
		m.batchSaves += int64(len(running) - 1)
		m.mu.Unlock()
	}

	outs := m.exec(members)
	for i, a := range running {
		a.cancel()
		m.finishAttempt(a.j, outs[i].Result, outs[i].Err, probe)
	}
}

// injected checks a per-member fault point under the same containment
// as the executor: a panic-kind plan is an attempt failure, not a crash.
func injected(point string) (err error) {
	defer zkerr.RecoverTo(&err, "jobs: attempt")
	return faultinject.Check(point)
}

// exec is the panic-containment boundary around the executor; it
// guarantees exactly one outcome per member, turning a panic or a
// miscounted return into a per-member internal error.
func (m *Manager) exec(members []BatchMember) []BatchOutcome {
	outs, err := func() (outs []BatchOutcome, err error) {
		defer zkerr.RecoverTo(&err, "jobs: attempt")
		return m.unit(m.baseCtx, members), nil
	}()
	if err == nil && len(outs) != len(members) {
		err = zkerr.Internalf("jobs: executor returned %d outcomes for %d members", len(outs), len(members))
	}
	if err != nil {
		outs = make([]BatchOutcome, len(members))
		for i := range outs {
			outs[i] = BatchOutcome{Err: err}
		}
	}
	return outs
}

// finishAttempt classifies an attempt's outcome and journals the
// resulting transition. The proof file is written (atomically) before
// the done record, so a done record always points at a complete proof.
// probe, when true, is released by whichever breaker verdict
// (Success/Failure) this attempt reaches, or abandoned on the paths
// that reach neither.
func (m *Manager) finishAttempt(j *jobRec, res Result, err error, probe bool) {
	var proofFile string
	var persistErr error
	if err == nil {
		proofFile = filepath.Join(m.cfg.Dir, proofsDirName, j.id+".bin")
		if werr := writeFileAtomic(proofFile, res.Proof, 0o644, fiProofPersist); werr != nil {
			persistErr = werr
			err = zkerr.Internalf("jobs: persist proof for %s: %v", j.id, werr)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if persistErr != nil {
		// A failed proof persist is a disk failure like any other; feed
		// the degraded-mode streak.
		m.noteDiskFailureLocked("proof.persist", persistErr)
	}
	if j.terminal() {
		if probe {
			m.breaker.abandonProbe()
		}
		return
	}
	j.cancel = nil

	if m.closing && err != nil && errors.Is(err, context.Canceled) && !j.cancelRequested {
		// Shutdown interrupted the attempt: refund it and leave the
		// journal untouched so the next Open re-enqueues from the
		// running record, exactly as after a crash.
		j.attempt--
		j.state = StateAccepted
		if probe {
			m.breaker.abandonProbe()
		}
		return
	}

	if lost, shed := errors.Is(err, ErrLeaseLost), errors.Is(err, ErrPoolShed); (lost || shed) && !j.cancelRequested {
		// The attempt never reached a prover verdict, so it is refunded
		// and the breaker sees nothing: neither a dead node nor a full
		// pool is proving's failure.
		j.attempt--
		j.state = StateAccepted
		delay := shedRequeueDelay
		if shed {
			// The pool refused the attempt: the job just waits its turn.
			// Nothing is journaled — the running record already on disk
			// replays to this same refunded state, and the re-dispatch
			// reuses it — and no retry or lease counter moves.
			j.shed = true
		} else {
			// A worker node died (or partitioned) holding the lease: the
			// refund is journaled as a retry at the decremented attempt
			// number so a crash mid-reassignment replays to the same
			// state, and the job re-enqueues after a short jittered delay
			// for another node to steal.
			j.lastErr, j.lastCode = err.Error(), "lease-lost"
			m.retries++
			m.leaseReassigns++
			_ = m.appendLocked(record{
				Job: j.id, State: recRetrying, Attempt: j.attempt,
				Error: err.Error(), Code: "lease-lost",
			})
			delay = m.backoffFor(1)
		}
		if probe {
			m.breaker.abandonProbe()
		}
		if !m.closing {
			j.timer = time.AfterFunc(delay, func() { m.enqueue(j) })
		}
		return
	}

	if err == nil {
		m.breaker.Success()
		j.proofFile = proofFile
		j.proofBytes = len(res.Proof)
		j.stats = res.Stats
		j.cached = res.Cached
		j.lastErr, j.lastCode = "", ""
		m.appendTerminalLocked(j, record{
			Job: j.id, State: recDone, Attempt: j.attempt,
			ProofFile: proofFile, ProofBytes: j.proofBytes, Stats: res.Stats, Cached: res.Cached,
		})
		m.markTerminalLocked(j, StateDone)
		return
	}

	code := zkerr.Code(err)
	m.breaker.Failure(code == "internal")

	if j.cancelRequested || errors.Is(err, context.Canceled) {
		m.terminalizeLocked(j, StateCancelled, err.Error(), code)
		return
	}
	if zkerr.Retryable(err) && j.attempt < m.cfg.MaxAttempts {
		backoff := m.backoffFor(j.attempt)
		j.state = StateAccepted
		j.lastErr, j.lastCode = err.Error(), code
		m.retries++
		_ = m.appendLocked(record{
			Job: j.id, State: recRetrying, Attempt: j.attempt,
			Error: err.Error(), Code: code, BackoffMS: backoff.Milliseconds(),
		})
		if m.closing {
			return
		}
		j.timer = time.AfterFunc(backoff, func() { m.enqueue(j) })
		return
	}
	m.terminalizeLocked(j, StateFailed, err.Error(), code)
}

// terminalizeLocked journals and applies a terminal failure-side
// transition. Caller holds m.mu.
func (m *Manager) terminalizeLocked(j *jobRec, st State, msg, code string) {
	j.lastErr, j.lastCode = msg, code
	rs := recFailed
	if st == StateCancelled {
		rs = recCancelled
	}
	m.appendTerminalLocked(j, record{Job: j.id, State: rs, Attempt: j.attempt, Error: msg, Code: code})
	m.markTerminalLocked(j, st)
}

// appendTerminalLocked journals a terminal record, retrying once so a
// transient fsync hiccup cannot split the durable and in-memory views.
// If both tries fail the job is marked journalLost: its terminal state
// is observable now but not journaled, so a restart will replay it from
// its previous record and re-run it — a done job re-proves (benign, the
// proof file is rewritten atomically), but a failed/cancelled job can
// resurrect with a different outcome. GET surfaces journal_lost so
// clients and operators can see exactly which jobs carry that hazard,
// and the journal-lost counter makes a dying data disk alertable.
// Caller holds m.mu.
func (m *Manager) appendTerminalLocked(j *jobRec, r record) {
	err := m.appendLocked(r)
	if err != nil {
		err = m.appendLocked(r)
	}
	if err != nil {
		j.journalLost = true
		m.journalLost++
	}
}

// markTerminalLocked applies the in-memory side of a terminal
// transition exactly once. Caller holds m.mu and has already journaled.
func (m *Manager) markTerminalLocked(j *jobRec, st State) {
	j.state = st
	j.terminalAt = time.Now()
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	m.active--
	if m.activeTenant[j.spec.Tenant] > 0 {
		m.activeTenant[j.spec.Tenant]--
	}
	switch st {
	case StateDone:
		m.doneCount++
	case StateFailed:
		m.failedCount++
	case StateCancelled:
		m.cancelCount++
	}
	close(j.done)
}

// backoffFor draws the full-jitter retry delay after the given number
// of attempts from the manager's seeded source. Caller holds m.mu.
func (m *Manager) backoffFor(attempt int) time.Duration {
	return backoff.Exponential(m.rand, m.cfg.BackoffBase, m.cfg.BackoffMax, attempt)
}
