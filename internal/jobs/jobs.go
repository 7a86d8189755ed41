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
	"sync"
	"time"

	"nocap/internal/zkerr"
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
// member's own attempt context, always set: cancelling one member
// (DELETE /jobs/id) cancels only that member's Ctx, so the executor must
// check it per member and must not let one member's cancellation or
// failure disturb its batch-mates.
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
			outs[i].Result, outs[i].Err = solo(mb.Ctx, mb.Spec)
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
	// they dispatch as units of one.
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
	shed            bool               // last attempt was shed after its running record was journaled; the re-dispatch reuses that record
	done            chan struct{}      // closed on terminal transition
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
	cfg        Config
	unit       BatchExec // the executor every attempt runs through
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

	// stats holds the counters and gauges Metrics reports, under mu —
	// among them the live-job count MaxPending bounds and the
	// degraded-mode state machine (DESIGN.md §13): DiskFailStreak is the
	// consecutive disk-write failure streak; at DegradedThreshold the
	// manager enters degraded mode (Degraded, since degradedSince), and
	// the first successful disk write (probe or otherwise) exits it.
	stats         Metrics
	degradedSince time.Time

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
	m.stats.TornRecords = info.torn
	m.stats.CorruptRecords = info.corrupt
	m.stats.OrphansSwept = info.orphanTemps
	if err := m.replay(info); err != nil {
		jl.close()
		cancelBase()
		return nil, err
	}
	m.stats.OrphansSwept += m.sweepOrphanProofs()
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

// logf emits one structured operator log line.
func (m *Manager) logf(format string, args ...any) {
	m.cfg.Logf(format, args...)
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
	if m.stats.Degraded {
		m.mu.Unlock()
		return "", ErrDegraded
	}
	if ok, _ := m.breaker.AllowSubmit(); !ok {
		m.mu.Unlock()
		return "", ErrBreakerOpen
	}
	if m.stats.Active >= int64(m.cfg.MaxPending) {
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
	m.stats.Active++
	m.activeTenant[spec.Tenant]++
	m.stats.Accepted++
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
	out := m.stats
	out.JournalRecords, out.JournalBytes = m.journal.records, m.journal.bytes
	out.BreakerState, out.BreakerTrips = m.breaker.State(), m.breaker.Trips()
	return out
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
