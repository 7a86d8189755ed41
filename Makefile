GO ?= go
FUZZTIME ?= 10s

FUZZ_TARGETS = \
	./internal/spartan:FuzzUnmarshalProof \
	./internal/pcs:FuzzReadOpeningProof \
	./internal/pcs:FuzzReadCommitment \
	./internal/merkle:FuzzReadPath \
	./internal/wire:FuzzReader \
	./internal/jobs:FuzzDecodeRecord \
	./internal/cluster:FuzzClusterRPC \
	./internal/hashfn:FuzzEngineParity \
	./internal/sumcheck:FuzzRoundKernelParity \
	./internal/ntt:FuzzNTTParity \
	./internal/r1cs:FuzzMatrixEvalsParity \
	./internal/r1cs:FuzzBuilderParity \
	./internal/kernel:FuzzEqExpandParity \
	./internal/merkle:FuzzMerkleVerifyManyParity \
	./internal/tenant:FuzzDRR

.PHONY: all build test vet fmt-check staticcheck inline-check race purego chaos bench-smoke bench fuzz-smoke corpus serve-smoke stats-race jobs-chaos disk-chaos tenants-soak batch-soak cluster-chaos ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean: the target fails and names the
# files when `gofmt -l` prints anything.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would change:"; echo "$$out"; exit 1; fi; \
	echo "fmt-check: gofmt clean"

# Static analysis beyond vet. Skips gracefully when staticcheck is not on
# PATH (local dev boxes); CI installs it and gets the full gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# The field core must stay inside the compiler's inlining budget: every
# hot loop of the prover is built from these four, and one innocent line
# (a counter, a debug check) pushes Mul over the budget and turns every
# multiply into a call (DESIGN.md §9, "Datapath").
INLINE_FUNCS = Add Sub Mul Square
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/field 2>&1); \
	for fn in $(INLINE_FUNCS); do \
		echo "$$out" | grep -q "can inline $$fn\$$" || \
			{ echo "inline-check: field.$$fn is not inlinable:"; echo "$$out" | grep " $$fn:"; exit 1; }; \
	done; echo "inline-check: field.{$(INLINE_FUNCS)} inline"

race:
	$(GO) test -race ./...

# The pure-Go datapath. The purego build has no assembly, so every
# kernel runs its Go loop — the path of non-amd64 targets and of CPUs
# without AVX-512F or AVX2 (DESIGN.md §9) — through the datapath
# packages' own tests and the proof-byte golden, which must hold on
# every path.
PUREGO_PKGS = ./internal/cpu ./internal/field ./internal/ntt ./internal/kernel ./internal/sumcheck \
	./internal/hashfn ./internal/keccak/... ./internal/spartan ./internal/r1cs ./internal/pcs ./internal/merkle
purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego $(PUREGO_PKGS)
	$(GO) test -tags purego -run '^TestProofBytesGolden$$' .

# Fault-injection chaos matrix under the race detector: every injection
# point × {error, panic} with leak checking and clean-retry assertions,
# plus the cancellation-timing sweeps and the pool/injector/leakcheck
# unit tests (DESIGN.md §8).
chaos:
	$(GO) test -race -run 'TestChaos|TestCancel' .
	$(GO) test -race ./internal/par ./internal/faultinject ./internal/leakcheck

# One-iteration pass over the prover and datapath benchmarks: catches
# benchmarks that no longer compile or crash without paying for a full
# measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench Prove -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkVerify$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkMatrixEvals$$' -benchtime 1x ./internal/r1cs
	$(GO) test -run '^$$' -bench '^Benchmark(BuildAESBlock|BuildSHABlock)$$' -benchtime 1x ./internal/circuits
	$(GO) test -run '^$$' -bench '^Benchmark(Mul|VecScaleAdd|InnerProduct)$$' -benchtime 1x ./internal/field
	$(GO) test -run '^$$' -bench '^Benchmark(Forward|ForwardPadded)$$' -benchtime 1x ./internal/ntt
	$(GO) test -run '^$$' -bench '^Benchmark(PermuteX8|Compress64X8)$$' -benchtime 1x ./internal/keccak
	$(GO) test -run '^$$' -bench '^Benchmark(RSEncodeRows|EqExpand|ColumnLeaves|HashColumns)$$' -benchtime 1x ./internal/kernel
	$(GO) test -run '^$$' -bench '^BenchmarkRound(Cubic|Product|Generic)$$' -benchtime 1x ./internal/sumcheck
	$(GO) test -run '^$$' -bench '^BenchmarkWriteProveHit$$' -benchtime 1x ./internal/server

# The repository's one benchmark (BENCHMARK.json; benchmark/README.md has
# the workloads, metrics, and how to compare two result sets): by default
# every workload, untraced then traced, appended to a result set under
# the git-ignored build directory. Override BENCH_ARGS to run one
# workload or to `compare` two sets.
BENCH_ARGS ?= --workload all --seed 1 --seconds 12 --out .bench_build/results.jsonl
bench:
	bash benchmark/run.sh $(BENCH_ARGS)

# Run each fuzz target for $(FUZZTIME) from its seeded corpus. A finding
# is written to the package's testdata/fuzz directory and fails the run.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME); \
	done

# Regenerate the seed fuzz corpora (deterministic).
corpus:
	$(GO) run ./internal/advtest/gencorpus

# End-to-end smoke of the proving service: an in-process nocap-serve
# hammered by nocap-loadgen with mixed prove/verify/malformed/oversized/
# cancel traffic, asserting typed responses, bounded-queue 429s, zero
# goroutine leaks, and a clean arena balance after drain (DESIGN.md §10).
serve-smoke:
	$(GO) run ./cmd/nocap-loadgen -requests 64 -clients 8 -n 256

# Per-run stats attribution under the race detector: concurrent proves
# with per-request collectors must partition the process aggregate
# exactly (DESIGN.md §10), plus the server's mixed-traffic hammer.
stats-race:
	$(GO) test -race -run 'TestConcurrentProveAttribution' -count=1 .
	$(GO) test -race ./internal/server

# Durable-jobs crash matrix under the race detector: journal torn-write
# recovery, a hard SIGKILL of a child process mid-attempt followed by
# replay, fault-injected retries/breaker trips, and the loadgen's
# async-API pass with its crash-window journal corrupter (DESIGN.md §11).
jobs-chaos:
	$(GO) test -race -run 'TestCrash|TestChaos|TestTorn|TestParseJournal|TestOpen|TestShutdownReverts|TestJobs|TestReadyz|TestStatusCode' ./internal/jobs ./internal/server
	$(GO) run -race ./cmd/nocap-loadgen -jobs -requests 40 -clients 8 -n 256

# Durable-state lifecycle matrix under the race detector (DESIGN.md §13):
# checksummed-journal corruption handling, snapshot+compaction bounds and
# retention GC, SIGKILL-mid-compaction replay equivalence (crash before
# the snapshot rename, after it, and during the tail swap), disk-fault
# injection (fsync failure, short write, ENOSPC on append/snapshot/proof
# persist), degraded-mode entry/self-recovery over HTTP, and orphan
# temp/proof sweeping.
disk-chaos:
	$(GO) test -race -run 'TestParseJournal|TestDecodeRecord|TestCompact|TestDegraded|TestShortWrite|TestFsync|TestOrphan|TestJournal' ./internal/jobs
	$(GO) test -race -run 'TestJobsDegradedModeHTTP|TestJobsCompactionBoundsJournalHTTP' ./internal/server

# Multi-tenant fairness soak under the race detector: an in-process
# server with 4 keyed tenants (t0 at 4x DRR weight) under zipf-skewed
# traffic. Asserts per-tenant 429 isolation (a light tenant is never
# shed by the heavy tenant's backlog), starvation-freedom (every
# admitted light request is served, bounded queue wait), typed
# responses, zero goroutine leaks, and arena balance (DESIGN.md §12).
tenants-soak:
	$(GO) run -race ./cmd/nocap-loadgen -tenants 4 -skew zipf -requests 120 -clients 8 -n 128 -workers 4 -queue 4

# Batched-proving soak under the race detector: the async batch planner
# coalesces same-key jobs from two equal-weight keyed tenants; every
# batched proof must be byte-identical to its tenant's solo proof,
# coalescing must show up in the batch metrics, and the scheduler
# ledger must show zero cross-tenant fairness regression — plus the
# journal, goroutine-leak, and arena-balance invariants (DESIGN.md §15).
batch-soak:
	$(GO) run -race ./cmd/nocap-loadgen -batch -requests 48 -clients 8 -n 256 -workers 4 -queue 4

# Distributed-proving chaos matrix under the race detector (DESIGN.md
# §16): the cluster package's lease/health/fairness/locality unit tests
# and kill-mid-proof / mid-batch / mid-result-upload chaos cells, the
# jobs manager's lease-loss refund semantics, the server's end-to-end
# cluster suite (including a real SIGKILLed worker subprocess), and the
# loadgen's coordinator soak with a mid-run node kill — asserting
# exactly-one-terminal-state, refunded attempts, zero client 5xx, and
# zero goroutine leaks throughout.
cluster-chaos:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'TestLeaseLost' ./internal/jobs
	$(GO) test -race -run 'TestClusterServer' ./internal/server
	$(GO) run -race ./cmd/nocap-loadgen -cluster -requests 32 -clients 8 -n 256

ci: vet fmt-check staticcheck inline-check build test race purego chaos bench-smoke fuzz-smoke stats-race serve-smoke jobs-chaos disk-chaos tenants-soak batch-soak cluster-chaos
