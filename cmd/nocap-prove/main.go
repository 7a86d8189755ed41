// Command nocap-prove builds a benchmark circuit, generates a real
// Spartan+Orion proof with this repository's prover, verifies it, and
// reports statement/proof statistics.
//
// Usage:
//
//	nocap-prove -circuit auction -n 64
//	nocap-prove -circuit aes
//	nocap-prove -circuit synthetic -n 65536 -reps 3
//	nocap-prove -circuit rsa -out proof.bin      # save the proof
//	nocap-prove -circuit rsa -in proof.bin       # verify a saved proof
//	nocap-prove -circuit rsa -timeout 30s        # bound the whole run
//	nocap-prove -circuit rsa -hash keccak-x4     # multi-buffer hash engine
//
// Exit codes follow the error taxonomy (DESIGN.md §7): 0 success,
// 2 usage, 3 malformed proof, 4 soundness failure, 5 resource limit
// (including -timeout expiry and SIGINT/SIGTERM cancellation), 6
// internal error. A cancelled run exits cleanly: the in-flight proof is
// abandoned at its next checkpoint and -out never sees a partial file
// (proofs are written to a temp file and renamed into place).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nocap"
	"nocap/internal/prover"
	"nocap/internal/zkerr"
)

// writeFileAtomic writes data to path via a temp file in the same
// directory plus an atomic rename, so a crash, fault, or cancellation
// mid-write never leaves a truncated proof at path.
func writeFileAtomic(path string, data []byte, mode os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, mode); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

func run(ctx context.Context) (err error) {
	// A bug anywhere below must exit with a typed internal error, not a
	// stack trace on the user's terminal.
	defer zkerr.RecoverTo(&err, "nocap-prove")

	circuit := flag.String("circuit", "auction", "aes|sha|rsa|auction|litmus|synthetic")
	n := flag.Int("n", 16, "circuit size parameter (blocks/bids/txns/constraints)")
	reps := flag.Int("reps", 1, "soundness repetitions (paper uses 3)")
	zk := flag.Bool("zk", true, "zero-knowledge masking")
	recompute := flag.Bool("recompute", false, "use the §V-A recomputation prover (identical proofs, different memory profile)")
	hash := flag.String("hash", "sha3", "hash engine: "+strings.Join(nocap.HashEngineNames(), "|"))
	out := flag.String("out", "", "write the serialized proof to this file")
	in := flag.String("in", "", "verify a serialized proof from this file instead of proving")
	maxMB := flag.Int("max-proof-mb", 0, "reject serialized proofs larger than this many MB (0 = default limits)")
	timeout := flag.Duration("timeout", 0, "abandon the run after this duration (0 = no limit)")
	flag.Parse()

	if *reps < 1 || *reps > 64 {
		return zkerr.Usagef("-reps must be in [1,64], got %d", *reps)
	}
	if *n < 0 {
		return zkerr.Usagef("-n must be non-negative, got %d", *n)
	}
	if *maxMB < 0 {
		return zkerr.Usagef("-max-proof-mb must be non-negative, got %d", *maxMB)
	}
	if *timeout < 0 {
		return zkerr.Usagef("-timeout must be non-negative, got %v", *timeout)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	params := nocap.DefaultParams()
	params.PCS.ZK = *zk
	params.Recompute = *recompute
	if params, err = nocap.WithHashEngine(params, *hash); err != nil {
		return err
	}
	// The statement — circuit lookup with size clamping, the reps
	// override, the PCS-geometry fit — is built and proved by the serving
	// layer's executor (internal/prover), so the CLI and the service agree
	// on what every (circuit, n, reps) triple means and prove it with the
	// same recipe. A CLI run is a Prover with no cache and no request
	// bounds: any size, and no deadline but -timeout (already on ctx).
	pv := prover.New(prover.Config{Params: params, MaxN: math.MaxInt, Timeout: math.MaxInt64})
	st, err := pv.Build(prover.Request{Circuit: *circuit, N: *n, Reps: *reps})
	if err != nil {
		return err
	}
	stats := st.Bench.Inst.Stats()
	fmt.Printf("circuit %s: %d constraints, %d variables, %d nonzeros\n",
		st.Bench.Name, stats.Constraints, stats.Vars, stats.NNZ)

	if *in != "" {
		// A file the OS can't read is an environment failure, not a usage
		// error: the flags were well-formed. Leave it untyped so it exits
		// with the generic failure code (1), distinct from usage (2) and
		// from the verifier taxonomy (3-6).
		data, err := os.ReadFile(*in)
		if err != nil {
			return fmt.Errorf("read proof: %w", err)
		}
		limits := nocap.DefaultDecodeLimits()
		if *maxMB > 0 {
			limits.MaxProofBytes = *maxMB << 20
		}
		proof, err := nocap.UnmarshalProofLimits(data, limits)
		if err != nil {
			return fmt.Errorf("decode proof: %w", err)
		}
		if err := st.Verify(ctx, proof); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		fmt.Printf("proof from %s verified (%d bytes)\n", *in, len(data))
		return nil
	}

	res, _, err := pv.Prove(ctx, st)
	if err != nil {
		return fmt.Errorf("prove: %w", err)
	}
	// The recipe hands back what a recipient would get — the serialized
	// bytes — so that is what gets written and, decoded, verified.
	proof, err := nocap.UnmarshalProof(res.Proof)
	if err != nil {
		return fmt.Errorf("decode proof: %w", err)
	}
	fmt.Printf("proved in %v, proof %.2f MB\n", res.Elapsed.Round(time.Millisecond),
		float64(proof.SizeBytes())/1e6)

	if *out != "" {
		if err := writeFileAtomic(*out, res.Proof, 0o644); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		fmt.Printf("proof written to %s (%d bytes)\n", *out, len(res.Proof))
	}

	start := time.Now()
	if err := st.Verify(ctx, proof); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fmt.Printf("verified in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func main() {
	// SIGINT/SIGTERM cancel the context: the in-flight prove/verify is
	// abandoned at its next cooperative checkpoint and the process exits
	// with the resource-limit code instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "nocap-prove: %v\n", err)
		switch {
		case errors.Is(err, zkerr.ErrUsage):
			fmt.Fprintln(os.Stderr, "run with -h for usage")
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "run abandoned: -timeout expired")
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "run abandoned: interrupted")
		}
		os.Exit(zkerr.ExitCode(err))
	}
}
