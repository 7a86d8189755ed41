// Command nocap-worker runs one prover node of a nocap cluster
// (DESIGN.md §16). It pulls leased assignments from a coordinator
// (nocap-serve -cluster) over unencrypted HTTP/2, proves them with
// internal/prover — the same executor the coordinator runs in-process,
// so proof bytes and per-run stats do not depend on placement —
// heartbeats its leases at a fully jittered interval, and reports
// outcomes. Losing a lease (a heartbeat gap longer than the
// coordinator's -lease-ttl, e.g. after a partition or a stop-the-world
// pause) makes the worker abandon the attempt: the coordinator has
// already refunded and reassigned it, and a late completion would be
// discarded as a duplicate.
//
// Usage:
//
//	nocap-worker -coordinator http://127.0.0.1:8080 -id node-a
//	nocap-worker -coordinator http://coord:8080 -id node-b -slots 2 \
//	    -cluster-key s3cret -max-n 65536 -hash sha3
//
// On SIGINT/SIGTERM the worker stops polling, finishes and completes
// in-flight assignments (bounded by -drain), then exits. Exit codes
// follow the taxonomy (DESIGN.md §7): 0 clean, 2 usage, otherwise 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nocap"
	"nocap/internal/cluster"
	"nocap/internal/prover"
	"nocap/internal/zkerr"
)

func run() error {
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8080 (required)")
	id := flag.String("id", "", "stable node name (default: worker-<hostname>-<pid>)")
	slots := flag.Int("slots", 1, "assignments proved concurrently")
	key := flag.String("cluster-key", "", "X-Cluster-Key shared secret (must match the coordinator's -cluster-key)")
	maxN := flag.Int("max-n", 1<<16, "largest circuit size parameter accepted")
	reps := flag.Int("reps", 0, "default soundness repetitions (0 = library default)")
	hash := flag.String("hash", "sha3", "hash engine for proving: "+strings.Join(nocap.HashEngineNames(), "|"))
	timeout := flag.Duration("timeout", 2*time.Minute, "per-attempt proving deadline cap")
	pollWait := flag.Duration("poll-wait", 2*time.Second, "long-poll window requested per poll")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	flag.Parse()

	if *coordinator == "" {
		return zkerr.Usagef("-coordinator is required")
	}
	if !strings.HasPrefix(*coordinator, "http://") && !strings.HasPrefix(*coordinator, "https://") {
		return zkerr.Usagef("-coordinator must be an http(s) URL, got %q", *coordinator)
	}
	if *slots < 1 {
		return zkerr.Usagef("-slots must be positive, got %d", *slots)
	}
	if *timeout <= 0 || *drain <= 0 || *pollWait <= 0 {
		return zkerr.Usagef("-timeout, -drain, and -poll-wait must be positive")
	}
	if *reps < 0 || *reps > 64 {
		return zkerr.Usagef("-reps must be in [0,64], got %d", *reps)
	}
	name := *id
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		name = fmt.Sprintf("worker-%s-%d", host, os.Getpid())
	}

	params := nocap.DefaultParams()
	if *reps > 0 {
		params.Reps = *reps
	}
	params, err := nocap.WithHashEngine(params, *hash)
	if err != nil {
		return err
	}
	node := prover.New(prover.Config{
		Params:  params,
		MaxN:    *maxN,
		Timeout: *timeout,
	})
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		ID:          name,
		Slots:       *slots,
		Key:         *key,
		PollWait:    *pollWait,
		Exec:        node.Exec,
		BatchExec:   node.BatchExec,
		Logf:        log.Printf,
	})
	if err != nil {
		return zkerr.Usagef("worker config: %v", err)
	}

	log.Printf("nocap-worker: %s pulling from %s (%d slots, max-n %d, hash %s)",
		name, *coordinator, *slots, *maxN, *hash)
	w.Start()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	log.Printf("nocap-worker: draining (budget %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := w.Stop(drainCtx); err != nil {
		log.Printf("nocap-worker: drain budget expired; abandoning in-flight leases")
		w.Kill()
		return nil
	}
	log.Printf("nocap-worker: drained cleanly")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nocap-worker: %v\n", err)
		if errors.Is(err, zkerr.ErrUsage) {
			fmt.Fprintln(os.Stderr, "run with -h for usage")
		}
		os.Exit(zkerr.ExitCode(err))
	}
}
