// Command nocap-bench regenerates the paper's evaluation: every table
// and figure, the §III and §VIII-C analyses, the use cases, and an
// optional measured run of the real Go prover.
//
// Usage:
//
//	nocap-bench                 # everything
//	nocap-bench -table 4        # one table (1–5)
//	nocap-bench -figure 7       # one figure (5–8)
//	nocap-bench -analysis       # §III multiply counts + §VIII-C ablations
//	nocap-bench -usecases       # §I/§VIII use cases
//	nocap-bench -measured 14    # run the real prover at 2^14 constraints
//	nocap-bench -measured 18 -timeout 1m   # bound a long measured run
//	nocap-bench -measured 14 -hash keccak-x4   # multi-buffer hash engine
//
// SIGINT/SIGTERM (and -timeout expiry) cancel an in-flight -measured run
// at its next cooperative checkpoint; the process then exits with the
// resource-limit code (5) from the error taxonomy (DESIGN.md §7).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"nocap/internal/experiments"
	"nocap/internal/zkerr"
)

// writeBundle regenerates the whole evaluation into files.
func writeBundle(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	texts := map[string]string{
		"table1.txt":  experiments.TableI().Render(),
		"table2.txt":  experiments.TableII().Render(),
		"table3.txt":  experiments.TableIII().Render(),
		"table4.txt":  experiments.TableIV().Render(),
		"table5.txt":  experiments.TableV().Render(),
		"figure5.txt": experiments.Figure5().Render(),
		"figure6.txt": experiments.Figure6().Render(),
		"figure7.txt": experiments.Figure7().Render(),
		"figure8.txt": experiments.Figure8().Render(),
		"analysis.txt": experiments.MultiplyAnalysis(12).Render() + "\n" +
			experiments.Ablations(12).Render() + "\n" + experiments.Platforms().Render(),
		"proofs.txt": experiments.ProofComposition().Render(),
		"host.txt":   experiments.HostInterface().Render(),
		"usecases.txt": experiments.DatabaseThroughput().Render() + "\n" +
			experiments.PhotoEdit().Render(),
	}
	for name, content := range texts {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	writeCSV := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := writeCSV("figure7.csv", func(w io.Writer) error { return experiments.Figure7().WriteCSV(w) }); err != nil {
		return err
	}
	if err := writeCSV("figure8.csv", func(w io.Writer) error { return experiments.Figure8().WriteCSV(w) }); err != nil {
		return err
	}
	return writeCSV("table4.csv", func(w io.Writer) error { return experiments.TableIV().WriteCSV(w) })
}

// measuredRun runs the real prover at 2^logN constraints under ctx and
// prints the result, or reports the cancellation/fault error.
func measuredRun(ctx context.Context, logN, reps int, hash string) error {
	res, err := experiments.MeasuredEngineCtx(ctx, logN, reps, hash)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func main() {
	// Only the -measured path does open-ended work; the model-based tables
	// and figures finish in milliseconds. A signal or -timeout cancels the
	// measured prover at its next cooperative checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	table := flag.Int("table", 0, "print one table (1-5)")
	figure := flag.Int("figure", 0, "print one figure (5-8)")
	analysis := flag.Bool("analysis", false, "print the §III and §VIII-C analyses")
	analysisProofs := flag.Bool("proofs", false, "print the proof-composition analysis")
	usecases := flag.Bool("usecases", false, "print the use-case studies")
	measured := flag.Int("measured", 0, "run the real Go prover at 2^N constraints")
	csv := flag.String("csv", "", "emit plot-ready CSV: figure7|figure8|table4")
	outDir := flag.String("out", "", "write the full evaluation bundle (text + CSVs) to this directory")
	reps := flag.Int("reps", 1, "soundness repetitions for -measured")
	hash := flag.String("hash", "", "hash engine for -measured (sha3|keccak-x4, default sha3)")
	timeout := flag.Duration("timeout", 0, "abandon a -measured run after this duration (0 = no limit)")
	flag.Parse()

	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "nocap-bench: -timeout must be non-negative, got %v\n", *timeout)
		os.Exit(zkerr.ExitCode(zkerr.ErrUsage))
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	specific := *table != 0 || *figure != 0 || *analysis || *analysisProofs || *usecases || *measured != 0 || *csv != "" || *outDir != ""

	tables := map[int]func() string{
		1: func() string { return experiments.TableI().Render() },
		2: func() string { return experiments.TableII().Render() },
		3: func() string { return experiments.TableIII().Render() },
		4: func() string { return experiments.TableIV().Render() },
		5: func() string { return experiments.TableV().Render() },
	}
	figures := map[int]func() string{
		5: func() string { return experiments.Figure5().Render() },
		6: func() string { return experiments.Figure6().Render() },
		7: func() string { return experiments.Figure7().Render() },
		8: func() string { return experiments.Figure8().Render() },
	}

	switch {
	case *table != 0:
		f, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "no table %d (have 1-5)\n", *table)
			os.Exit(1)
		}
		fmt.Print(f())
	case *figure != 0:
		f, ok := figures[*figure]
		if !ok {
			fmt.Fprintf(os.Stderr, "no figure %d (have 5-8)\n", *figure)
			os.Exit(1)
		}
		fmt.Print(f())
	case *analysis:
		fmt.Print(experiments.MultiplyAnalysis(12).Render())
		fmt.Println()
		fmt.Print(experiments.Ablations(12).Render())
		fmt.Println()
		fmt.Print(experiments.Platforms().Render())
	case *analysisProofs:
		fmt.Print(experiments.ProofComposition().Render())
	case *usecases:
		fmt.Print(experiments.DatabaseThroughput().Render())
		fmt.Println()
		fmt.Print(experiments.PhotoEdit().Render())
	case *measured != 0:
		if err := measuredRun(ctx, *measured, *reps, *hash); err != nil {
			fmt.Fprintf(os.Stderr, "nocap-bench: %v\n", err)
			os.Exit(zkerr.ExitCode(err))
		}
	case *csv != "":
		var err error
		switch *csv {
		case "figure7":
			err = experiments.Figure7().WriteCSV(os.Stdout)
		case "figure8":
			err = experiments.Figure8().WriteCSV(os.Stdout)
		case "table4":
			err = experiments.TableIV().WriteCSV(os.Stdout)
		default:
			err = fmt.Errorf("unknown csv target %q", *csv)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *outDir != "":
		if err := writeBundle(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("evaluation bundle written to %s\n", *outDir)
	}
	if specific {
		return
	}

	for i := 1; i <= 5; i++ {
		fmt.Print(tables[i]())
		fmt.Println()
	}
	for i := 5; i <= 8; i++ {
		fmt.Print(figures[i]())
		fmt.Println()
	}
	fmt.Print(experiments.MultiplyAnalysis(12).Render())
	fmt.Println()
	fmt.Print(experiments.Ablations(12).Render())
	fmt.Println()
	fmt.Print(experiments.Platforms().Render())
	fmt.Println()
	fmt.Print(experiments.ProofComposition().Render())
	fmt.Println()
	fmt.Print(experiments.HostInterface().Render())
	fmt.Println()
	fmt.Print(experiments.RackScaleStudy(550_000_000).Render())
	fmt.Println()
	fmt.Print(experiments.DatabaseThroughput().Render())
	fmt.Println()
	fmt.Print(experiments.PhotoEdit().Render())
	fmt.Println()
	if err := measuredRun(ctx, 14, 1, ""); err != nil {
		fmt.Fprintf(os.Stderr, "nocap-bench: %v\n", err)
		os.Exit(zkerr.ExitCode(err))
	}
}
