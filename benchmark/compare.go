package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// boundedMetric is an end-to-end metric with the share of the base's
// median it may worsen by before the change counts as a regression.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads an --out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the repeats of one metric on one workload. change is
// the relative move of the median, signed so that positive is worse.
// When either side's own repeats spread wider than the bound, the two
// medians cannot be told apart at that bound and the row is unresolved,
// not unchanged.
func judge(base, new []float64, betterDir string, bound float64) (v verdict, change, noise float64) {
	mb, mn := median(base), median(new)
	if mb == 0 {
		return unresolved, 0, 0
	}
	change = (mn - mb) / mb
	if betterDir == "higher" {
		change = -change
	}
	noise = max(spread(base), spread(new))
	switch {
	case noise > bound:
		return unresolved, change, noise
	case change > bound:
		return worse, change, noise
	case change < -bound:
		return better, change, noise
	}
	return within, change, noise
}

// compareMain implements `benchmark compare <base.jsonl> <new.jsonl>`,
// judged by the BENCHMARK.json of the directory it is run in. It
// returns the exit code: 0 acceptable, 1 not, 2 could not compare.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <base.jsonl> <new.jsonl>")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	var base, next []record
	if err == nil {
		base, err = readRecords(args[0])
	}
	if err == nil {
		next, err = readRecords(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	if !compare(w, bf, base, next) {
		return 1
	}
	return 0
}

// compare prints one row per workload × end-to-end metric and reports
// whether the new set is acceptable: no row worse, no more failures.
func compare(w io.Writer, bf *benchmarkFile, base, next []record) bool {
	type side struct {
		values map[string][]float64
		failed int
		runs   int
	}
	collect := func(recs []record, workload string) side {
		s := side{values: map[string][]float64{}}
		for _, r := range recs {
			if r.Workload != workload || r.Trace {
				continue
			}
			s.runs++
			s.failed += r.Failed
			for name, mv := range r.Metrics {
				s.values[name] = append(s.values[name], mv.Value)
			}
		}
		return s
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (n)\tnew (n)\tnew/base\tworse by\tbound\tspread\tverdict")
	for _, wl := range bf.Workloads {
		b, n := collect(base, wl.Name), collect(next, wl.Name)
		if b.runs == 0 || n.runs == 0 {
			fmt.Fprintf(tw, "%s\t-\t(%d)\t(%d)\t\t\t\t\tmissing\n", wl.Name, b.runs, n.runs)
			ok = false
			continue
		}
		for _, md := range bf.EndToEnd {
			v, change, noise := judge(b.values[md.Name], n.values[md.Name], md.Better, md.Bound)
			mb, mn := median(b.values[md.Name]), median(n.values[md.Name])
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%.3f\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				wl.Name, md.Name, mb, md.Unit, b.runs, mn, md.Unit, n.runs, ratio(mn, mb), 100*change, 100*md.Bound, 100*noise, v)
			if v == worse {
				ok = false
			}
		}
		if n.failed > b.failed {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t\t\t\tworse\n", wl.Name, b.failed, n.failed)
			ok = false
		}
	}
	tw.Flush()
	return ok
}
