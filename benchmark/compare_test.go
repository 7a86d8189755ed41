package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, tc := range []struct {
		name      string
		base, new []float64
		better    string
		bound     float64
		want      verdict
	}{
		{"latency up past the bound", steady(100), steady(115), "lower", 0.10, worse},
		{"latency up inside the bound", steady(100), steady(105), "lower", 0.10, within},
		{"latency down past the bound", steady(100), steady(80), "lower", 0.10, better},
		{"throughput down past the bound", steady(100), steady(85), "higher", 0.10, worse},
		{"throughput up past the bound", steady(100), steady(120), "higher", 0.10, better},
		{"throughput down inside the bound", steady(100), steady(95), "higher", 0.10, within},
		{"base too noisy to tell", []float64{80, 100, 120, 90, 130}, steady(150), "lower", 0.10, unresolved},
		{"new too noisy to tell", steady(100), []float64{80, 100, 120, 90, 130}, "lower", 0.10, unresolved},
		{"single runs have no spread", []float64{100}, []float64{125}, "lower", 0.10, worse},
		{"no base to compare with", nil, steady(100), "lower", 0.10, unresolved},
	} {
		if got, _, _ := judge(tc.base, tc.new, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func runsOf(workload string, failed int, latency ...float64) []record {
	var out []record
	for _, l := range latency {
		out = append(out, record{Workload: workload, Failed: failed, Metrics: map[string]metricValue{
			"latency_p50_ms": {Value: l, Unit: "ms"},
			"ops_per_s":      {Value: 1000 / l, Unit: "1/s"},
		}})
	}
	return out
}

func testBenchmarkFile() *benchmarkFile {
	return &benchmarkFile{
		Workloads: []benchWorkload{{Name: "lib-prove-2p16"}},
		EndToEnd: []boundedMetric{
			{metricDef{"latency_p50_ms", "ms", "lower"}, 0.10},
			{metricDef{"ops_per_s", "1/s", "higher"}, 0.10},
		},
	}
}

func TestCompareRowsAndOutcome(t *testing.T) {
	bf := testBenchmarkFile()
	base := runsOf("lib-prove-2p16", 0, 100, 101, 99)

	var out bytes.Buffer
	if !compare(&out, bf, base, runsOf("lib-prove-2p16", 0, 103, 104, 102)) {
		t.Errorf("a move inside the bound was rejected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "within") || !strings.Contains(out.String(), "latency_p50_ms") {
		t.Errorf("table lacks the row or its verdict:\n%s", out.String())
	}

	out.Reset()
	if compare(&out, bf, base, runsOf("lib-prove-2p16", 0, 120, 121, 119)) {
		t.Errorf("a regression past the bound was accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("table lacks the worse verdict:\n%s", out.String())
	}

	// Traced records carry per-layer metrics only and are not compared.
	traced := runsOf("lib-prove-2p16", 0, 500)
	traced[0].Trace = true
	out.Reset()
	if !compare(&out, bf, base, append(runsOf("lib-prove-2p16", 0, 100), traced...)) {
		t.Errorf("a traced record leaked into the comparison:\n%s", out.String())
	}

	out.Reset()
	if compare(&out, bf, base, runsOf("lib-prove-2p16", 2, 100, 100, 100)) {
		t.Errorf("more failures than the base were accepted:\n%s", out.String())
	}

	out.Reset()
	if compare(&out, bf, base, runsOf("some-other-workload", 0, 100)) {
		t.Errorf("a set missing the workload was accepted:\n%s", out.String())
	}
}
