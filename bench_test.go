// Benchmarks that regenerate the paper's evaluation: one testing.B
// benchmark per table and figure (plus the §III/§VIII-C analyses), each
// reporting the paper-facing metric as custom units. Run with
//
//	go test -bench=. -benchmem
package nocap_test

import (
	"testing"

	"nocap"
	"nocap/internal/experiments"
)

// BenchmarkTableI regenerates the end-to-end comparison at 16M
// constraints and reports NoCap's total seconds.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		res := experiments.TableI()
		total = res.Rows[len(res.Rows)-1].Times.Total()
	}
	b.ReportMetric(total, "nocap-e2e-s")
}

// BenchmarkTableII evaluates the area model.
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	var area float64
	for i := 0; i < b.N; i++ {
		area = experiments.TableII().Area.Total()
	}
	b.ReportMetric(area, "mm2")
}

// BenchmarkTableIII evaluates the proof-size/verify-time models across
// the benchmark suite.
func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	var mb float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIII().Rows
		mb = rows[len(rows)-1].ProofMB
	}
	b.ReportMetric(mb, "auction-proof-MB")
}

// BenchmarkTableIV runs the full proving-time comparison (five
// simulated NoCap runs + baselines) and reports the gmean speedups.
func BenchmarkTableIV(b *testing.B) {
	b.ReportAllocs()
	var res experiments.TableIVResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableIV()
	}
	b.ReportMetric(res.GmeanVsCPU, "gmean-vs-cpu")
	b.ReportMetric(res.GmeanVsPipe, "gmean-vs-pipezk")
}

// BenchmarkTableV runs the end-to-end comparison.
func BenchmarkTableV(b *testing.B) {
	b.ReportAllocs()
	var res experiments.TableVResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableV()
	}
	b.ReportMetric(res.Gmean, "gmean-vs-pipezk")
}

// BenchmarkFigure5 evaluates the power model.
func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	var w float64
	for i := 0; i < b.N; i++ {
		w = experiments.Figure5().Power.Total()
	}
	b.ReportMetric(w, "watts")
}

// BenchmarkFigure6 computes the runtime/traffic breakdowns.
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	var share float64
	for i := 0; i < b.N; i++ {
		share = experiments.Figure6().Rows[0].NoCapShare
	}
	b.ReportMetric(100*share, "sumcheck-%")
}

// BenchmarkFigure7 runs the full sensitivity sweep (25 simulated
// configurations × 5 benchmarks).
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Figure7().Points)
	}
	b.ReportMetric(float64(n), "sweep-points")
}

// BenchmarkFigure8 explores the design space and Pareto frontier.
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Figure8().Points)
	}
	b.ReportMetric(float64(n), "design-points")
}

// BenchmarkMultiplyAnalysis measures the §III multiply-count ratio on a
// real (2^10) proof.
func BenchmarkMultiplyAnalysis(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.MultiplyAnalysis(10).Ratio
	}
	b.ReportMetric(ratio, "groth16/spartan-muls")
}

// BenchmarkAblations runs the §VIII-C protocol-optimization study,
// including the measured RS-vs-expander encode ratio.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = experiments.Ablations(12).NoCapRecomputeSpeedup
	}
	b.ReportMetric(speedup, "recompute-speedup")
}

// BenchmarkUseCases evaluates the database-throughput and photo use
// cases.
func BenchmarkUseCases(b *testing.B) {
	b.ReportAllocs()
	var tx int
	for i := 0; i < b.N; i++ {
		tx = experiments.DatabaseThroughput().NoCapTxPerSec
		_ = experiments.PhotoEdit()
	}
	b.ReportMetric(float64(tx), "tx/s")
}

// BenchmarkProverAblationRecompute is the DESIGN.md §6 ablation bench:
// simulated NoCap prover with and without sumcheck recomputation.
func BenchmarkProverAblationRecompute(b *testing.B) {
	b.ReportAllocs()
	for _, recompute := range []bool{true, false} {
		name := "off"
		if recompute {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := nocap.DefaultProtocol()
			opts.Recompute = recompute
			var sec float64
			for i := 0; i < b.N; i++ {
				sec = nocap.Simulate(nocap.DefaultHardware(), 24, opts).Seconds()
			}
			b.ReportMetric(sec*1e3, "simulated-ms")
		})
	}
}

// BenchmarkRealProver measures this repository's actual Go Spartan+Orion
// prover at laptop scale (the "measured" companion to Table IV).
func BenchmarkRealProver(b *testing.B) {
	b.ReportAllocs()
	for _, logN := range []int{10, 12, 14} {
		b.Run(string(rune('0'+logN/10))+string(rune('0'+logN%10)), func(b *testing.B) {
			b.ReportAllocs()
			bm := nocap.Synthetic(1 << uint(logN))
			params := nocap.TestParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealVerifier measures verification at laptop scale.
func BenchmarkRealVerifier(b *testing.B) {
	b.ReportAllocs()
	bm := nocap.Synthetic(1 << 12)
	params := nocap.TestParams()
	proof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nocap.Verify(params, bm.Inst, bm.IO, proof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures verification of a 2^16-constraint synthetic
// proof under the paper's parameters (3 repetitions, 128 rows, ZK on) —
// the statement behind the benchmark's verify_p50_ms on lib-prove-2p16.
func BenchmarkVerify(b *testing.B) {
	b.ReportAllocs()
	bm := nocap.Synthetic(1 << 16)
	params := nocap.FitParams(nocap.DefaultParams(), bm.Inst)
	proof, err := nocap.Prove(params, bm.Inst, bm.IO, bm.Witness)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nocap.Verify(params, bm.Inst, bm.IO, proof); err != nil {
			b.Fatal(err)
		}
	}
}
