package experiments

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"

	"nocap/internal/baseline"
	"nocap/internal/circuits"
	"nocap/internal/code"
	"nocap/internal/field"
	"nocap/internal/isa"
	"nocap/internal/perfmodel"
	"nocap/internal/sim"
	"nocap/internal/spartan"
	"nocap/internal/tasks"
)

// MultiplyAnalysisResult reproduces the §III critical-operation
// analysis: 64-bit multiplies per constraint for both provers and the
// derived CPU slowdown accounting.
type MultiplyAnalysisResult struct {
	// MeasuredSOMulsPerConstraint is the instrumented multiply count of
	// this repository's Spartan+Orion prover (3 repetitions) at the
	// measurement size, normalized per padded constraint.
	MeasuredSOMulsPerConstraint float64
	// MeasuredLogN is the instance size the measurement ran at.
	MeasuredLogN int
	// ModeledSOMulsPerConstraint is the full-protocol cost inventory's
	// multiply count (includes the Spark-style sumchecks and 3
	// repetitions the functional prover substitutes away).
	ModeledSOMulsPerConstraint float64
	// Groth16MulsPerConstraint is the analytical Groth16 model (§III).
	Groth16MulsPerConstraint float64
	// Ratio is Groth16 ÷ measured; ModeledRatio uses the full-protocol
	// inventory. The paper reports 4.94×.
	Ratio, ModeledRatio float64
	// PaperRatio, SlowdownAccounting reproduce the §III derivation.
	PaperRatio         float64
	SlowdownAccounting float64
}

// MultiplyAnalysis measures our prover's 64-bit multiplies on a real
// (synthetic, banded) instance and compares them with the analytical
// Groth16 model. Our functional prover substitutes direct verifier
// evaluation for Spark (DESIGN.md §3.4), so it undercounts relative to
// the paper's full protocol; the comparison is reported with that
// caveat.
func MultiplyAnalysis(logN int) MultiplyAnalysisResult {
	bm := circuits.Synthetic(1 << uint(logN))
	params := spartan.DefaultParams()
	params.PCS.ZK = false // ZK masking noise excluded from op counts
	field.EnableMulCount(true)
	proof, err := spartan.Prove(params, bm.Inst, bm.IO, bm.Witness)
	muls := field.MulCount()
	field.EnableMulCount(false)
	if err != nil {
		panic("experiments: prover failed: " + err.Error())
	}
	_ = proof

	padded := float64(int64(1) << uint(bm.Inst.LogConstraints()))
	measured := float64(muls) / padded

	// Full-protocol multiply count at reference scale (2^24) from the
	// calibrated task inventory.
	var modeled float64
	for _, task := range tasks.Inventory(24, tasks.DefaultOptions()) {
		modeled += float64(task.Program.Elems(isa.FUMul))
	}
	modeled /= float64(int64(1) << 24)

	g16 := baseline.DefaultMultiplyModel().Groth16Muls(1<<24, 24) / float64(int64(1)<<24)
	return MultiplyAnalysisResult{
		MeasuredSOMulsPerConstraint: measured,
		MeasuredLogN:                bm.Inst.LogConstraints(),
		ModeledSOMulsPerConstraint:  modeled,
		Groth16MulsPerConstraint:    g16,
		Ratio:                       g16 / measured,
		ModeledRatio:                g16 / modeled,
		PaperRatio:                  perfmodel.AlgorithmicMultiplyGain,
		SlowdownAccounting:          perfmodel.CPUSlowdownVsGroth16(),
	}
}

// Render prints the analysis.
func (m MultiplyAnalysisResult) Render() string {
	return fmt.Sprintf(`Section III multiply-count analysis (64-bit multiplies per constraint)
Groth16 (analytical model, BLS12-381):        %8.0f
Spartan+Orion full protocol (cost inventory): %8.0f  ->  %.1fx fewer [paper: %.2fx]
Spartan+Orion this repo, measured at 2^%d:    %8.0f  ->  %.0fx fewer
(the functional prover substitutes direct matrix evaluation for Spark and
far undercounts the full protocol; see DESIGN.md §3.4)
CPU slowdown accounting 4.66/4.94/(2.7/5.0) = %.2fx (matches 94.2s/53.99s)
`, m.Groth16MulsPerConstraint, m.ModeledSOMulsPerConstraint, m.ModeledRatio,
		m.PaperRatio, m.MeasuredLogN, m.MeasuredSOMulsPerConstraint,
		m.Ratio, m.SlowdownAccounting)
}

// AblationResult is the §VIII-C protocol-optimization study.
type AblationResult struct {
	// CPUGoldilocks and CPUReedSolomon are the modeled software factors.
	CPUGoldilocks, CPUReedSolomon float64
	// MeasuredRSvsExpander is this repo's measured CPU encode-time ratio
	// (expander ÷ Reed-Solomon) at the measurement size.
	MeasuredRSvsExpander float64
	// MeasuredFieldSpeedup is the measured modular-multiply throughput
	// ratio of Goldilocks-64 vs a 4-limb Montgomery 256-bit field on this
	// host (the §VIII-C field ablation's mechanism).
	MeasuredFieldSpeedup float64
	// NoCapRecomputeSpeedup is the simulated end-to-end gain from
	// sumcheck recomputation; SumcheckTrafficSaved the traffic delta.
	NoCapRecomputeSpeedup float64
	SumcheckTrafficSaved  float64
	// CPURecomputePenalty is the modeled software cost of recomputation
	// (the reason it is left off on CPUs).
	CPURecomputePenalty float64
}

// Ablations regenerates §VIII-C: field and code choices on the CPU
// (model + a real measured encode ratio), recomputation on NoCap
// (simulated on/off).
func Ablations(logRows int) AblationResult {
	// Measure RS vs expander encode on this machine.
	n := 1 << uint(logRows)
	msg := make([]field.Element, n)
	for i := range msg {
		msg[i] = field.New(uint64(i)*2654435761 + 1)
	}
	rs := code.NewReedSolomon()
	ex := code.NewExpander(7)
	rs.Encode(msg) // warm twiddle tables
	ex.Encode(msg) // warm graph cache
	// Each encoder's best single run, the two interleaved so that both
	// see the same machine: scheduler and GC stalls only ever add time,
	// so the minimum is the steadiest estimate.
	rsT, exT := math.Inf(1), math.Inf(1)
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return time.Since(start).Seconds()
	}
	for range 21 {
		rsT = min(rsT, timed(func() { rs.Encode(msg) }))
		exT = min(exT, timed(func() { ex.Encode(msg) }))
	}

	// Measure raw modular-multiply throughput: Goldilocks vs 256-bit.
	const mulIters = 1 << 20
	g := field.New(0x1234567890abcdef)
	start := time.Now()
	for i := 0; i < mulIters; i++ {
		g = field.Mul(g, g)
	}
	goldT := time.Since(start).Seconds()
	w := field.NewWide(big.NewInt(0x1234567890ab))
	start = time.Now()
	for i := 0; i < mulIters; i++ {
		w = field.WideMul(w, w)
	}
	wideT := time.Since(start).Seconds()
	_ = g
	_ = w

	cfg := sim.DefaultConfig()
	on := sim.Prover(cfg, 24, tasks.Options{Recompute: true, Reps: 3})
	off := sim.Prover(cfg, 24, tasks.Options{Recompute: false, Reps: 3})

	return AblationResult{
		CPUGoldilocks:         perfmodel.CPUGoldilocksSpeedup,
		CPUReedSolomon:        perfmodel.CPUReedSolomonSpeedup,
		MeasuredRSvsExpander:  exT / rsT,
		MeasuredFieldSpeedup:  wideT / goldT,
		NoCapRecomputeSpeedup: float64(off.Cycles) / float64(on.Cycles),
		SumcheckTrafficSaved:  tasks.SumcheckTrafficReduction(),
		CPURecomputePenalty:   perfmodel.CPURecomputeSlowdown,
	}
}

// Render prints the ablation study.
func (a AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Section VIII-C protocol optimizations\n")
	fmt.Fprintf(&b, "Goldilocks64 field (CPU):        %.1fx speedup [paper: 1.7x]\n", a.CPUGoldilocks)
	fmt.Fprintf(&b, "  (measured modmul throughput vs 4-limb Montgomery 256-bit on this host: %.1fx)\n",
		a.MeasuredFieldSpeedup)
	fmt.Fprintf(&b, "Reed-Solomon vs expander (CPU):  %.1fx speedup [paper: 1.2x]\n", a.CPUReedSolomon)
	fmt.Fprintf(&b, "  (measured raw encode ratio on this host: %.1fx; the paper's 1.2x is a\n", a.MeasuredRSvsExpander)
	fmt.Fprintf(&b, "   full-prover effect: the 1,222-vs-189 query gap and graph locality)\n")
	fmt.Fprintf(&b, "Combined CPU optimization:       %.1fx [paper: 2.1x]\n", a.CPUGoldilocks*a.CPUReedSolomon)
	fmt.Fprintf(&b, "Sumcheck recomputation (NoCap):  %.2fx speedup [paper: 1.1x], %.0f%% sumcheck traffic saved [paper: 31%%]\n",
		a.NoCapRecomputeSpeedup, 100*a.SumcheckTrafficSaved)
	fmt.Fprintf(&b, "Recomputation on CPU:            %.0f%% slower (left off in software) [paper: 1%%]\n",
		100*(a.CPURecomputePenalty-1))
	return b.String()
}
