package sumcheck

import (
	"context"

	"nocap/internal/faultinject"
	"nocap/internal/field"
	"nocap/internal/poly"
	"nocap/internal/transcript"
)

// fiStreamedRound is the registered fault-injection point at the
// streamed prover's round boundary (chaos tests arm it by this name).
var fiStreamedRound = faultinject.Register("sumcheck.streamed.round")

// Source produces the original (round-0) value of oracle array k at
// hypercube index idx. ProveStreamedCtx re-reads sources instead of storing
// folded DP arrays.
type Source func(k int, idx int) field.Element

// ProveStreamedCtx is the recomputation variant of the sumcheck prover
// (paper §V-A): instead of materializing and folding the DP arrays
// (which at NoCap's scale means streaming them from HBM every round), it
// recomputes every folded value from the sources on demand using the
// challenge prefix — "we use the values of rx[1], rx[2], …, rx[i−1] to
// fast-forward to the needed values of A for iteration i directly,
// without requiring additional memory accesses". The folded value at
// index b after i rounds is Σ_c eq(rx[:i], c)·orig[c·2^(L−i) + b].
//
// The recomputation phase ends once the folded arrays fit the on-chip
// scratchpad (materializeBelow elements, the role of NoCap's 8 MB
// register file, §V-A: "This recomputation uses many intermediates,
// which is why NoCap requires an 8 MB scratchpad"): from there the
// arrays are materialized once and folded in place like Prove.
//
// It produces a transcript (and therefore a proof) byte-identical to
// Prove on the same inputs: bounded extra memory, at the cost of
// re-reading sources in the early rounds — compute traded for memory,
// exactly the accelerator's trade.
//
// Cancellation is cooperative: the context is checked between rounds
// and every ctxCheckInterval points of the per-round evaluation loop
// (the recomputation rounds are the most expensive part of the §V-A
// prover, so intra-round checkpoints matter), and the
// "sumcheck.streamed.round" fault-injection point fires once per round. It runs on the same round driver as ProveCtx; once the
// arrays are materialized the rounds are the generic rounder's.
func ProveStreamedCtx(ctx context.Context, tr *transcript.Transcript, label string, claim field.Element,
	numArrays, numVars int, src Source, degree int, combine Combiner,
	materializeBelow int) (*Proof, []field.Element, []field.Element, error) {

	if numArrays < 1 {
		panic("sumcheck: no oracle sources")
	}
	if numVars < 1 {
		panic("sumcheck: zero-variable sum")
	}
	return drive(ctx, tr, label, claim, numVars, fiStreamedRound, &streamed{
		numArrays: numArrays, size: 1 << uint(numVars), src: src,
		degree: degree, combine: combine, materializeBelow: materializeBelow,
	})
}

// streamed is the recomputation rounder: until the folded arrays fit
// the scratchpad it stores nothing but the challenge prefix and re-reads
// the sources every round; from then on it is the generic rounder over
// the materialized arrays.
type streamed struct {
	numArrays, size  int // size is the current (folded) array length
	src              Source
	degree           int
	combine          Combiner
	materializeBelow int

	challenges []field.Element
	prefixEq   []field.Element // eq table over challenges so far
	stored     *generic        // non-nil once the arrays fit the scratchpad
}

// folded recomputes the current DP value: idx indexes the size-element
// folded array; the eq weights of the challenge prefix select the
// original entries.
func (s *streamed) folded(k, idx int) field.Element {
	if len(s.challenges) == 0 {
		return s.src(k, idx)
	}
	var acc field.Element
	for c, w := range s.prefixEq {
		acc = field.Add(acc, field.Mul(w, s.src(k, c*s.size+idx)))
	}
	return acc
}

// materialize builds the current folded arrays in scratchpad memory.
func (s *streamed) materialize() *generic {
	mles := make([]*poly.MLE, s.numArrays)
	for k := range mles {
		evals := make([]field.Element, s.size)
		for b := range evals {
			evals[b] = s.folded(k, b)
		}
		mles[k] = poly.NewMLE(evals)
	}
	return &generic{mles: mles, degree: s.degree, combine: s.combine}
}

// bind records a challenge: the stored arrays fold, the recomputation
// phase extends its eq prefix instead.
func (s *streamed) bind(ctx context.Context, r field.Element) {
	s.size /= 2
	if s.stored != nil {
		s.stored.fold(ctx, r)
		return
	}
	s.challenges = append(s.challenges, r)
	s.prefixEq = poly.EqTableCtx(ctx, s.challenges)
}

func (s *streamed) round(ctx context.Context, prev *field.Element) ([]field.Element, error) {
	if prev != nil {
		s.bind(ctx, *prev)
	}
	if s.stored == nil && s.size <= s.materializeBelow {
		s.stored = s.materialize()
	}
	if s.stored != nil {
		return s.stored.round(ctx, nil) // bind already folded the arrays
	}
	half := s.size / 2
	vals := make([]field.Element, s.numArrays)
	deltas := make([]field.Element, s.numArrays)
	evals := make([]field.Element, s.degree+1)
	for b := 0; b < half; b++ {
		if b&(ctxCheckInterval-1) == 0 && b > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for k := range vals {
			lo, hi := s.folded(k, b), s.folded(k, b+half)
			vals[k] = lo
			deltas[k] = field.Sub(hi, lo)
		}
		evals[0] = field.Add(evals[0], s.combine(vals))
		for t := 1; t <= s.degree; t++ {
			field.VecAdd(vals, vals, deltas)
			evals[t] = field.Add(evals[t], s.combine(vals))
		}
	}
	return evals, nil
}

func (s *streamed) finals(ctx context.Context, last field.Element) []field.Element {
	if s.stored != nil {
		return s.stored.finals(ctx, last)
	}
	s.bind(ctx, last)
	out := make([]field.Element, s.numArrays)
	for k := range out {
		out[k] = s.folded(k, 0)
	}
	return out
}
