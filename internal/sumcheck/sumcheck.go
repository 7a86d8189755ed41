// Package sumcheck implements the sumcheck protocol, the dominant task of
// Spartan+Orion proof generation (~70% of runtime, paper Fig. 6). The
// prover runs the dynamic-programming algorithm of paper Listing 1,
// generalized to a product-combination of several multilinear arrays with
// per-round degree d: in round i the 2^(L−i+1)-entry DP arrays are folded
// at the verifier challenge, and the round polynomial is produced by
// evaluating the combination at t = 0…d across the hypercube.
//
// The protocol is made non-interactive with the transcript package: round
// polynomials are absorbed and challenges squeezed, exactly the
// result→HASH→rx loop of Listing 1.
package sumcheck

import (
	"context"
	"fmt"
	"sync"

	"nocap/internal/arena"
	"nocap/internal/faultinject"
	"nocap/internal/field"
	"nocap/internal/kernel"
	"nocap/internal/par"
	"nocap/internal/poly"
	"nocap/internal/transcript"
	"nocap/internal/zkerr"
)

// Registered fault-injection points at the round boundary and inside
// the round sweep's worker chunks (chaos tests arm them by these names).
var (
	fiProveRound  = faultinject.Register("sumcheck.prove.round")
	fiRoundWorker = faultinject.Register("sumcheck.round.worker")
)

// Combiner combines the values of the oracle MLEs at one point into the
// summand. For Spartan's outer sumcheck it is eq·(a·b−c); for the inner,
// m·z.
type Combiner func(vals []field.Element) field.Element

// Proof is the prover's messages: one round polynomial per variable, each
// given by its degree+1 evaluations at t = 0…degree.
type Proof struct {
	// RoundPolys[i][t] = g_i(t).
	RoundPolys [][]field.Element
}

// SizeBytes returns the serialized proof size (8 bytes per element).
func (p *Proof) SizeBytes() int {
	n := 0
	for _, rp := range p.RoundPolys {
		n += 8 * len(rp)
	}
	return n
}

// ctxCheckInterval is how many hypercube points a round sweep processes
// between context checks. At ~10ns per point the interval costs well
// under a millisecond, so the check itself stays unmeasurable while a
// cancelled round stops within ~4k points.
const ctxCheckInterval = 1 << 12

// rounder is one summand shape's loop nest behind the round driver: the
// driver owns the transcript, the rounder owns the arrays. There is one
// per shape — the two Spartan uses (shapes.go), the generic Combiner
// loop below, and the recomputation prover (streamed.go).
type rounder interface {
	// round binds the previous round's challenge (nil in round 0) and
	// returns the round polynomial's evaluations at t = 0…degree over
	// the arrays as they then stand. The result escapes into the proof.
	round(ctx context.Context, prev *field.Element) ([]field.Element, error)
	// finals binds the last challenge and returns every array's single
	// remaining value.
	finals(ctx context.Context, last field.Element) []field.Element
}

// drive is the one sumcheck round loop (paper Listing 1's
// result→HASH→rx): per round it asks the rounder for the round
// polynomial, absorbs it, squeezes the challenge, and hands that
// challenge to the next round to bind. The context is checked and the
// fiRound fault-injection point fires once per round. On error the
// rounder's arrays are left partially folded and must be discarded.
func drive(ctx context.Context, tr *transcript.Transcript, label string, claim field.Element,
	numVars int, fiRound string, k rounder) (*Proof, []field.Element, []field.Element, error) {

	tr.AppendUint64("sumcheck/"+label+"/vars", uint64(numVars))
	tr.AppendElems("sumcheck/"+label+"/claim", []field.Element{claim})

	proof := &Proof{RoundPolys: make([][]field.Element, numVars)}
	challenges := make([]field.Element, numVars)
	var prev *field.Element
	for round := 0; round < numVars; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		if err := faultinject.Check(fiRound); err != nil {
			return nil, nil, nil, err
		}
		evals, err := k.round(ctx, prev)
		if err != nil {
			return nil, nil, nil, err
		}
		proof.RoundPolys[round] = evals
		tr.AppendElems(fmt.Sprintf("sumcheck/%s/round%d", label, round), evals)
		challenges[round] = tr.Challenge(fmt.Sprintf("sumcheck/%s/r%d", label, round))
		prev = &challenges[round]
	}
	return proof, challenges, k.finals(ctx, *prev), nil
}

// sweep runs one round's pass over points hypercube points and returns
// the round polynomial's degree+1 evaluations. block(lo, hi, sums) adds
// the contribution of points [lo, hi) into sums; sweep cuts the range
// into worker-pool chunks (par's threshold and chunking, like every
// other kernel) and each chunk into ctxCheckInterval blocks with a
// context poll in between, so a cancelled round stops within one block
// per worker. Partial sums are added in whatever order chunks finish:
// field addition is exact and commutative, so the result — and the proof
// — does not depend on the schedule. Every chunk passes through the
// "sumcheck.round.worker" fault-injection point; a worker panic comes
// back as a *par.WorkerPanic error (zkerr.ErrInternal).
func sweep(ctx context.Context, points, degree int, block func(lo, hi int, sums []field.Element)) ([]field.Element, error) {
	sp := kernel.BeginCtx(ctx, kernel.StageSumcheck)
	defer sp.End(points * (degree + 1))
	evals := make([]field.Element, degree+1)
	var mu sync.Mutex
	err := par.ForErrCtx(ctx, points, func(lo, hi int) error {
		if err := faultinject.Check(fiRoundWorker); err != nil {
			return err
		}
		sums := arena.GetCtx(ctx, degree+1)
		defer arena.Put(sums)
		for b := lo; b < hi; b += ctxCheckInterval {
			if err := ctx.Err(); err != nil {
				return err // partial sums discarded with the round
			}
			block(b, min(b+ctxCheckInterval, hi), sums)
		}
		mu.Lock()
		field.VecAdd(evals, evals, sums)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return evals, nil
}

// Prove runs the sumcheck prover for Σ_b combine(mles[0][b], …) = claim.
// All MLEs must have the same number of variables L ≥ 1. The MLEs are
// folded in place (clone first to retain them). It returns the proof, the
// challenge point r ∈ F^L, and the final values mles[k](r).
//
// Prove never fails on its own: it is ProveCtx under a background
// context, and the only possible error — an injected fault in a chaos
// test — escapes as a panic for the caller's zkerr boundary to contain.
func Prove(tr *transcript.Transcript, label string, claim field.Element,
	mles []*poly.MLE, degree int, combine Combiner) (*Proof, []field.Element, []field.Element) {

	proof, challenges, finals, err := ProveCtx(context.Background(), tr, label, claim, mles, degree, combine)
	if err != nil {
		panic(err)
	}
	return proof, challenges, finals
}

// ProveCtx is the context-aware sumcheck prover for an arbitrary
// summand: the context is checked between rounds and every
// ctxCheckInterval points inside the round sweep, and the
// "sumcheck.prove.round" fault-injection point fires once per round. On
// cancellation the MLEs are left partially folded and must be discarded.
// The two summands Spartan proves have dedicated loops (ProveCubicCtx,
// ProveProductCtx) that produce the same proof several times faster.
func ProveCtx(ctx context.Context, tr *transcript.Transcript, label string, claim field.Element,
	mles []*poly.MLE, degree int, combine Combiner) (*Proof, []field.Element, []field.Element, error) {

	if len(mles) == 0 {
		panic("sumcheck: no oracle polynomials")
	}
	numVars := mles[0].NumVars()
	if numVars == 0 {
		panic("sumcheck: zero-variable sum")
	}
	for _, m := range mles {
		if m.NumVars() != numVars {
			panic("sumcheck: oracle dimension mismatch")
		}
	}
	return drive(ctx, tr, label, claim, numVars, fiProveRound, &generic{mles: mles, degree: degree, combine: combine})
}

// generic is the any-shape rounder: the summand is a Combiner closure
// evaluated once per point per t over a scratch vector. The fold is a
// separate (parallel) pass over each MLE, so the MLE objects end up
// folded exactly as the Prove contract says.
type generic struct {
	mles    []*poly.MLE
	degree  int
	combine Combiner
}

func (g *generic) fold(ctx context.Context, r field.Element) {
	for _, m := range g.mles {
		m.FoldCtx(ctx, r)
	}
}

func (g *generic) round(ctx context.Context, prev *field.Element) ([]field.Element, error) {
	if prev != nil {
		g.fold(ctx, *prev)
	}
	half := g.mles[0].Len() / 2
	n := len(g.mles)
	return sweep(ctx, half, g.degree, func(lo, hi int, sums []field.Element) {
		// vals ‖ deltas: each array contributes lo[b] + t·(hi[b]−lo[b]).
		scratch := arena.GetUninitCtx(ctx, 2*n)
		defer arena.Put(scratch)
		vals, deltas := scratch[:n], scratch[n:]
		for b := lo; b < hi; b++ {
			for k, m := range g.mles {
				ev := m.Evals()
				vals[k] = ev[b]
				deltas[k] = field.Sub(ev[b+half], ev[b])
			}
			sums[0] = field.Add(sums[0], g.combine(vals))
			for t := 1; t <= g.degree; t++ {
				field.VecAdd(vals, vals, deltas)
				sums[t] = field.Add(sums[t], g.combine(vals))
			}
		}
	})
}

func (g *generic) finals(ctx context.Context, last field.Element) []field.Element {
	g.fold(ctx, last)
	out := make([]field.Element, len(g.mles))
	for k, m := range g.mles {
		out[k] = m.At(0)
	}
	return out
}

// ErrRoundSum indicates g_i(0)+g_i(1) ≠ running claim — a soundness
// failure on a structurally valid proof.
var ErrRoundSum = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed,
	"sumcheck: round polynomial inconsistent with claim")

// ErrShape indicates a malformed proof.
var ErrShape = zkerr.Wrap(zkerr.ErrMalformedProof, "sumcheck: malformed proof")

// Verify replays the verifier side: it checks every round polynomial
// against the running claim and returns the challenge point and the final
// reduced claim, which the caller must check against the combined oracle
// values at that point.
func Verify(tr *transcript.Transcript, label string, claim field.Element,
	numVars, degree int, proof *Proof) (challenges []field.Element, finalClaim field.Element, err error) {

	if proof == nil {
		return nil, field.Zero, fmt.Errorf("%w: nil proof", ErrShape)
	}
	if len(proof.RoundPolys) != numVars {
		return nil, field.Zero, fmt.Errorf("%w: %d rounds, want %d", ErrShape, len(proof.RoundPolys), numVars)
	}
	tr.AppendUint64("sumcheck/"+label+"/vars", uint64(numVars))
	tr.AppendElems("sumcheck/"+label+"/claim", []field.Element{claim})

	challenges = make([]field.Element, numVars)
	running := claim
	for round := 0; round < numVars; round++ {
		evals := proof.RoundPolys[round]
		if len(evals) != degree+1 {
			return nil, field.Zero, fmt.Errorf("%w: round %d has %d evals, want %d",
				ErrShape, round, len(evals), degree+1)
		}
		if field.Add(evals[0], evals[1]) != running {
			return nil, field.Zero, fmt.Errorf("%w (round %d)", ErrRoundSum, round)
		}
		tr.AppendElems(fmt.Sprintf("sumcheck/%s/round%d", label, round), evals)
		r := tr.Challenge(fmt.Sprintf("sumcheck/%s/r%d", label, round))
		challenges[round] = r
		running = poly.InterpolateEval(evals, r)
	}
	return challenges, running, nil
}

// SumOverHypercube computes Σ_b combine(values at b) directly — O(2^L),
// used by callers to form initial claims and by tests as the reference.
func SumOverHypercube(mles []*poly.MLE, combine Combiner) field.Element {
	n := mles[0].Len()
	vals := make([]field.Element, len(mles))
	var acc field.Element
	for b := 0; b < n; b++ {
		for k, m := range mles {
			vals[k] = m.At(b)
		}
		acc = field.Add(acc, combine(vals))
	}
	return acc
}
