// Package pcs implements the Orion polynomial commitment scheme in its
// Shockwave/Brakedown form (paper §II-A, §V, §VII-A): the committed
// multilinear polynomial's evaluations are arranged into a 128-row
// matrix, each row is Reed-Solomon encoded (blowup 4), and a Merkle tree
// is built over the encoded columns. Openings combine rows linearly and
// spot-check 189 columns; four random proximity vectors establish that
// the committed matrix is close to the code, and all linear checks share
// one set of column openings (the optimization of [Brakedown] the paper
// adopts, §VII-A).
//
// Zero knowledge (Orion protocol 5 intent) is provided by (a) appending
// `Queries` random elements to every row before encoding, so any 189
// opened codeword columns are jointly uniform, and (b) one committed mask
// row per linear check, so the transmitted row combinations are uniform.
package pcs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"nocap/internal/arena"
	"nocap/internal/code"
	"nocap/internal/faultinject"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/kernel"
	"nocap/internal/merkle"
	"nocap/internal/par"
	"nocap/internal/poly"
	"nocap/internal/transcript"
	"nocap/internal/zkerr"
)

// Registered fault-injection points at the commit/open/verify stage
// boundaries (chaos tests arm them by these names).
var (
	fiCommitEncode  = faultinject.Register("pcs.commit.encode")
	fiCommitLeaves  = faultinject.Register("pcs.commit.leaves")
	fiCommitTree    = faultinject.Register("pcs.commit.tree")
	fiOpenEval      = faultinject.Register("pcs.open.eval")
	fiOpenProx      = faultinject.Register("pcs.open.prox")
	fiOpenColumns   = faultinject.Register("pcs.open.columns")
	fiVerifyEncode  = faultinject.Register("pcs.verify.encode")
	fiVerifyColumns = faultinject.Register("pcs.verify.columns")
)

// Params configures the scheme.
type Params struct {
	// Rows is the matrix height; the paper uses 128 (§VII-A).
	Rows int
	// Code is the row code; production is Reed-Solomon blowup 4.
	Code code.Code
	// NumProximity is the number of random combination vectors in the
	// proximity test; the paper uses 4 (§VII-A).
	NumProximity int
	// MaxPoints bounds the number of evaluation points one commitment can
	// be opened at (mask rows are committed up front). Spartan with 3
	// repetitions opens at 3 points.
	MaxPoints int
	// ZK enables the masking machinery.
	ZK bool
	// Hash is the hash engine for column leaves and the Merkle tree. nil
	// selects hashfn.Default() (the scalar sha3 engine), which keeps
	// commitments byte-identical to every earlier version. Prover and
	// verifier must agree on it, like every other field here.
	Hash hashfn.Engine
}

// Engine resolves the configured hash engine, defaulting to sha3.
func (p Params) Engine() hashfn.Engine {
	if p.Hash == nil {
		return hashfn.Default()
	}
	return p.Hash
}

// DefaultParams returns the paper's parameters (128 rows, RS-4, 4
// proximity vectors) with zero knowledge enabled.
func DefaultParams() Params {
	return Params{Rows: 128, Code: code.NewReedSolomon(), NumProximity: 4, MaxPoints: 8, ZK: true}
}

func (p Params) numMasks() int {
	if !p.ZK {
		return 0
	}
	return p.NumProximity + p.MaxPoints
}

func (p Params) validate() error {
	if p.Rows < 2 || p.Rows&(p.Rows-1) != 0 {
		return errors.New("pcs: Rows must be a power of two ≥ 2")
	}
	if p.Code == nil || p.NumProximity < 1 {
		return errors.New("pcs: missing code or proximity vectors")
	}
	return nil
}

// Commitment is the verifier's view of a committed polynomial.
type Commitment struct {
	Root hashfn.Digest
	// NumVars is the arity of the committed multilinear polynomial.
	NumVars int
	// Rows and MsgLen fix the matrix geometry (MsgLen includes ZK tail
	// and padding).
	Rows, Cols, MsgLen int
}

// SizeBytes returns the serialized commitment size.
func (c *Commitment) SizeBytes() int { return hashfn.Size + 4*8 }

// ProverState retains what the prover needs to open a commitment. The
// row, mask, and codeword matrices live in three arena checkouts
// (rowsBuf/masksBuf/encBuf back the per-row subslices), so a state must
// be Closed once its openings are done to return the scratch.
type ProverState struct {
	params  Params
	comm    *Commitment
	rows    [][]field.Element // Rows × MsgLen (data ‖ zk tail ‖ zero pad)
	masks   [][]field.Element // numMasks × MsgLen, random
	encoded [][]field.Element // (Rows+numMasks) × MsgLen·blowup

	rowsBuf, masksBuf, encBuf []field.Element
	tree                      *merkle.Tree
	closed                    bool
}

// Commitment returns the public commitment.
func (s *ProverState) Commitment() *Commitment { return s.comm }

// Close returns the state's scratch buffers to the arena. The state must
// not be opened afterwards (the Commitment remains valid). Idempotent
// and nil-safe, so `defer st.Close()` is always correct.
func (s *ProverState) Close() {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	arena.Put(s.rowsBuf)
	arena.Put(s.masksBuf)
	arena.Put(s.encBuf)
	s.rowsBuf, s.masksBuf, s.encBuf = nil, nil, nil
	s.rows, s.masks, s.encoded = nil, nil, nil
	s.tree = nil
}

// randFill fills dst with uniform field elements from crypto/rand,
// reading in batches with rejection sampling (rejection probability per
// draw is ~2⁻³², so retries are vanishingly rare).
func randFill(dst []field.Element) {
	if len(dst) == 0 {
		return
	}
	const batch = 64
	buf := make([]byte, 8*batch)
	for i := 0; i < len(dst); {
		n := len(dst) - i
		if n > batch {
			n = batch
		}
		if _, err := rand.Read(buf[:8*n]); err != nil {
			panic("pcs: crypto/rand failure: " + err.Error())
		}
		for j := 0; j < n; j++ {
			v := binary.LittleEndian.Uint64(buf[8*j:])
			if v < field.Modulus {
				dst[i] = field.Element(v)
				i++
			}
		}
	}
}

// Commit commits to the multilinear polynomial with the given evaluation
// vector (length a power of two ≥ Rows).
func Commit(params Params, vec []field.Element) (*ProverState, error) {
	return CommitCtx(context.Background(), params, vec)
}

// CommitCtx is Commit with cooperative cancellation: the context is
// threaded into the parallel row encodes (inside the NTT), the parallel
// column hashing, and the Merkle build, and the pool stops dispatching
// chunks once it is cancelled. Fault-injection points cover each stage
// boundary ("pcs.commit.encode", "pcs.commit.leaves",
// "pcs.commit.tree").
func CommitCtx(ctx context.Context, params Params, vec []field.Element) (*ProverState, error) {
	g, err := planGeometry(params, len(vec))
	if err != nil {
		return nil, err
	}
	return commitPlanned(ctx, params, g, vec)
}

// geometry is the size plan of one commitment: a pure function of the
// parameters and the vector length, so it can be computed once and
// shared across the members of a batch.
type geometry struct {
	n      int // vector length
	cols   int // data columns per row
	msgLen int // padded message length per row (power of two)
	encLen int // encoded row length (msgLen × blowup)
	zkTail int // random tail entries per row (ZK only)
	total  int // rows + masks
}

// planGeometry validates params against a vector length and fixes the
// commitment's sizes.
func planGeometry(params Params, n int) (geometry, error) {
	if err := params.validate(); err != nil {
		return geometry{}, err
	}
	if n < params.Rows || n&(n-1) != 0 {
		return geometry{}, fmt.Errorf("pcs: vector length %d must be a power of two ≥ %d rows", n, params.Rows)
	}
	cols := n / params.Rows
	msgLen := cols
	if params.ZK {
		msgLen = cols + params.Code.Queries()
	}
	// Round msgLen to a power of two for the row code.
	for msgLen&(msgLen-1) != 0 {
		msgLen++
	}
	zkTail := 0
	if params.ZK {
		zkTail = params.Code.Queries()
	}
	return geometry{
		n:      n,
		cols:   cols,
		msgLen: msgLen,
		encLen: msgLen * params.Code.Blowup(),
		zkTail: zkTail,
		total:  params.Rows + params.numMasks(),
	}, nil
}

// Shared is witness-independent commitment state precomputed once and
// reused for every member of a batch with identical parameters and
// vector length: the validated geometry plan plus warmed size-dependent
// encoder caches. The plan carries no witness-dependent state, so
// commitments produced through it are byte-identical to solo CommitCtx
// commitments. A Shared plan is immutable after NewSharedCtx and safe
// for concurrent use.
type Shared struct {
	params Params
	geom   geometry
}

// NewSharedCtx validates the parameters, fixes the commitment geometry
// for vectors of length n, and warms the size-dependent encoder caches
// (NTT twiddle tables and any code-specific layout) by encoding one
// zero-message row, so no batch member pays for building them.
func NewSharedCtx(ctx context.Context, params Params, n int) (*Shared, error) {
	g, err := planGeometry(params, n)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	msg := arena.GetCtx(ctx, g.msgLen)
	defer arena.Put(msg)
	enc := arena.GetUninitCtx(ctx, g.encLen)
	defer arena.Put(enc)
	if err := params.Code.EncodeRowsIntoCtx(ctx, [][]field.Element{enc}, [][]field.Element{msg}); err != nil {
		return nil, fmt.Errorf("pcs: shared warm-up encode: %w", err)
	}
	return &Shared{params: params, geom: g}, nil
}

// Params returns the parameters the plan was built for.
func (sh *Shared) Params() Params { return sh.params }

// CommitSharedCtx is CommitCtx against a precomputed Shared plan:
// validation and geometry planning are skipped (the plan already warmed
// the per-size caches). The resulting commitment is byte-identical to
// CommitCtx with the same parameters and vector.
func CommitSharedCtx(ctx context.Context, sh *Shared, vec []field.Element) (*ProverState, error) {
	if len(vec) != sh.geom.n {
		return nil, fmt.Errorf("pcs: vector length %d does not match shared plan length %d", len(vec), sh.geom.n)
	}
	return commitPlanned(ctx, sh.params, sh.geom, vec)
}

// commitPlanned is the shared body of CommitCtx and CommitSharedCtx:
// commit vec under an already-validated geometry.
func commitPlanned(ctx context.Context, params Params, g geometry, vec []field.Element) (*ProverState, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := g.n
	cols, msgLen, zkTail := g.cols, g.msgLen, g.zkTail

	// The row, mask, and codeword matrices are subslices of three arena
	// checkouts, owned by the ProverState until Close. rowsBuf is zeroed
	// (the pad region past data+ZK tail must be zero); the other two are
	// fully overwritten before use.
	rowsBuf := arena.GetCtx(ctx, params.Rows*msgLen)
	masksBuf := arena.GetUninitCtx(ctx, params.numMasks()*msgLen)
	var encBuf []field.Element
	committed := false
	defer func() {
		if !committed {
			arena.Put(rowsBuf)
			arena.Put(masksBuf)
			arena.Put(encBuf)
		}
	}()

	rows := make([][]field.Element, params.Rows)
	for r := range rows {
		row := rowsBuf[r*msgLen : (r+1)*msgLen]
		copy(row[:cols], vec[r*cols:(r+1)*cols])
		randFill(row[cols : cols+zkTail])
		rows[r] = row
	}
	masks := make([][]field.Element, params.numMasks())
	for i := range masks {
		m := masksBuf[i*msgLen : (i+1)*msgLen]
		randFill(m)
		masks[i] = m
	}

	total := params.Rows + len(masks)
	all := make([][]field.Element, 0, total)
	all = append(all, rows...)
	all = append(all, masks...)
	encLen := g.encLen
	encBuf = arena.GetUninitCtx(ctx, total*encLen)
	encoded := make([][]field.Element, total)
	for r := range encoded {
		encoded[r] = encBuf[r*encLen : (r+1)*encLen]
	}
	// Row encodes are independent (the parallel CPU baseline of §III) and
	// fan out inside the kernel, which contains worker faults — an encode
	// panic becomes an error from Commit (and thus Prove) instead of
	// killing the serving process — and stops dispatching rows once ctx is
	// cancelled.
	if err := faultinject.Check(fiCommitEncode); err != nil {
		return nil, fmt.Errorf("pcs: row encode: %w", err)
	}
	if err := params.Code.EncodeRowsIntoCtx(ctx, encoded, all); err != nil {
		return nil, fmt.Errorf("pcs: row encode: %w", err)
	}

	if err := faultinject.Check(fiCommitLeaves); err != nil {
		return nil, fmt.Errorf("pcs: column hash: %w", err)
	}
	eng := params.Engine()
	leaves := make([]hashfn.Digest, encLen)
	if err := kernel.ColumnLeavesCtx(ctx, eng, leaves, encoded); err != nil {
		return nil, fmt.Errorf("pcs: column hash: %w", err)
	}
	if err := faultinject.Check(fiCommitTree); err != nil {
		return nil, fmt.Errorf("pcs: merkle build: %w", err)
	}
	tree, err := merkle.NewEngineCtx(ctx, eng, leaves)
	if err != nil {
		return nil, fmt.Errorf("pcs: merkle build: %w", err)
	}

	committed = true
	state := &ProverState{
		params:   params,
		rows:     rows,
		masks:    masks,
		encoded:  encoded,
		rowsBuf:  rowsBuf,
		masksBuf: masksBuf,
		encBuf:   encBuf,
		tree:     tree,
		comm: &Commitment{
			Root:    tree.Root(),
			NumVars: bits.TrailingZeros(uint(n)),
			Rows:    params.Rows,
			Cols:    cols,
			MsgLen:  msgLen,
		},
	}
	return state, nil
}

// OpeningProof proves evaluations of a committed polynomial at one or
// more points.
type OpeningProof struct {
	// ProxVectors are the γᵀM (+mask) row combinations of the proximity
	// test, each MsgLen long.
	ProxVectors [][]field.Element
	// EvalVectors are the q_rowᵀM (+mask) combinations, one per point.
	EvalVectors [][]field.Element
	// MaskCorrections holds ⟨mask_i[:Cols], q_col_i⟩ per point (ZK only).
	MaskCorrections []field.Element
	// Columns are the opened encoded columns, Queries × (Rows+numMasks).
	Columns [][]field.Element
	// Paths authenticate the columns against the Merkle root.
	Paths []merkle.Path
}

// SizeBytes returns the serialized proof size; this is what dominates the
// megabyte-scale Spartan+Orion proofs of paper Table III.
func (p *OpeningProof) SizeBytes() int {
	n := 0
	for _, v := range p.ProxVectors {
		n += 8 * len(v)
	}
	for _, v := range p.EvalVectors {
		n += 8 * len(v)
	}
	n += 8 * len(p.MaskCorrections)
	for _, c := range p.Columns {
		n += 8 * len(c)
	}
	for _, path := range p.Paths {
		n += path.SizeBytes()
	}
	return n
}

// splitPoint separates an evaluation point into its row part (first
// log2(Rows) variables) and column part.
func splitPoint(comm *Commitment, point []field.Element) (rowPart, colPart []field.Element, err error) {
	if len(point) != comm.NumVars {
		return nil, nil, fmt.Errorf("pcs: point has %d vars, commitment has %d", len(point), comm.NumVars)
	}
	logRows := bits.TrailingZeros(uint(comm.Rows))
	return point[:logRows], point[logRows:], nil
}

// combineRows returns coeffsᵀ·rows (+ mask if non-nil), over MsgLen.
// The result escapes into the proof, so it is plain-allocated, never
// arena scratch.
func combineRows(ctx context.Context, rows [][]field.Element, coeffs []field.Element, mask []field.Element, msgLen int) []field.Element {
	out := make([]field.Element, msgLen)
	if mask != nil {
		copy(out, mask)
	}
	kernel.VecCombineCtx(ctx, out, coeffs, rows)
	return out
}

// evaluate returns q_rowᵀ M q_col over the data region, with the rows'
// inner products fanned out across the worker pool. Partial sums are
// added in whatever order ranges finish; field addition is exact, so the
// value does not depend on it.
func (s *ProverState) evaluate(ctx context.Context, qRow, qCol []field.Element) field.Element {
	sp := kernel.BeginCtx(ctx, kernel.StagePoly)
	cols := s.comm.Cols
	var mu sync.Mutex
	var v field.Element
	par.ForSized(s.comm.Rows, cols, func(lo, hi int) {
		var part field.Acc
		for r := lo; r < hi; r++ {
			part = part.AddMul(qRow[r], field.InnerProduct(s.rows[r][:cols], qCol))
		}
		mu.Lock()
		v = field.Add(v, part.Reduce())
		mu.Unlock()
	})
	field.AddMulCount(uint64(s.comm.Rows))
	sp.End(s.comm.Rows * cols)
	return v
}

// Open proves the evaluations of the committed polynomial at points.
// It returns the proof and the evaluation values. The transcript binds
// the commitment, points, and values before challenges are squeezed.
func (s *ProverState) Open(tr *transcript.Transcript, points [][]field.Element) (*OpeningProof, []field.Element, error) {
	return s.OpenCtx(context.Background(), tr, points)
}

// OpenCtx is Open with cooperative cancellation (checked between the
// per-point evaluation, proximity, and column stages) and
// fault-injection points at each stage boundary ("pcs.open.eval",
// "pcs.open.prox", "pcs.open.columns").
func (s *ProverState) OpenCtx(ctx context.Context, tr *transcript.Transcript, points [][]field.Element) (*OpeningProof, []field.Element, error) {
	if len(points) == 0 {
		return nil, nil, errors.New("pcs: no evaluation points")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := faultinject.Check(fiOpenEval); err != nil {
		return nil, nil, err
	}
	if s.params.ZK && len(points) > s.params.MaxPoints {
		return nil, nil, fmt.Errorf("pcs: %d points exceeds MaxPoints %d", len(points), s.params.MaxPoints)
	}
	comm := s.comm
	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendUint64("pcs/points", uint64(len(points)))

	// The eq-tables are opening-local scratch; returned to the arena on
	// every exit path below.
	values := make([]field.Element, len(points))
	qCols := make([][]field.Element, len(points))
	qRows := make([][]field.Element, len(points))
	defer func() {
		for _, q := range qRows {
			arena.Put(q)
		}
		for _, q := range qCols {
			arena.Put(q)
		}
	}()
	for i, pt := range points {
		rowPart, colPart, err := splitPoint(comm, pt)
		if err != nil {
			return nil, nil, err
		}
		qRows[i] = arena.GetUninitCtx(ctx, 1<<len(rowPart))
		poly.EqTableIntoCtx(ctx, qRows[i], rowPart)
		qCols[i] = arena.GetUninitCtx(ctx, 1<<len(colPart))
		poly.EqTableIntoCtx(ctx, qCols[i], colPart)
		values[i] = s.evaluate(ctx, qRows[i], qCols[i])
		tr.AppendElems("pcs/point", pt)
		tr.AppendElems("pcs/value", values[i:i+1])
	}

	proof := &OpeningProof{}

	// Proximity test: random row combinations.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := faultinject.Check(fiOpenProx); err != nil {
		return nil, nil, err
	}
	for j := 0; j < s.params.NumProximity; j++ {
		gamma := tr.Challenges(fmt.Sprintf("pcs/gamma%d", j), comm.Rows)
		var mask []field.Element
		if s.params.ZK {
			mask = s.masks[j]
		}
		u := combineRows(ctx, s.rows, gamma, mask, comm.MsgLen)
		proof.ProxVectors = append(proof.ProxVectors, u)
		tr.AppendElems("pcs/prox", u)
	}

	// Evaluation combinations.
	for i := range points {
		var mask []field.Element
		if s.params.ZK {
			mask = s.masks[s.params.NumProximity+i]
			proof.MaskCorrections = append(proof.MaskCorrections,
				field.InnerProduct(mask[:comm.Cols], qCols[i]))
		}
		u := combineRows(ctx, s.rows, qRows[i], mask, comm.MsgLen)
		proof.EvalVectors = append(proof.EvalVectors, u)
		tr.AppendElems("pcs/eval", u)
	}
	if s.params.ZK {
		tr.AppendElems("pcs/corrections", proof.MaskCorrections)
	}

	// Shared column openings.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := faultinject.Check(fiOpenColumns); err != nil {
		return nil, nil, err
	}
	encLen := comm.MsgLen * s.params.Code.Blowup()
	idxs := tr.ChallengeIndices("pcs/columns", s.params.Code.Queries(), encLen)
	total := comm.Rows + s.params.numMasks()
	// The opened columns escape into the proof together, so they share
	// one backing allocation.
	cols := make([]field.Element, len(idxs)*total)
	proof.Columns = make([][]field.Element, len(idxs))
	proof.Paths = make([]merkle.Path, len(idxs))
	for q, j := range idxs {
		col := cols[q*total : (q+1)*total : (q+1)*total]
		for r := range col {
			col[r] = s.encoded[r][j]
		}
		proof.Columns[q] = col
		proof.Paths[q] = s.tree.Open(j)
	}
	return proof, values, nil
}

// Errors returned by Verify, each anchored in the zkerr taxonomy:
// ErrMalformed is structural (shape/counts), ErrGeometry means the
// commitment disagrees with the agreed parameters, and the rest are
// soundness failures on structurally valid proofs.
var (
	ErrProximity  = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed, "pcs: proximity check failed")
	ErrEvalCheck  = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed, "pcs: evaluation consistency check failed")
	ErrValue      = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed, "pcs: claimed value mismatch")
	ErrColumnAuth = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed, "pcs: column authentication failed")
	ErrMalformed  = zkerr.Wrap(zkerr.ErrMalformedProof, "pcs: malformed proof")
	ErrGeometry   = zkerr.Wrap(zkerr.ErrBadCommitment, "pcs: commitment geometry")
)

// Verify checks an opening proof for the claimed values at points. The
// params must match the committer's. Verify never panics on hostile
// (comm, proof) contents: structural faults return typed errors and any
// internal invariant violation is contained as zkerr.ErrInternal.
func Verify(params Params, comm *Commitment, tr *transcript.Transcript,
	points [][]field.Element, values []field.Element, proof *OpeningProof) error {
	return VerifyCtx(context.Background(), params, comm, tr, points, values, proof)
}

// VerifyCtx is Verify with cooperative cancellation: the context is
// checked before the codeword re-encodes and by every fan-out of the
// encode and of the batched column checks, with fault-injection points
// at both boundaries ("pcs.verify.encode", "pcs.verify.columns").
func VerifyCtx(ctx context.Context, params Params, comm *Commitment, tr *transcript.Transcript,
	points [][]field.Element, values []field.Element, proof *OpeningProof) (err error) {

	defer zkerr.RecoverTo(&err, "pcs.Verify")
	if err := params.validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if comm == nil || proof == nil {
		return fmt.Errorf("%w: nil commitment or proof", ErrMalformed)
	}
	if len(points) != len(values) || len(points) == 0 {
		return fmt.Errorf("%w: %d points, %d values", ErrMalformed, len(points), len(values))
	}
	if len(proof.ProxVectors) != params.NumProximity ||
		len(proof.EvalVectors) != len(points) ||
		len(proof.Columns) != params.Code.Queries() ||
		len(proof.Paths) != params.Code.Queries() {
		return fmt.Errorf("%w: wrong vector/column counts", ErrMalformed)
	}
	if params.ZK && len(proof.MaskCorrections) != len(points) {
		return fmt.Errorf("%w: wrong mask correction count", ErrMalformed)
	}
	// Pin the commitment geometry to the agreed parameters: the prover
	// must not choose its own matrix shape.
	if comm.Rows != params.Rows {
		return fmt.Errorf("%w: commitment has %d rows, params say %d", ErrGeometry, comm.Rows, params.Rows)
	}
	if comm.NumVars < 1 || comm.NumVars > 40 || comm.Cols < 1 || comm.Cols > 1<<40 ||
		comm.Cols*comm.Rows != 1<<uint(comm.NumVars) {
		return fmt.Errorf("%w: inconsistent commitment geometry", ErrGeometry)
	}
	wantMsg := comm.Cols
	if params.ZK {
		wantMsg += params.Code.Queries()
	}
	for wantMsg&(wantMsg-1) != 0 {
		wantMsg++
	}
	if comm.MsgLen != wantMsg {
		return fmt.Errorf("%w: message length %d, expected %d", ErrGeometry, comm.MsgLen, wantMsg)
	}

	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendUint64("pcs/points", uint64(len(points)))

	qCols := make([][]field.Element, len(points))
	qRows := make([][]field.Element, len(points))
	for i, pt := range points {
		rowPart, colPart, err := splitPoint(comm, pt)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrGeometry, err)
		}
		qRows[i] = poly.EqTable(rowPart)
		qCols[i] = poly.EqTable(colPart)
		tr.AppendElems("pcs/point", pt)
		tr.AppendElems("pcs/value", []field.Element{values[i]})
	}

	// Re-derive challenges in transcript order.
	gammas := make([][]field.Element, params.NumProximity)
	for j := 0; j < params.NumProximity; j++ {
		gammas[j] = tr.Challenges(fmt.Sprintf("pcs/gamma%d", j), comm.Rows)
		if len(proof.ProxVectors[j]) != comm.MsgLen {
			return fmt.Errorf("%w: proximity vector length", ErrMalformed)
		}
		tr.AppendElems("pcs/prox", proof.ProxVectors[j])
	}
	for i := range points {
		if len(proof.EvalVectors[i]) != comm.MsgLen {
			return fmt.Errorf("%w: eval vector length", ErrMalformed)
		}
		tr.AppendElems("pcs/eval", proof.EvalVectors[i])
	}
	if params.ZK {
		tr.AppendElems("pcs/corrections", proof.MaskCorrections)
	}

	// Value checks: ⟨u'_i[:Cols], q_col⟩ (− correction) == claimed value.
	for i := range points {
		got := field.InnerProduct(proof.EvalVectors[i][:comm.Cols], qCols[i])
		if params.ZK {
			got = field.Sub(got, proof.MaskCorrections[i])
		}
		if got != values[i] {
			return fmt.Errorf("%w (point %d)", ErrValue, i)
		}
	}

	// Encode every transmitted combination once, in one kernel call.
	if err := faultinject.Check(fiVerifyEncode); err != nil {
		return err
	}
	encLen := comm.MsgLen * params.Code.Blowup()
	msgs := make([][]field.Element, 0, len(proof.ProxVectors)+len(proof.EvalVectors))
	msgs = append(append(msgs, proof.ProxVectors...), proof.EvalVectors...)
	encBuf := arena.GetUninitCtx(ctx, len(msgs)*encLen)
	defer arena.Put(encBuf)
	enc := make([][]field.Element, len(msgs))
	for i := range enc {
		enc[i] = encBuf[i*encLen : (i+1)*encLen]
	}
	if err := params.Code.EncodeRowsIntoCtx(ctx, enc, msgs); err != nil {
		return err
	}
	encProx, encEval := enc[:len(proof.ProxVectors)], enc[len(proof.ProxVectors):]

	// Column checks at shared query positions.
	if err := faultinject.Check(fiVerifyColumns); err != nil {
		return err
	}
	idxs := tr.ChallengeIndices("pcs/columns", params.Code.Queries(), encLen)
	return checkColumns(ctx, params, comm, proof, idxs, gammas, qRows, encProx, encEval)
}

// checkColumns runs the spot checks of every opened column — height,
// index, Merkle authentication, proximity, evaluation — and returns the
// error of the first column that fails, naming the first check it fails
// in that order; a proof fails exactly as a column-by-column loop would
// fail it. The work is batched: the structural checks run first and
// bound the columns worth hashing, the leaves of those columns are hashed
// eight at a time and their paths walked level by level, and the linear
// checks fan out across the worker pool; the verdicts are then read in
// column order.
func checkColumns(ctx context.Context, params Params, comm *Commitment, proof *OpeningProof, idxs []int,
	gammas, qRows, encProx, encEval [][]field.Element) error {

	// Structural checks. Columns after the first structurally bad one
	// cannot be reported, so only the prefix before it is checked further.
	total := comm.Rows + params.numMasks()
	var structErr error
	n := len(idxs)
	for q, j := range idxs {
		if len(proof.Columns[q]) != total {
			structErr = fmt.Errorf("%w: column height", ErrMalformed)
		} else if idx := proof.Paths[q].Index; idx != j {
			structErr = fmt.Errorf("%w: column %d opened at %d, expected %d", ErrColumnAuth, q, idx, j)
		}
		if structErr != nil {
			n = q
			break
		}
	}
	cols, paths := proof.Columns[:n], proof.Paths[:n]

	eng := params.Engine()
	leaves := make([]hashfn.Digest, n)
	if err := kernel.HashColumnsCtx(ctx, eng, leaves, cols); err != nil {
		return err
	}
	authErrs := make([]error, n)
	merkle.VerifyManyEngine(eng, comm.Root, leaves, paths, authErrs)

	colErrs := make([]error, n)
	err := par.ForErrCtxSized(ctx, n, total*(len(gammas)+len(qRows)), func(lo, hi int) error {
		for q := lo; q < hi; q++ {
			colErrs[q] = checkColumn(params, comm, cols[q], idxs[q], q, authErrs[q], gammas, qRows, encProx, encEval)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, err := range colErrs {
		if err != nil {
			return err
		}
	}
	return structErr
}

// checkColumn returns the first failing check of one structurally valid
// opened column q at codeword position j, given its authentication
// verdict.
func checkColumn(params Params, comm *Commitment, col []field.Element, j, q int, authErr error,
	gammas, qRows, encProx, encEval [][]field.Element) error {

	if authErr != nil {
		return fmt.Errorf("%w: column %d: %v", ErrColumnAuth, q, authErr)
	}
	// Proximity: Enc(γᵀM + mask_j)[j] == γᵀ·col_data + col_mask_j.
	for pj, gamma := range gammas {
		want := field.InnerProduct(gamma, col[:comm.Rows])
		if params.ZK {
			want = field.Add(want, col[comm.Rows+pj])
		}
		if encProx[pj][j] != want {
			return fmt.Errorf("%w (vector %d, column %d)", ErrProximity, pj, j)
		}
	}
	// Evaluation combinations.
	for i, qRow := range qRows {
		want := field.InnerProduct(qRow, col[:comm.Rows])
		if params.ZK {
			want = field.Add(want, col[comm.Rows+params.NumProximity+i])
		}
		if encEval[i][j] != want {
			return fmt.Errorf("%w (point %d, column %d)", ErrEvalCheck, i, j)
		}
	}
	return nil
}
