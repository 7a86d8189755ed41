// Package merkle implements the Merkle-tree commitment used by the Orion
// polynomial commitment (paper §V-A): leaves are hashes of packed field
// element vectors (one codeword column per leaf), interior nodes are the
// 2-to-1 SHA3 compression of their children — the structure NoCap's hash
// FU builds layer by layer with grouped interleavings.
package merkle

import (
	"context"
	"math/bits"

	"nocap/internal/faultinject"
	"nocap/internal/field"
	"nocap/internal/hashfn"
	"nocap/internal/kernel"
	"nocap/internal/zkerr"
)

// fiBuildLevel is the registered fault-injection point between tree
// levels (chaos tests arm it by this name).
var fiBuildLevel = faultinject.Register("merkle.build.level")

// Tree is a full binary Merkle tree over a power-of-two number of leaves.
type Tree struct {
	// levels[0] is the leaf layer; levels[len-1] has a single root.
	levels [][]hashfn.Digest
}

// LeafOfColumn hashes one matrix column (a field-element vector) into a
// leaf digest, using the hash FU's packing of four 64-bit elements per
// 256-bit block.
func LeafOfColumn(col []field.Element) hashfn.Digest {
	return hashfn.HashElems(col)
}

// New builds a tree over the given leaves. The number of leaves must be a
// power of two and non-zero. An injected fault (chaos tests only)
// escapes as a panic contained by the caller's zkerr boundary;
// context-aware callers use NewCtx.
func New(leaves []hashfn.Digest) *Tree {
	t, err := NewCtx(context.Background(), leaves)
	if err != nil {
		panic(err)
	}
	return t
}

// NewCtx is New with cooperative cancellation: each level passes
// through the "merkle.build.level" fault-injection point, and the
// level-compression kernel polls the context at bounded intervals
// within a level. All 2n−1 nodes live in one backing allocation rather
// than one slice per level.
func NewCtx(ctx context.Context, leaves []hashfn.Digest) (*Tree, error) {
	return NewEngineCtx(ctx, hashfn.Default(), leaves)
}

// NewEngineCtx is NewCtx under an explicit hash engine: every level is
// compressed through the engine's batch entry point, so a multi-buffer
// engine hashes four tree nodes per interleaved pass.
func NewEngineCtx(ctx context.Context, eng hashfn.Engine, leaves []hashfn.Digest) (*Tree, error) {
	n := len(leaves)
	if n == 0 || n&(n-1) != 0 {
		panic("merkle: leaf count must be a positive power of two")
	}
	depth := bits.TrailingZeros(uint(n))
	nodes := make([]hashfn.Digest, 2*n-1)
	levels := make([][]hashfn.Digest, depth+1)
	levels[0] = nodes[:n]
	copy(levels[0], leaves)
	off := n
	for d := 1; d <= depth; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Check(fiBuildLevel); err != nil {
			return nil, err
		}
		prev := levels[d-1]
		cur := nodes[off : off+len(prev)/2]
		off += len(cur)
		if err := kernel.MerkleLevelCtx(ctx, eng, cur, prev); err != nil {
			return nil, err
		}
		levels[d] = cur
	}
	return &Tree{levels: levels}, nil
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return len(t.levels[0]) }

// Depth returns log2(NumLeaves).
func (t *Tree) Depth() int { return len(t.levels) - 1 }

// Root returns the tree root.
func (t *Tree) Root() hashfn.Digest { return t.levels[len(t.levels)-1][0] }

// Path is an authentication path for one leaf: the sibling digests from
// leaf level to just below the root.
type Path struct {
	Index    int
	Siblings []hashfn.Digest
}

// Open returns the authentication path for leaf i.
func (t *Tree) Open(i int) Path {
	if i < 0 || i >= t.NumLeaves() {
		panic("merkle: leaf index out of range")
	}
	siblings := make([]hashfn.Digest, t.Depth())
	idx := i
	for d := 0; d < t.Depth(); d++ {
		siblings[d] = t.levels[d][idx^1]
		idx >>= 1
	}
	return Path{Index: i, Siblings: siblings}
}

// SizeBytes returns the serialized size of the path (for proof-size
// accounting).
func (p Path) SizeBytes() int { return 8 + hashfn.Size*len(p.Siblings) }

// ErrPathMismatch is returned when an authentication path does not lead
// to the expected root. It is a soundness failure in the taxonomy: the
// path parsed fine but does not authenticate.
var ErrPathMismatch = zkerr.Wrap(zkerr.ErrSoundnessCheckFailed,
	"merkle: authentication path does not match root")

// Verify checks that leaf sits at p.Index under root.
func Verify(root hashfn.Digest, leaf hashfn.Digest, p Path) error {
	return VerifyEngine(hashfn.Default(), root, leaf, p)
}

// VerifyEngine is Verify under an explicit hash engine (the engine the
// tree was built with; the verifier takes it from its agreed params). It
// is the one-path case of VerifyManyEngine.
func VerifyEngine(eng hashfn.Engine, root hashfn.Digest, leaf hashfn.Digest, p Path) error {
	var errs [1]error
	VerifyManyEngine(eng, root, []hashfn.Digest{leaf}, []Path{p}, errs[:])
	return errs[0]
}

// VerifyManyEngine checks every paths[i] against leaves[i] under root and
// sets errs[i] to nil where the path authenticates and to
// ErrPathMismatch where it does not. The paths are walked level by level
// with one batch compression (eng.CompressMany) over every path still
// climbing at that depth, so a multi-buffer engine hashes many paths per
// permutation pass. Each path's own walk is exactly the scalar one: one
// 2-to-1 hash per sibling, its index shifted right per level, and a
// match only if it ends at root with the index used up — a path of any
// length, even a hostile one, gets the verdict a lone walk would give.
// leaves, paths and errs must have the same length.
func VerifyManyEngine(eng hashfn.Engine, root hashfn.Digest, leaves []hashfn.Digest, paths []Path, errs []error) {
	if len(leaves) != len(paths) || len(errs) != len(paths) {
		panic("merkle: batch verify length mismatch")
	}
	// One allocation: the running node per path, one level's input pairs,
	// and that level's outputs.
	nodes := make([]hashfn.Digest, 4*len(paths))
	h, pairs, out := nodes[:len(paths)], nodes[len(paths):3*len(paths)], nodes[3*len(paths):]
	copy(h, leaves)
	idx := make([]int, 2*len(paths)) // running index per path, then one level's climbers
	climbing := idx[len(paths):]
	depth := 0
	for i, p := range paths {
		idx[i] = p.Index
		depth = max(depth, len(p.Siblings))
	}
	for d := 0; d < depth; d++ {
		n := 0
		for i, p := range paths {
			if d >= len(p.Siblings) {
				continue
			}
			if idx[i]&1 == 0 {
				pairs[2*n], pairs[2*n+1] = h[i], p.Siblings[d]
			} else {
				pairs[2*n], pairs[2*n+1] = p.Siblings[d], h[i]
			}
			idx[i] >>= 1
			climbing[n] = i
			n++
		}
		eng.CompressMany(out[:n], pairs[:2*n])
		for k, i := range climbing[:n] {
			h[i] = out[k]
		}
	}
	for i := range paths {
		errs[i] = nil
		if h[i] != root || idx[i] != 0 {
			errs[i] = ErrPathMismatch
		}
	}
}
