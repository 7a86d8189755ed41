package merkle

import (
	"fmt"
	"math/rand"
	"testing"

	"nocap/internal/cpu"
	"nocap/internal/hashfn"
)

// walkReference is the scalar path walk, written out independently of
// VerifyManyEngine: one Hash2 per sibling in index order.
func walkReference(eng hashfn.Engine, root, leaf hashfn.Digest, p Path) error {
	h, idx := leaf, p.Index
	for _, sib := range p.Siblings {
		if idx&1 == 0 {
			h = eng.Hash2(h, sib)
		} else {
			h = eng.Hash2(sib, h)
		}
		idx >>= 1
	}
	if h != root || idx != 0 {
		return ErrPathMismatch
	}
	return nil
}

// mixedPaths opens count leaves of tr and spoils some of them in every
// way a hostile proof can: a wrong leaf, a flipped sibling, a wrong or
// negative index, a truncated, extended or empty path. Spoiled and
// valid paths interleave, so their depths are ragged.
func mixedPaths(rng *rand.Rand, tr *Tree, leaves []hashfn.Digest, count int) ([]hashfn.Digest, []Path) {
	ls := make([]hashfn.Digest, count)
	ps := make([]Path, count)
	for q := range ps {
		i := rng.Intn(tr.NumLeaves())
		ls[q], ps[q] = leaves[i], tr.Open(i)
		sib := ps[q].Siblings
		switch rng.Intn(9) {
		case 0:
			ls[q][rng.Intn(hashfn.Size)] ^= 1
		case 1:
			if len(sib) > 0 {
				sib[rng.Intn(len(sib))][0] ^= 0x80
			}
		case 2:
			ps[q].Index ^= 1 << rng.Intn(max(1, len(sib)))
		case 3:
			ps[q].Index = -1 - rng.Intn(4)
		case 4:
			if len(sib) > 0 {
				ps[q].Siblings = sib[:rng.Intn(len(sib))]
			}
		case 5:
			var extra hashfn.Digest
			rng.Read(extra[:])
			ps[q].Siblings = append(sib, extra)
		case 6:
			ps[q].Siblings = nil
		}
	}
	return ls, ps
}

// checkVerifyManyParity requires the batch walk, on every datapath, to
// give each path the verdict of its own scalar walk and of VerifyEngine.
func checkVerifyManyParity(t *testing.T, eng hashfn.Engine, root hashfn.Digest, ls []hashfn.Digest, ps []Path) {
	t.Helper()
	cpu.Each(func(l cpu.Level) {
		errs := make([]error, len(ps))
		VerifyManyEngine(eng, root, ls, ps, errs)
		for q := range ps {
			want := walkReference(eng, root, ls[q], ps[q])
			if errs[q] != want {
				t.Fatalf("%v %s: path %d (index %d, %d siblings): batch %v, scalar walk %v",
					l, eng.Name(), q, ps[q].Index, len(ps[q].Siblings), errs[q], want)
			}
			if one := VerifyEngine(eng, root, ls[q], ps[q]); one != want {
				t.Fatalf("%v %s: path %d: VerifyEngine %v, scalar walk %v", l, eng.Name(), q, one, want)
			}
		}
	})
}

func TestVerifyManyMatchesScalarWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{1, 2, 64, 1024} {
		leaves := randLeaves(n, int64(n)+40)
		tr := New(leaves)
		for _, count := range []int{0, 1, 7, 8, 9, 189} {
			t.Run(fmt.Sprintf("leaves=%d/paths=%d", n, count), func(t *testing.T) {
				ls, ps := mixedPaths(rng, tr, leaves, count)
				checkVerifyManyParity(t, hashfn.Default(), tr.Root(), ls, ps)
			})
		}
	}
}

// FuzzMerkleVerifyManyParity compares the level-by-level batch walk with
// per-path verification on mixed valid, tampered and ragged-depth paths,
// under every registered engine.
func FuzzMerkleVerifyManyParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(10), uint8(189))
	f.Fuzz(func(t *testing.T, seed int64, logLeaves, count uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (logLeaves % 11)
		leaves := randLeaves(n, seed)
		for _, name := range hashfn.Names() {
			eng, _ := hashfn.ByName(name)
			tr, err := NewEngineCtx(t.Context(), eng, leaves)
			if err != nil {
				t.Fatal(err)
			}
			ls, ps := mixedPaths(rng, tr, leaves, int(count))
			checkVerifyManyParity(t, eng, tr.Root(), ls, ps)
		}
	})
}

// BenchmarkVerifyMany authenticates the 189 opened columns of a
// 2^16-constraint proof: paths of depth 13.
func BenchmarkVerifyMany(b *testing.B) {
	leaves := randLeaves(1<<13, 41)
	tr := New(leaves)
	rng := rand.New(rand.NewSource(42))
	ls := make([]hashfn.Digest, 189)
	ps := make([]Path, 189)
	for q := range ps {
		i := rng.Intn(len(leaves))
		ls[q], ps[q] = leaves[i], tr.Open(i)
	}
	errs := make([]error, len(ps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VerifyManyEngine(hashfn.Default(), tr.Root(), ls, ps, errs)
	}
}
