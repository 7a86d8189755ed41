package hashfn

import (
	"bytes"
	"crypto/sha3"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"nocap/internal/cpu"
	"nocap/internal/field"
)

// digestSink defeats dead-code elimination in the allocation tests.
var digestSink Digest

// TestEngineRegistry pins the registry contents: ids, names, default.
func TestEngineRegistry(t *testing.T) {
	if Default().ID() != IDSHA3 || Default().Name() != "sha3" {
		t.Fatalf("default engine is %q/%d, want sha3/%d", Default().Name(), Default().ID(), IDSHA3)
	}
	names := Names()
	if len(names) != 2 || names[0] != "sha3" || names[1] != "keccak-x4" {
		t.Fatalf("Names() = %v", names)
	}
	for _, id := range []ID{IDSHA3, IDKeccakX4} {
		e, ok := ByID(id)
		if !ok || e.ID() != id {
			t.Fatalf("ByID(%d) = %v, %v", id, e, ok)
		}
		byName, ok := ByName(e.Name())
		if !ok || byName.ID() != id {
			t.Fatalf("ByName(%q) does not round-trip", e.Name())
		}
	}
	if _, ok := ByID(0); ok {
		t.Fatal("ByID(0) resolved")
	}
	if _, ok := ByName("poseidon2"); ok {
		t.Fatal("ByName resolved an unregistered engine")
	}
}

// TestEngineGoldenVectors pins both engines to the published SHA3-256
// test vectors, so an engine can never silently drift from the
// primitive it claims to implement.
func TestEngineGoldenVectors(t *testing.T) {
	vectors := []struct{ msg, hexDigest string }{
		{"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
		{"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
	}
	for _, eng := range []Engine{Default(), mustEngine(t, IDKeccakX4)} {
		for _, v := range vectors {
			want, err := hex.DecodeString(v.hexDigest)
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.Sum([]byte(v.msg)); !bytes.Equal(got[:], want) {
				t.Errorf("%s: Sum(%q) = %x, want %s", eng.Name(), v.msg, got, v.hexDigest)
			}
		}
	}
}

func mustEngine(t *testing.T, id ID) Engine {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("engine %d not registered", id)
	}
	return e
}

// TestEngineCompressManyParity pins every batch datapath the machine
// has (8-way, 4-way, scalar, forced through the cpu seam) against
// crypto/sha3 across every batch size from 1 to 19 sibling pairs: the
// aligned sizes exercise full interleaved passes, the others every
// 8 → 4 → 1 cascade of tails, and every output position is checked
// independently.
func TestEngineCompressManyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x4 := mustEngine(t, IDKeccakX4)
	cpu.Each(func(l cpu.Level) {
		for pairs := 1; pairs <= 19; pairs++ {
			prev := make([]Digest, 2*pairs)
			for i := range prev {
				rng.Read(prev[i][:])
			}
			got := make([]Digest, pairs)
			x4.CompressMany(got, prev)
			ref := make([]Digest, pairs)
			Default().CompressMany(ref, prev)
			for i := 0; i < pairs; i++ {
				var cat [2 * Size]byte
				copy(cat[:Size], prev[2*i][:])
				copy(cat[Size:], prev[2*i+1][:])
				want := Digest(sha3.Sum256(cat[:]))
				if got[i] != want {
					t.Fatalf("%v pairs=%d node %d: keccak-x4 disagrees with crypto/sha3", l, pairs, i)
				}
				if ref[i] != want {
					t.Fatalf("%v pairs=%d node %d: sha3 engine disagrees with crypto/sha3", l, pairs, i)
				}
			}
		}
	})
}

// columnMatrix returns depth rows of cols random elements.
func columnMatrix(rng *rand.Rand, depth, cols int) [][]field.Element {
	rows := make([][]field.Element, depth)
	for r := range rows {
		rows[r] = make([]field.Element, cols)
		for c := range rows[r] {
			rows[r][c] = field.New(rng.Uint64())
		}
	}
	return rows
}

// sha3Column is the reference leaf: crypto/sha3 of column j's packed
// little-endian words.
func sha3Column(rows [][]field.Element, j int) Digest {
	col := make([]field.Element, len(rows))
	for r, row := range rows {
		col[r] = row[j]
	}
	return Digest(sha3.Sum256(ElemBytes(col)))
}

// TestEngineSumManyParity is the column-parity table of SumColumns: on
// every datapath, for depths that end a sponge block early, exactly, one
// word past it and across several blocks (17 words fill one), every
// group width 1…8 at every offset of a 21-column matrix must hash each
// column as crypto/sha3 does.
func TestEngineSumManyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x4 := mustEngine(t, IDKeccakX4)
	cpu.Each(func(l cpu.Level) {
		for _, depth := range []int{0, 1, 16, 17, 18, 34, 136, 140, 153, 300} {
			rows := columnMatrix(rng, depth, 21)
			want := make([]Digest, 21)
			for j := range want {
				want[j] = sha3Column(rows, j)
			}
			for width := 1; width <= 8; width++ {
				for j := 0; j+width <= len(want); j++ {
					got := make([]Digest, width)
					x4.SumColumns(got, rows, j)
					for k := range got {
						if got[k] != want[j+k] {
							t.Fatalf("%v depth=%d width=%d j=%d: column %d disagrees with crypto/sha3", l, depth, width, j, j+k)
						}
					}
				}
			}
		}
	})
}

// TestHashElemsMatchesEngines pins leaf packing across both engines and
// the package function: a leaf is the hash of the packed elements, the
// same digest whether HashElems computes it or an engine's SumColumns
// hashes the vector as the one column of a len(elems) × 1 matrix (the
// path the leaf kernels take).
func TestHashElemsMatchesEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 4, 17, 128, 140, 256, 257, 1000} {
		elems := make([]field.Element, n)
		for i := range elems {
			elems[i] = field.New(rng.Uint64())
		}
		want := Sum(ElemBytes(elems))
		if got := HashElems(elems); got != want {
			t.Fatalf("n=%d: HashElems mismatch", n)
		}
		rows := make([][]field.Element, n)
		for r := range rows {
			rows[r] = elems[r : r+1]
		}
		for _, eng := range []Engine{Default(), mustEngine(t, IDKeccakX4)} {
			var got [1]Digest
			eng.SumColumns(got[:], rows, 0)
			if got[0] != want {
				t.Fatalf("n=%d: %s leaf hash mismatch", n, eng.Name())
			}
		}
	}
}

// TestHashElemsNoAlloc is the satellite regression test: leaf-sized
// vectors must hash with zero allocations (the old implementation
// allocated a fresh byte buffer per call on the Merkle leaf hot path).
func TestHashElemsNoAlloc(t *testing.T) {
	elems := make([]field.Element, 140) // Rows + masks at paper scale
	for i := range elems {
		elems[i] = field.New(uint64(i) * 0x9e3779b97f4a7c15)
	}
	allocs := testing.AllocsPerRun(200, func() {
		digestSink = HashElems(elems)
	})
	if allocs != 0 {
		t.Fatalf("HashElems(%d elems) allocates %.1f times per call, want 0", len(elems), allocs)
	}
}

// FuzzEngineParity is the differential fuzz target of the engine layer:
// for arbitrary input bytes, every registered engine on every batch
// datapath the machine has (8-way, 4-way, scalar) must agree with
// crypto/sha3 on Sum, Hash2 and CompressMany outputs, for batch sizes
// 1…20 (every 8 → 4 → 1 split of a batch), and on SumColumns over a row
// matrix read from the input, for group widths 1…8 at offsets 0…3.
func FuzzEngineParity(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("nocap"), uint8(4))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(9))
	f.Add(bytes.Repeat([]byte{0x5a}, 1100), uint8(18))
	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		n := 1 + int(batch)%20
		// Derive n deterministic sibling pairs from the input.
		prev := make([]Digest, 2*n)
		for i := range prev {
			prev[i] = Sum(append([]byte{byte(i)}, data...))
		}
		want := make([]Digest, n)
		for i := 0; i < n; i++ {
			var cat [2 * Size]byte
			copy(cat[:Size], prev[2*i][:])
			copy(cat[Size:], prev[2*i+1][:])
			want[i] = Digest(sha3.Sum256(cat[:]))
		}
		// One row per 8 input bytes; column c of row r is that word
		// shifted by c, so the columns differ.
		width, j := 1+int(batch)%8, int(batch>>3)%4
		rows := make([][]field.Element, len(data)/8)
		for r := range rows {
			w := binary.LittleEndian.Uint64(data[8*r:])
			rows[r] = make([]field.Element, j+width)
			for c := range rows[r] {
				rows[r][c] = field.New(w + uint64(c)*0x9e3779b97f4a7c15)
			}
		}
		cols := make([]Digest, width)
		for k := range cols {
			cols[k] = sha3Column(rows, j+k)
		}
		cpu.Each(func(l cpu.Level) {
			for _, eng := range []Engine{Default(), keccakX4Engine{}} {
				if got := eng.Sum(data); got != Digest(sha3.Sum256(data)) {
					t.Fatalf("%s/%v: Sum mismatch", eng.Name(), l)
				}
				got := make([]Digest, n)
				eng.CompressMany(got, prev)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%v: CompressMany node %d mismatch", eng.Name(), l, i)
					}
				}
				leaves := make([]Digest, width)
				eng.SumColumns(leaves, rows, j)
				for k := range leaves {
					if leaves[k] != cols[k] {
						t.Fatalf("%s/%v: SumColumns column %d of %d rows mismatch", eng.Name(), l, j+k, len(rows))
					}
				}
			}
		})
	})
}
