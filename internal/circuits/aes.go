package circuits

import (
	"sync"

	"nocap/internal/field"
	"nocap/internal/r1cs"
)

// AES builds a real AES-128 encryption circuit (the paper's AES
// benchmark, §VII-B: proving a ciphertext is well-formed without
// revealing the key). The key is secret; plaintext and ciphertext are
// public. State bytes are carried as bit wires; SubBytes is the
// degree-255 interpolation polynomial of the S-box (lookup-free),
// ShiftRows is free rewiring, MixColumns is xtime/XOR circuitry, and
// AddRoundKey is bitwise XOR.
//
// blocks > 1 encrypts consecutive plaintext blocks under the same key
// (ECB over the supplied data), scaling the circuit the way the paper
// scales its benchmark to 1,000 blocks.
func AES(key [16]byte, plaintext []byte) *Benchmark {
	if len(plaintext) == 0 || len(plaintext)%16 != 0 {
		panic("circuits: AES plaintext must be a positive multiple of 16 bytes")
	}
	b := r1cs.NewBuilder()

	// Secret key bits.
	keyBits := make([][]r1cs.Variable, 16)
	for i := range keyBits {
		keyBits[i] = byteToBits(b, key[i])
	}
	roundKeys := keyScheduleCircuit(b, keyBits)

	var outBytes []byte
	for blk := 0; blk*16 < len(plaintext); blk++ {
		// Public plaintext bytes, decomposed to bits.
		state := make([][]r1cs.Variable, 16)
		for i := range state {
			pt := b.Public(field.New(uint64(plaintext[blk*16+i])))
			state[i] = b.ToBits(r1cs.FromVar(pt), 8)
		}
		state = addRoundKey(b, state, roundKeys[0])
		for round := 1; round <= 10; round++ {
			for i := range state {
				state[i] = sboxCircuit(b, state[i])
			}
			state = shiftRows(state)
			if round < 10 {
				state = mixColumns(b, state)
			}
			state = addRoundKey(b, state, roundKeys[round])
		}
		outBytes = append(outBytes, exposeBytes(b, state)...)
	}

	inst, io, w := b.Build()
	return &Benchmark{Name: "aes", Inst: inst, IO: io, Witness: w, Outputs: outBytes}
}

// --- GF(2^8) reference arithmetic (witness-side) ---

// gmul multiplies in GF(2^8) with the AES polynomial 0x11b.
func gmul(a, x byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if x&1 == 1 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1b
		}
		x >>= 1
	}
	return p
}

// SBox is the AES S-box, computed from GF(2^8) inversion + affine map.
var SBox = func() [256]byte {
	var inv [256]byte
	for x := 1; x < 256; x++ {
		// Brute-force inverse (256×256 at init is fine).
		for y := 1; y < 256; y++ {
			if gmul(byte(x), byte(y)) == 1 {
				inv[x] = byte(y)
				break
			}
		}
	}
	var sbox [256]byte
	for x := 0; x < 256; x++ {
		v := inv[x]
		sbox[x] = v ^ rotl8(v, 1) ^ rotl8(v, 2) ^ rotl8(v, 3) ^ rotl8(v, 4) ^ 0x63
	}
	return sbox
}()

func rotl8(v byte, k uint) byte { return v<<k | v>>(8-k) }

// sboxPolyOnce interpolates the degree-255 polynomial with
// p(x) = SBox[x] for x = 0…255 over the Goldilocks field.
var sboxPolyOnce = sync.OnceValue(func() []field.Element {
	// Newton's divided differences on points 0..255.
	n := 256
	xs := make([]field.Element, n)
	divided := make([]field.Element, n)
	for i := 0; i < n; i++ {
		xs[i] = field.New(uint64(i))
		divided[i] = field.New(uint64(SBox[i]))
	}
	// divided[j] becomes f[x_0..x_j].
	for level := 1; level < n; level++ {
		for j := n - 1; j >= level; j-- {
			num := field.Sub(divided[j], divided[j-1])
			den := field.Sub(xs[j], xs[j-level])
			divided[j] = field.Div(num, den)
		}
	}
	// Expand Newton form to monomial coefficients.
	coeffs := make([]field.Element, n)
	basis := make([]field.Element, 1, n) // Π (x − x_i), starts as [1]
	basis[0] = field.One
	for j := 0; j < n; j++ {
		for k := range basis {
			coeffs[k] = field.Add(coeffs[k], field.Mul(divided[j], basis[k]))
		}
		// basis *= (x − x_j)
		next := make([]field.Element, len(basis)+1)
		for k, c := range basis {
			next[k] = field.Sub(next[k], field.Mul(c, xs[j]))
			next[k+1] = field.Add(next[k+1], c)
		}
		basis = next
	}
	return coeffs
})

// SBoxPoly returns the monomial coefficients of the S-box interpolation
// polynomial (degree 255).
func SBoxPoly() []field.Element { return sboxPolyOnce() }

// sboxCircuit applies the S-box to a byte (as bits): recompose the byte,
// evaluate the interpolation polynomial by Horner (255 multiply
// constraints), and re-decompose to bits.
func sboxCircuit(b *r1cs.Builder, bits []r1cs.Variable) []r1cs.Variable {
	coeffs := SBoxPoly()
	x := r1cs.FromBits(bits)
	acc := r1cs.Const(coeffs[255])
	// Horner's rule: acc = m + c_i, with m = acc·x. The builder copies
	// what it keeps, so one two-term buffer serves every step; a zero
	// c_i is dropped when the constraint is emitted (Var 0 is the
	// constant wire).
	var step [2]r1cs.Term
	for i := 254; i >= 0; i-- {
		m := b.Mul(acc, x)
		step = [2]r1cs.Term{{Coeff: field.One, Var: m}, {Coeff: coeffs[i]}}
		acc = step[:]
	}
	out := b.Secret(b.Eval(acc))
	b.AssertEq(acc, r1cs.FromVar(out))
	return b.ToBits(r1cs.FromVar(out), 8)
}

// xtimeCircuit computes GF(2^8) multiplication by 2 on bit wires:
// out = (b<<1) ⊕ (b7 ? 0x1b : 0). Only bits 0,1,3,4 need XOR gates.
func xtimeCircuit(b *r1cs.Builder, bits []r1cs.Variable) []r1cs.Variable {
	b7 := bits[7]
	out := make([]r1cs.Variable, 8)
	out[0] = b7
	out[1] = b.Xor(bits[0], b7)
	out[2] = bits[1]
	out[3] = b.Xor(bits[2], b7)
	out[4] = b.Xor(bits[3], b7)
	out[5] = bits[4]
	out[6] = bits[5]
	out[7] = bits[6]
	return out
}

// shiftRows permutes state bytes (column-major AES state): free rewiring.
func shiftRows(state [][]r1cs.Variable) [][]r1cs.Variable {
	out := make([][]r1cs.Variable, 16)
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			out[c*4+r] = state[((c+r)%4)*4+r]
		}
	}
	return out
}

// mixColumns applies the MixColumns matrix per 4-byte column.
func mixColumns(b *r1cs.Builder, state [][]r1cs.Variable) [][]r1cs.Variable {
	out := make([][]r1cs.Variable, 16)
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := state[c*4], state[c*4+1], state[c*4+2], state[c*4+3]
		d0, d1, d2, d3 := xtimeCircuit(b, a0), xtimeCircuit(b, a1), xtimeCircuit(b, a2), xtimeCircuit(b, a3)
		// out0 = 2a0 ⊕ 3a1 ⊕ a2 ⊕ a3, etc. (3x = 2x ⊕ x).
		out[c*4+0] = xorBits(b, xorBits(b, d0, xorBits(b, d1, a1)), xorBits(b, a2, a3))
		out[c*4+1] = xorBits(b, xorBits(b, a0, d1), xorBits(b, xorBits(b, d2, a2), a3))
		out[c*4+2] = xorBits(b, xorBits(b, a0, a1), xorBits(b, d2, xorBits(b, d3, a3)))
		out[c*4+3] = xorBits(b, xorBits(b, d0, a0), xorBits(b, a1, xorBits(b, a2, d3)))
	}
	return out
}

// addRoundKey XORs the round key into the state.
func addRoundKey(b *r1cs.Builder, state, rk [][]r1cs.Variable) [][]r1cs.Variable {
	out := make([][]r1cs.Variable, 16)
	for i := range out {
		out[i] = xorBits(b, state[i], rk[i])
	}
	return out
}

// keyScheduleCircuit expands the key into 11 round keys in-circuit.
func keyScheduleCircuit(b *r1cs.Builder, key [][]r1cs.Variable) [][][]r1cs.Variable {
	rcon := []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}
	words := make([][][]r1cs.Variable, 44) // 44 words of 4 bytes
	for w := 0; w < 4; w++ {
		words[w] = key[w*4 : w*4+4]
	}
	for w := 4; w < 44; w++ {
		var temp [][]r1cs.Variable
		if w%4 == 0 {
			// RotWord + SubWord + Rcon.
			rot := [][]r1cs.Variable{words[w-1][1], words[w-1][2], words[w-1][3], words[w-1][0]}
			temp = make([][]r1cs.Variable, 4)
			for i := range temp {
				temp[i] = sboxCircuit(b, rot[i])
			}
			// XOR rcon into byte 0: rcon is a constant, so XOR with a
			// constant flips bits; flip bit i when rcon bit i is 1.
			rc := rcon[w/4-1]
			flipped := make([]r1cs.Variable, 8)
			for i := 0; i < 8; i++ {
				if rc>>uint(i)&1 == 1 {
					nb := b.Secret(b.Eval(r1cs.Not(temp[0][i])))
					b.AssertEq(r1cs.Not(temp[0][i]), r1cs.FromVar(nb))
					flipped[i] = nb
				} else {
					flipped[i] = temp[0][i]
				}
			}
			temp[0] = flipped
		} else {
			temp = words[w-1]
		}
		nw := make([][]r1cs.Variable, 4)
		for i := 0; i < 4; i++ {
			nw[i] = xorBits(b, words[w-4][i], temp[i])
		}
		words[w] = nw
	}
	keys := make([][][]r1cs.Variable, 11)
	for r := 0; r < 11; r++ {
		rk := make([][]r1cs.Variable, 16)
		for wi := 0; wi < 4; wi++ {
			copy(rk[wi*4:wi*4+4], words[r*4+wi])
		}
		keys[r] = rk
	}
	return keys
}
