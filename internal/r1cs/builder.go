package r1cs

import (
	"fmt"

	"nocap/internal/field"
)

// Variable is a handle to one wire of the circuit being built. Variable 0
// is the constant 1.
type Variable int

// oneVar is the constant-1 wire.
const oneVar Variable = 0

// Term is coeff·variable inside a linear combination.
type Term struct {
	Coeff field.Element
	Var   Variable
}

// LC is a linear combination of wires. The zero value is the empty
// (zero) combination.
type LC []Term

// Const returns the constant linear combination v·1.
func Const(v field.Element) LC {
	if v.IsZero() {
		return nil
	}
	return LC{{Coeff: v, Var: oneVar}}
}

// FromVar returns the linear combination 1·v.
func FromVar(v Variable) LC { return LC{{Coeff: field.One, Var: v}} }

// AddLC returns a+b (terms concatenated; duplicates are merged when the
// constraint is emitted).
func AddLC(a, b LC) LC {
	out := make(LC, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// ScaleLC returns s·a.
func ScaleLC(s field.Element, a LC) LC {
	if s.IsZero() {
		return nil
	}
	out := make(LC, len(a))
	for i, t := range a {
		out[i] = Term{Coeff: field.Mul(s, t.Coeff), Var: t.Var}
	}
	return out
}

// SubLC returns a−b.
func SubLC(a, b LC) LC { return AddLC(a, ScaleLC(field.Neg(field.One), b)) }

// entryBlock is how many entries Constrain carves rows from at a time:
// one allocation per 64 KiB of nonzeros instead of one per row.
const entryBlock = 1 << 12

// Builder constructs an R1CS instance and its witness simultaneously:
// every allocated wire carries its concrete value, so Build returns a
// satisfied (Instance, io, witness) triple directly. Gadget synthesis is
// data-oblivious, so the matrices depend only on the circuit structure.
//
// Constrain writes each constraint straight into the instance's rows:
// the nonzero terms of a, b and c become its rows of A, B and C, back to
// back in one entry block, with the wire in Col until Build maps it to
// its z column. No linear combination outlives the call that passes it.
type Builder struct {
	values    []field.Element // indexed by Variable; [0] = 1
	isPublic  []bool
	numPublic int
	lens      [][3]uint32 // per constraint, its row lengths in A, B, C
	blocks    [][]Entry   // entry blocks, filled in constraint order
	used      int         // entries used in the last block
	built     bool
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder {
	return &Builder{
		values:   []field.Element{field.One},
		isPublic: []bool{true},
	}
}

// NumConstraints returns the number of constraints emitted so far.
func (b *Builder) NumConstraints() int { return len(b.lens) }

// NumWires returns the number of allocated wires (including the constant).
func (b *Builder) NumWires() int { return len(b.values) }

// Public allocates a public-input wire with the given value.
func (b *Builder) Public(v field.Element) Variable {
	b.values = append(b.values, v)
	b.isPublic = append(b.isPublic, true)
	b.numPublic++
	return Variable(len(b.values) - 1)
}

// Secret allocates a witness wire with the given value.
func (b *Builder) Secret(v field.Element) Variable {
	b.values = append(b.values, v)
	b.isPublic = append(b.isPublic, false)
	return Variable(len(b.values) - 1)
}

// Value returns the concrete value of a wire.
func (b *Builder) Value(v Variable) field.Element { return b.values[v] }

// Eval evaluates a linear combination on the current assignment.
func (b *Builder) Eval(lc LC) field.Element {
	var acc field.Element
	for _, t := range lc {
		acc = field.Add(acc, field.Mul(t.Coeff, b.values[t.Var]))
	}
	return acc
}

// Constrain emits the constraint a·b = c. Terms with a zero coefficient
// are dropped, as SparseMatrix.Add drops them; repeated wires stay
// separate until Build merges them.
func (b *Builder) Constrain(a, bb, c LC) {
	if b.built {
		panic("r1cs: Constrain after Build")
	}
	lcs := [3]LC{a, bb, c}
	n := 0
	for _, lc := range lcs {
		n += nonzeroTerms(lc)
	}
	var lens [3]uint32
	if n > 0 {
		// A constraint's rows never straddle two blocks; Build relies on
		// this rule to find them again from lens alone.
		if len(b.blocks) == 0 || n > len(b.blocks[len(b.blocks)-1])-b.used {
			b.blocks = append(b.blocks, make([]Entry, max(n, entryBlock)))
			b.used = 0
		}
		blk := b.blocks[len(b.blocks)-1][b.used:]
		k := 0
		for i, lc := range lcs {
			start := k
			for _, t := range lc {
				if !t.Coeff.IsZero() {
					blk[k] = Entry{Col: int(t.Var), Val: t.Coeff}
					k++
				}
			}
			lens[i] = uint32(k - start)
		}
		b.used += n
	}
	b.lens = append(b.lens, lens)
}

// nonzeroTerms counts lc's terms with a nonzero coefficient.
func nonzeroTerms(lc LC) int {
	n := 0
	for _, t := range lc {
		if !t.Coeff.IsZero() {
			n++
		}
	}
	return n
}

// AssertEq emits a = c (as the constraint a·1 = c).
func (b *Builder) AssertEq(a, c LC) {
	b.Constrain(a, FromVar(oneVar), c)
}

// Mul allocates and returns a wire holding Eval(x)·Eval(y), constrained
// by x·y = out.
func (b *Builder) Mul(x, y LC) Variable {
	out := b.Secret(field.Mul(b.Eval(x), b.Eval(y)))
	b.Constrain(x, y, FromVar(out))
	return out
}

// Square returns a wire holding Eval(x)².
func (b *Builder) Square(x LC) Variable { return b.Mul(x, x) }

// Inverse allocates a wire holding 1/Eval(x), constrained by x·inv = 1.
// It panics if the value is zero (the circuit would be unsatisfiable).
func (b *Builder) Inverse(x LC) Variable {
	v := b.Eval(x)
	if v.IsZero() {
		panic("r1cs: inverse of zero wire")
	}
	inv := b.Secret(field.Inv(v))
	b.Constrain(x, FromVar(inv), Const(field.One))
	return inv
}

// AssertBool emits v·(v−1) = 0.
func (b *Builder) AssertBool(v Variable) {
	b.Constrain(FromVar(v), LC{{field.One, v}, {field.Neg(field.One), oneVar}}, nil)
}

// ToBits decomposes x into n boolean wires, little-endian, constraining
// Σ bit_i·2^i = x and each bit boolean. n must be ≤ 63 so the
// decomposition is unique modulo the Goldilocks prime.
func (b *Builder) ToBits(x LC, n int) []Variable {
	if n <= 0 || n > 63 {
		panic("r1cs: bit width must be in [1,63]")
	}
	v := b.Eval(x).Uint64()
	if n < 63 && v >= 1<<uint(n) {
		panic(fmt.Sprintf("r1cs: value %d does not fit in %d bits", v, n))
	}
	bits := make([]Variable, n)
	for i := range bits {
		bits[i] = b.Secret(field.New((v >> uint(i)) & 1))
		b.AssertBool(bits[i])
	}
	b.AssertEq(FromBits(bits), x)
	return bits
}

// FromBits returns the linear combination Σ bits[i]·2^i (free), one
// term per bit in bit order.
func FromBits(bits []Variable) LC {
	sum := make(LC, len(bits))
	for i, v := range bits {
		sum[i] = Term{Coeff: field.New(uint64(1) << uint(i)), Var: v}
	}
	return sum
}

// Xor returns a wire with a⊕b for boolean wires: a + b − 2ab.
func (b *Builder) Xor(x, y Variable) Variable {
	prod := b.Mul(FromVar(x), FromVar(y))
	sum := LC{{field.One, x}, {field.One, y}, {field.Neg(field.Double(field.One)), prod}}
	out := b.Secret(b.Eval(sum))
	b.AssertEq(sum, FromVar(out))
	return out
}

// And returns a wire with a∧b = ab.
func (b *Builder) And(x, y Variable) Variable { return b.Mul(FromVar(x), FromVar(y)) }

// Not returns the linear combination 1−x (free).
func Not(x Variable) LC { return SubLC(Const(field.One), FromVar(x)) }

// Select returns a wire with cond ? x : y for a boolean cond:
// y + cond·(x−y).
func (b *Builder) Select(cond Variable, x, y LC) Variable {
	d := b.Mul(FromVar(cond), SubLC(x, y))
	out := b.Secret(b.Eval(AddLC(y, FromVar(d))))
	b.AssertEq(AddLC(y, FromVar(d)), FromVar(out))
	return out
}

// IsZero returns a boolean wire z with z = 1 iff Eval(x) = 0, using the
// standard two-constraint gadget: x·inv = 1−z and x·z = 0.
func (b *Builder) IsZero(x LC) Variable {
	v := b.Eval(x)
	var zVal, invVal field.Element
	if v.IsZero() {
		zVal = field.One
	} else {
		invVal = field.Inv(v)
	}
	z := b.Secret(zVal)
	inv := b.Secret(invVal)
	b.Constrain(x, FromVar(inv), SubLC(Const(field.One), FromVar(z)))
	b.Constrain(x, FromVar(z), nil)
	return z
}

// LessThan returns a boolean wire with Eval(x) < Eval(y), for values
// known to fit in width bits (width ≤ 62). It decomposes y−x+2^width and
// inspects the carry bit.
func (b *Builder) LessThan(x, y LC, width int) Variable {
	if width <= 0 || width > 62 {
		panic("r1cs: LessThan width must be in [1,62]")
	}
	// d = x − y + 2^width ∈ [1, 2^(width+1)); bit `width` of d is 1 iff x ≥ y.
	d := AddLC(SubLC(x, y), Const(field.New(uint64(1)<<uint(width))))
	bits := b.ToBits(d, width+1)
	ge := bits[width] // x ≥ y
	lt := b.Secret(b.Eval(Not(ge)))
	b.AssertEq(Not(ge), FromVar(lt))
	return lt
}

// Add32 adds k values each known to fit in 32 bits and returns a wire
// holding the sum modulo 2^32 (the SHA-256 addition gadget). k·2^32 must
// fit in 62 bits (k ≤ 2^30).
func (b *Builder) Add32(terms ...LC) Variable {
	var sum LC
	for _, t := range terms {
		sum = AddLC(sum, t)
	}
	extra := 0
	for 1<<uint(extra) < len(terms) {
		extra++
	}
	bits := b.ToBits(sum, 32+extra)
	low := FromBits(bits[:32])
	out := b.Secret(b.Eval(low))
	b.AssertEq(low, FromVar(out))
	return out
}

// buildHook, when a test sets it, sees each builder as its Build starts.
var buildHook func(*Builder)

// layout returns the padded constraint count m, the padded z length n
// and each wire's z column, for z = u ‖ w with u = (1, publics…, 0 pad)
// and w = (secrets…, 0 pad).
func (b *Builder) layout() (m, n int, zIndex []int) {
	numSecret := len(b.values) - 1 - b.numPublic
	half := 2
	for half < 1+b.numPublic || half < numSecret {
		half <<= 1
	}
	m = 2
	for m < b.NumConstraints() {
		m <<= 1
	}
	zIndex = make([]int, len(b.values))
	pubSeen, secSeen := 0, 0
	for v := 1; v < len(b.values); v++ {
		if b.isPublic[v] {
			pubSeen++
			zIndex[v] = pubSeen
		} else {
			zIndex[v] = half + secSeen
			secSeen++
		}
	}
	return m, 2 * half, zIndex
}

// Build pads and freezes the circuit into an Instance plus the io and
// witness vectors. The returned instance always satisfies
// Satisfied(AssembleZ(io, witness)). Its rows are the builder's own, so
// a builder builds once: Constrain or Build after Build panics.
func (b *Builder) Build() (*Instance, []field.Element, []field.Element) {
	if b.built {
		panic("r1cs: Build called twice")
	}
	if buildHook != nil {
		buildHook(b)
	}
	m, n, zIndex := b.layout()
	half := n / 2
	io := make([]field.Element, b.numPublic)
	witness := make([]field.Element, half)
	for v, col := range zIndex[1:] {
		if col < half {
			io[col-1] = b.values[1+v]
		} else {
			witness[col-half] = b.values[1+v]
		}
	}

	// Walk the blocks as Constrain filled them, map every wire to its z
	// column and merge repeated wires in place. A wire's stamp is the tag
	// of the last row that used it and pos its slot there, so a repeat
	// adds into its first occurrence: the columns, order and values
	// SparseMatrix.Add gives, in O(nnz).
	var mats [3]*SparseMatrix
	for k := range mats {
		mats[k] = &SparseMatrix{NumRows: m, NumCols: n, Rows: make([][]Entry, m)}
	}
	stamp := make([]uint32, len(b.values))
	pos := make([]int32, len(b.values))
	tag := uint32(0)
	var rest []Entry // unread tail of the current block
	blk := 0
	for r, lens := range b.lens {
		if int(lens[0]+lens[1]+lens[2]) > len(rest) {
			rest = b.blocks[blk]
			blk++
		}
		for k, l := range lens {
			row := rest[:l:l]
			rest = rest[l:]
			switch len(row) {
			case 0:
				continue
			case 1:
				row[0].Col = zIndex[row[0].Col]
			default:
				tag++
				w := 0
				for _, e := range row {
					if stamp[e.Col] == tag {
						p := pos[e.Col]
						row[p].Val = field.Add(row[p].Val, e.Val)
						continue
					}
					stamp[e.Col], pos[e.Col] = tag, int32(w)
					row[w] = Entry{Col: zIndex[e.Col], Val: e.Val}
					w++
				}
				row = row[:w:w]
			}
			mats[k].Rows[r] = row
		}
	}
	b.lens, b.blocks, b.built = nil, nil, true

	inst := &Instance{A: mats[0], B: mats[1], C: mats[2], NumPublic: b.numPublic}
	inst.validateShape()
	return inst, io, witness
}
