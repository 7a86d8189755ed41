// Package isa defines NoCap's vector instruction set (paper §IV-A): a
// statically scheduled machine whose functional units each consume their
// own instruction stream (distributed control). Vector operands are
// k-element vectors with k a power of two between 2^7 and 2^16; loops
// with fixed trip counts are expressed with Repeat (the paper's simple
// branches with a trip count), which keeps programs for billion-element
// proofs compact.
//
// Programs in this package are what the task compilers of
// internal/tasks emit and what the cycle-level simulator of internal/sim
// executes.
package isa

import "fmt"

// FU identifies a functional unit (or the memory interface), each with
// its own instruction stream (paper §IV-A "distributed control").
type FU int

// The functional units of paper Fig. 3.
const (
	FUMul FU = iota
	FUAdd
	FUHash
	FUShuffle
	FUNTT
	FUMem
	NumFU
)

// String implements fmt.Stringer.
func (f FU) String() string {
	switch f {
	case FUMul:
		return "mul"
	case FUAdd:
		return "add"
	case FUHash:
		return "hash"
	case FUShuffle:
		return "shuffle"
	case FUNTT:
		return "ntt"
	case FUMem:
		return "mem"
	}
	return fmt.Sprintf("fu(%d)", int(f))
}

// Op is a vector opcode (paper §IV-A instruction set).
type Op int

// Opcodes. OpDelay and OpBranch are the control instructions; OpBranch
// is represented implicitly by Instr.Repeat (a taken-count branch).
const (
	OpVMul Op = iota
	OpVAdd
	OpVHash
	OpVShuffle
	OpVNTT
	OpVINTT
	OpLoad
	OpStore
	OpDelay
)

// String implements fmt.Stringer.
func (o Op) String() string {
	names := []string{"vmul", "vadd", "vhash", "vshuffle", "vntt", "vintt", "load", "store", "delay"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// fuOf maps opcodes to the unit that executes them.
func fuOf(op Op) FU {
	switch op {
	case OpVMul:
		return FUMul
	case OpVAdd:
		return FUAdd
	case OpVHash:
		return FUHash
	case OpVShuffle:
		return FUShuffle
	case OpVNTT, OpVINTT:
		return FUNTT
	case OpLoad, OpStore:
		return FUMem
	}
	return FUMul
}

// Vector-length bounds (paper §IV-A: k between 2^7 and 2^16).
const (
	MinVecLen = 1 << 7
	MaxVecLen = 1 << 16
)

// Instr is one vector instruction: process VecLen elements, Repeat times
// (Repeat encodes the fixed-trip-count branch wrapped around it).
// OpDelay uses VecLen as a cycle count.
type Instr struct {
	Op     Op
	VecLen int
	Repeat int64
}

// Elems returns the total number of elements the instruction processes.
func (in Instr) Elems() int64 { return int64(in.VecLen) * in.Repeat }

// validate checks ISA constraints.
func (in Instr) validate() error {
	if in.Repeat < 1 {
		return fmt.Errorf("isa: repeat %d < 1", in.Repeat)
	}
	if in.Op == OpDelay {
		return nil
	}
	v := in.VecLen
	if v < MinVecLen || v > MaxVecLen || v&(v-1) != 0 {
		return fmt.Errorf("isa: vector length %d outside [2^7, 2^16] powers of two", v)
	}
	return nil
}

// Stream is one FU's instruction sequence.
type Stream struct {
	FU     FU
	Instrs []Instr
}

// Program is a complete task binary: one stream per functional unit plus
// metadata the simulator needs (working-set size for register-file spill
// modeling).
type Program struct {
	Name string
	// Streams holds per-FU instruction streams (missing entries = idle FU).
	Streams [NumFU][]Instr
	// WorkingSetBytes is the on-chip footprint of the task's intermediates
	// (the sumcheck recomputation state that motivates the 8 MB register
	// file, paper §V-A / Fig. 7).
	WorkingSetBytes int64
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program { return &Program{Name: name} }

// Emit appends an instruction to the stream of the unit that executes op.
// Zero-element instructions are dropped.
func (p *Program) Emit(op Op, vecLen int, repeat int64) {
	if repeat <= 0 {
		return
	}
	in := Instr{Op: op, VecLen: vecLen, Repeat: repeat}
	if err := in.validate(); err != nil {
		panic(err.Error())
	}
	fu := fuOf(op)
	p.Streams[fu] = append(p.Streams[fu], in)
}

// EmitElems emits enough full vectors (of MaxVecLen, plus a remainder
// vector) to cover n elements with the given opcode. It is the assembler
// helper the task compilers use for bulk work.
func (p *Program) EmitElems(op Op, n int64) {
	if n <= 0 {
		return
	}
	full := n / MaxVecLen
	if full > 0 {
		p.Emit(op, MaxVecLen, full)
	}
	if rem := n % MaxVecLen; rem > 0 {
		v := MinVecLen
		for int64(v) < rem {
			v <<= 1
		}
		p.Emit(op, v, 1)
	}
}

// Elems returns the total elements processed on one unit.
func (p *Program) Elems(fu FU) int64 {
	var n int64
	for _, in := range p.Streams[fu] {
		if in.Op != OpDelay {
			n += in.Elems()
		}
	}
	return n
}

// DelayCycles returns the total explicit delay scheduled on a unit.
func (p *Program) DelayCycles(fu FU) int64 {
	var n int64
	for _, in := range p.Streams[fu] {
		if in.Op == OpDelay {
			n += int64(in.VecLen) * in.Repeat
		}
	}
	return n
}

// MemBytes returns the HBM traffic of the program (8 bytes per element
// loaded or stored).
func (p *Program) MemBytes() int64 {
	return 8 * p.Elems(FUMem)
}

// NumInstrs returns the total instruction count across streams — the
// paper's compact-code-size claim is testable with this.
func (p *Program) NumInstrs() int {
	n := 0
	for fu := FU(0); fu < NumFU; fu++ {
		n += len(p.Streams[fu])
	}
	return n
}

// ShuffleControlBits is the Beneš switch state embedded in each shuffle
// instruction: (2·log₂128 − 1)·64 = 832 bits for the 128-lane network,
// i.e. the paper's "7 bits per 64-bit element" (§IV-B).
const ShuffleControlBits = 832

// instrWordBytes is the packed size of one non-shuffle instruction:
// opcode, vector length, and trip count in one 64-bit template slot.
const instrWordBytes = 8

// CodeBytes estimates the program's instruction-memory footprint — what
// is prefetched into the on-chip instruction buffers (§IV-A). Shuffle
// instructions carry their Beneš control state inline.
func (p *Program) CodeBytes() int {
	bytes := 0
	for fu := FU(0); fu < NumFU; fu++ {
		for _, in := range p.Streams[fu] {
			bytes += instrWordBytes
			if in.Op == OpVShuffle {
				// One routed network per 128-element pass; wide vectors
				// reuse the same configuration across row links (§IV-B).
				bytes += ShuffleControlBits / 8
			}
		}
	}
	return bytes
}
