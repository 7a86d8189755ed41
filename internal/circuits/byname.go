package circuits

import (
	"sort"
	"strconv"

	"nocap/internal/r1cs"
	"nocap/internal/zkerr"
)

// minSize is the single source of truth for each benchmark's smallest
// meaningful size parameter: one AES block, one SHA block, one RSA
// squaring, the 4-entry minimum the auction and litmus generators
// require, and the 64-constraint floor below which the synthetic band
// degenerates. Every entry point that accepts an untrusted size
// (nocap-prove's -n, the serving layer's request field) clamps through
// Clamp, so the CLI and the service can never disagree about what a
// given (circuit, n) pair means.
var minSize = map[string]int{
	"aes":       1,
	"sha":       1,
	"rsa":       1,
	"auction":   4,
	"litmus":    4,
	"synthetic": 64,
}

// Names returns the benchmark names ByName accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(minSize))
	for name := range minSize {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Clamp raises n to the named benchmark's minimum size. The second
// return is false for unknown names.
func Clamp(name string, n int) (int, bool) {
	floor, ok := minSize[name]
	if !ok {
		return n, false
	}
	return max(n, floor), true
}

// ByName builds the named benchmark at size parameter n (blocks, bids,
// squarings, transactions, or constraints, per circuit), clamped to the
// circuit's minimum. Unknown names return a usage-classified error.
//
// The instance is named "circuit/n" with the clamped n
// (r1cs.SetName): its inputs below are fixed and synthesis is
// data-oblivious, so a name fixes the matrices, and the process hashes
// each name's digest once.
func ByName(name string, n int) (*Benchmark, error) {
	n, ok := Clamp(name, n)
	if !ok {
		return nil, zkerr.Usagef("unknown circuit %q (want aes|sha|rsa|auction|litmus|synthetic)", name)
	}
	bm := build(name, n)
	r1cs.SetName(bm.Inst, name+"/"+strconv.Itoa(n))
	return bm, nil
}

// build synthesizes the clamped (name, n) statement.
func build(name string, n int) *Benchmark {
	switch name {
	case "aes":
		key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
			0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
		pt := make([]byte, 16*n)
		for i := range pt {
			pt[i] = byte(i)
		}
		return AES(key, pt)
	case "sha":
		data := make([]byte, 64*n)
		for i := range data {
			data[i] = byte(i * 3)
		}
		return SHA256(data)
	case "rsa":
		return RSA(n, 8, 42)
	case "auction":
		bids := make([]uint64, n)
		for i := range bids {
			bids[i] = uint64((i*2654435761 + 12345) % (1 << 20))
		}
		return Auction(bids)
	case "litmus":
		return Litmus(n, 8, 42)
	default: // "synthetic"
		return Synthetic(n)
	}
}
