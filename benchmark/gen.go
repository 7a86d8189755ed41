package main

import (
	"math"
	"math/rand"
	"sync/atomic"
)

// The seed reaches nothing but the generators in this file: the program
// under test only ever sees the requests they produce.

// evenPerm returns the even integers of (lo, hi] in a seeded random
// order. circuits.Synthetic adds two constraints per step, so only even
// n are distinct statements.
func evenPerm(seed int64, lo, hi int) []int {
	var ns []int
	for n := lo + 1; n <= hi; n++ {
		if n%2 == 0 {
			ns = append(ns, n)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	return ns
}

// drawer hands the entries of a permutation out once each to any number
// of concurrent clients.
type drawer struct {
	perm []int
	next atomic.Int64
	wrap bool
}

// draw returns the next entry. Without wrap, ok turns false once every
// entry has been handed out (the caller stops: a repeated statement
// would no longer be a cache miss). With wrap the permutation cycles.
func (d *drawer) draw() (n int, ok bool) {
	i := int(d.next.Add(1) - 1)
	if i >= len(d.perm) {
		if !d.wrap {
			return 0, false
		}
		i %= len(d.perm)
	}
	return d.perm[i], true
}

// zipf draws ranks 0..k-1 with probability proportional to
// 1/(rank+1)^s. math/rand's Zipf needs s > 1 and an offset; six ranks
// are cheaper to do exactly from the cumulative table.
type zipf struct {
	cum []float64
	rng *rand.Rand
}

func newZipf(seed int64, k int, s float64) *zipf {
	cum := make([]float64, k)
	var total float64
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum, rng: rand.New(rand.NewSource(seed))}
}

func (z *zipf) draw() int {
	u := z.rng.Float64()
	for i, c := range z.cum {
		if u < c {
			return i
		}
	}
	return len(z.cum) - 1
}

// clientSeed derives a per-client generator seed so each client's
// request sequence is a function of (seed, client) alone, whatever the
// interleaving.
func clientSeed(seed int64, client int) int64 {
	return seed*1_000_003 + int64(client)*7919 + 1
}
