// Package backoff is the service layer's one source of randomized
// delays: capped-exponential full jitter for retries, a uniform draw in
// a range for periodic clocks (heartbeats, probes), and the
// Retry-After arithmetic for shed responses. Every periodic or retry
// clock in the jobs manager, the cluster coordinator and workers, and
// the HTTP server draws from here, so a restart or an overload cannot
// synchronize clients or nodes into a stampede — and a future edit that
// replaces jitter with a fixed interval trips one test file.
//
// Every draw takes the caller's *rand.Rand, so seeded tests reproduce
// their schedules; the caller owns that source's locking.
package backoff

import (
	"math/rand"
	"strconv"
	"time"
)

// Full returns a duration uniform in [0, d); 0 when d <= 0.
func Full(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(d)))
}

// Range returns a duration uniform in [lo, hi).
func Range(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	return lo + Full(rng, hi-lo)
}

// Exponential returns the full-jitter delay before retry number
// attempt+1: uniform in (0, min(max, base·2^(attempt-1))].
func Exponential(rng *rand.Rand, base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b := time.Duration(float64(d) * rng.Float64())
	if b <= 0 {
		b = time.Millisecond
	}
	return b
}

// ClampRetryAfter bounds a Retry-After estimate to [1s, 30s]: sooner
// than a second invites a retry storm, later than thirty tells the
// client nothing it can act on.
func ClampRetryAfter(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

// RetryAfter renders a Retry-After header value: min rounded up to
// whole seconds (at least 1) plus up to spread extra seconds of jitter,
// so a shed client herd does not reconverge on the same instant.
func RetryAfter(rng *rand.Rand, min time.Duration, spread int) string {
	secs := int(min / time.Second)
	if min%time.Second != 0 || secs < 1 {
		secs++
	}
	if spread > 0 {
		secs += rng.Intn(spread + 1)
	}
	return strconv.Itoa(secs)
}
