package backoff

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// spreadStats draws n samples and reports how many land in each
// third of [lo, hi) plus the count of distinct values — a cheap spread
// regression that catches a future edit replacing full jitter with a
// fixed interval (which would synchronize the fleet into heartbeat and
// probe stampedes).
func spreadStats(t *testing.T, name string, n int, lo, hi time.Duration, draw func() time.Duration) {
	t.Helper()
	thirds := [3]int{}
	seen := make(map[time.Duration]struct{}, n)
	width := hi - lo
	for i := 0; i < n; i++ {
		d := draw()
		if d < lo || d >= hi {
			t.Fatalf("%s: draw %v outside [%v, %v)", name, d, lo, hi)
		}
		seen[d] = struct{}{}
		idx := int(3 * (d - lo) / width)
		if idx > 2 {
			idx = 2
		}
		thirds[idx]++
	}
	// With nanosecond-granularity uniform draws, collisions are
	// essentially impossible; demand near-total distinctness.
	if len(seen) < n*9/10 {
		t.Errorf("%s: only %d/%d distinct draws — jitter has collapsed", name, len(seen), n)
	}
	// Uniform across the window: each third holds n/3 in expectation;
	// demand at least half of that so skewed-but-random still passes.
	for i, c := range thirds {
		if c < n/6 {
			t.Errorf("%s: third %d holds %d/%d draws — distribution collapsed (%v)", name, i, c, n, thirds)
		}
	}
}

// TestRangeSpread: Range is uniform over [lo, hi). (The production
// windows — worker heartbeats, coordinator probes — are asserted at
// their call sites by internal/cluster's TestClusterClocksAreJittered.)
func TestRangeSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spreadStats(t, "Range", 500, time.Second, 3*time.Second, func() time.Duration {
		return Range(rng, time.Second, 3*time.Second)
	})
}

func TestFullBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if got := Full(rng, 0); got != 0 {
		t.Fatalf("Full(0) = %v, want 0", got)
	}
	if got := Full(rng, -time.Second); got != 0 {
		t.Fatalf("Full(<0) = %v, want 0", got)
	}
	spreadStats(t, "Full", 500, 0, time.Second, func() time.Duration {
		return Full(rng, time.Second)
	})
}

// TestSameSeedSameDraws: the draws are a pure function of the injected
// source, so seeded schedules reproduce.
func TestSameSeedSameDraws(t *testing.T) {
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		if x, y := Full(a, time.Second), Full(b, time.Second); x != y {
			t.Fatalf("Full draw %d: %v != %v", i, x, y)
		}
		if x, y := Exponential(a, time.Millisecond, time.Second, i%6+1), Exponential(b, time.Millisecond, time.Second, i%6+1); x != y {
			t.Fatalf("Exponential draw %d: %v != %v", i, x, y)
		}
	}
}

func TestExponentialCappedFullJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const base, max = 10 * time.Millisecond, 40 * time.Millisecond
	caps := map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 40 * time.Millisecond, // capped
		9: 40 * time.Millisecond,
	}
	for attempt, ceil := range caps {
		for i := 0; i < 100; i++ {
			if b := Exponential(rng, base, max, attempt); b <= 0 || b > ceil {
				t.Fatalf("attempt %d backoff %v outside (0, %v]", attempt, b, ceil)
			}
		}
	}
}

func TestClampRetryAfter(t *testing.T) {
	for in, want := range map[time.Duration]time.Duration{
		0:                      time.Second,
		999 * time.Millisecond: time.Second,
		7 * time.Second:        7 * time.Second,
		31 * time.Second:       30 * time.Second,
	} {
		if got := ClampRetryAfter(in); got != want {
			t.Errorf("ClampRetryAfter(%v) = %v, want %v", in, got, want)
		}
	}
}

// TestRetryAfterBounds pins the header contract: at least the floor
// rounded up to whole seconds, at most floor + spread, never below 1.
func TestRetryAfterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		v := RetryAfter(rng, 1500*time.Millisecond, 2)
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("Retry-After %q not an integer", v)
		}
		if n < 2 || n > 4 { // ceil(1.5s)=2 … +2 jitter
			t.Fatalf("Retry-After %d outside [2,4]", n)
		}
	}
	if v := RetryAfter(rng, 0, 0); v != "1" {
		t.Fatalf("zero-duration Retry-After %q, want minimum 1", v)
	}
	if v := RetryAfter(rng, 4*time.Second, 0); v != "4" {
		t.Fatalf("whole-second Retry-After %q, want 4", v)
	}
}
