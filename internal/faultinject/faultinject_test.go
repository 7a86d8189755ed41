package faultinject

import (
	"errors"
	"testing"
	"time"

	"nocap/internal/zkerr"
)

// Test points used by this file; registered once so Arm accepts them.
func init() {
	for _, p := range []string{"any.point", "stage.a", "stage.b", "p", "q"} {
		Register(p)
	}
}

func mustArm(t *testing.T, plan Plan) {
	t.Helper()
	if err := Arm(plan); err != nil {
		t.Fatalf("Arm(%+v): %v", plan, err)
	}
}

func TestUnarmedCheckIsNil(t *testing.T) {
	Disarm()
	for i := 0; i < 100; i++ {
		if err := Check("any.point"); err != nil {
			t.Fatalf("unarmed Check returned %v", err)
		}
	}
	if Fired() {
		t.Fatal("Fired true with nothing armed")
	}
}

func TestErrorKindFiresExactlyOnTrigger(t *testing.T) {
	defer Disarm()
	mustArm(t, Plan{Point: "stage.a", Kind: Error, Trigger: 3})
	for i := 1; i <= 5; i++ {
		// A different point never fires regardless of hit count.
		if err := Check("stage.b"); err != nil {
			t.Fatalf("wrong point fired on hit %d: %v", i, err)
		}
		err := Check("stage.a")
		if i == 3 {
			if err == nil {
				t.Fatalf("hit %d: trigger did not fire", i)
			}
			if !errors.Is(err, zkerr.ErrInternal) {
				t.Fatalf("default injected error not ErrInternal: %v", err)
			}
		} else if err != nil {
			t.Fatalf("hit %d fired unexpectedly: %v", i, err)
		}
	}
	if !Fired() {
		t.Fatal("Fired false after the trigger hit")
	}
}

func TestErrorKindCustomError(t *testing.T) {
	defer Disarm()
	boom := errors.New("custom boom")
	mustArm(t, Plan{Point: "p", Kind: Error, Err: boom}) // Trigger 0 means first hit
	if err := Check("p"); !errors.Is(err, boom) {
		t.Fatalf("want custom error, got %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	defer Disarm()
	mustArm(t, Plan{Point: "p", Kind: Panic, PanicValue: "detonate"})
	caught := func() (v any) {
		defer func() { v = recover() }()
		Check("p")
		return nil
	}()
	if caught != "detonate" {
		t.Fatalf("want injected panic value, got %v", caught)
	}
	if !Fired() {
		t.Fatal("panic plan not marked fired")
	}
}

func TestDelayKind(t *testing.T) {
	defer Disarm()
	mustArm(t, Plan{Point: "p", Kind: Delay, Sleep: 30 * time.Millisecond})
	start := time.Now()
	if err := Check("p"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay fired for only %v", d)
	}
	// Subsequent hits are free: the plan fires once.
	start = time.Now()
	Check("p")
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("second hit stalled %v after the plan already fired", d)
	}
}

func TestHookKind(t *testing.T) {
	defer Disarm()
	called := 0
	mustArm(t, Plan{Point: "p", Kind: Hook, Trigger: 2, Hook: func() error {
		called++
		return nil
	}})
	Check("p")
	Check("p")
	Check("p")
	if called != 1 {
		t.Fatalf("hook called %d times, want exactly 1", called)
	}
}

func TestRecordingTraceAndHitCounts(t *testing.T) {
	StartRecording()
	Check("a")
	Check("b")
	Check("a")
	trace := StopRecording()
	want := []string{"a", "b", "a"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	counts := HitCounts(trace)
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Fatalf("counts %v", counts)
	}
	// While recording, nothing fires and Check never errors.
	if Fired() {
		t.Fatal("recording session reported fired")
	}
	if got := StopRecording(); got != nil {
		t.Fatalf("second StopRecording returned %v", got)
	}
}

func TestRandomPlanDeterministicAndInRange(t *testing.T) {
	trace := []string{"x", "y", "x", "z", "x", "y"}
	for _, p := range trace {
		Register(p)
	}
	counts := HitCounts(trace)
	kinds := []Kind{Error, Panic, Hook}
	for seed := int64(0); seed < 50; seed++ {
		p1, err1 := RandomPlan(seed, trace, kinds)
		p2, err2 := RandomPlan(seed, trace, kinds)
		if err1 != nil || err2 != nil {
			t.Fatalf("RandomPlan errored on a registered trace: %v / %v", err1, err2)
		}
		if p1.Point != p2.Point || p1.Kind != p2.Kind || p1.Trigger != p2.Trigger {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, p1, p2)
		}
		if counts[p1.Point] == 0 {
			t.Fatalf("seed %d chose point %q not in trace", seed, p1.Point)
		}
		if p1.Trigger < 1 || p1.Trigger > counts[p1.Point] {
			t.Fatalf("seed %d trigger %d outside [1,%d] for %q", seed, p1.Trigger, counts[p1.Point], p1.Point)
		}
		found := false
		for _, k := range kinds {
			if p1.Kind == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d chose kind %v outside the requested set", seed, p1.Kind)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Error: "error", Panic: "panic", Delay: "delay", Hook: "hook", Kind(0): "none"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestArmReplacesAndDisarmRestoresFastPath(t *testing.T) {
	mustArm(t, Plan{Point: "p", Kind: Error})
	mustArm(t, Plan{Point: "q", Kind: Error})
	if err := Check("p"); err != nil {
		t.Fatalf("replaced plan still fired: %v", err)
	}
	if err := Check("q"); err == nil {
		t.Fatal("re-armed plan did not fire")
	}
	Disarm()
	if err := Check("q"); err != nil {
		t.Fatalf("disarmed Check returned %v", err)
	}
}

// TestPointsListsRegistrations pins the registry contract: Register is
// idempotent, Points is sorted and contains every registered name, and
// Registered distinguishes declared from undeclared points.
func TestPointsListsRegistrations(t *testing.T) {
	Register("zz.test.point")
	Register("zz.test.point") // idempotent
	if !Registered("zz.test.point") {
		t.Fatal("registered point not reported as registered")
	}
	if Registered("zz.never.registered") {
		t.Fatal("unregistered point reported as registered")
	}
	pts := Points()
	found := false
	for i, p := range pts {
		if p == "zz.test.point" {
			found = true
		}
		if i > 0 && pts[i-1] > p {
			t.Fatalf("Points() not sorted: %q before %q", pts[i-1], p)
		}
	}
	if !found {
		t.Fatalf("Points() missing registered point: %v", pts)
	}
}

// TestArmUnknownPointFailsFast is the regression test for the silent
// never-fires bug: arming a plan at a point no package registered must
// be refused, not accepted and ignored.
func TestArmUnknownPointFailsFast(t *testing.T) {
	defer Disarm()
	err := Arm(Plan{Point: "no.such.point", Kind: Error})
	if err == nil {
		t.Fatal("Arm accepted an unknown injection point")
	}
	// The refused plan must not have been installed.
	if Check("no.such.point") != nil {
		t.Fatal("refused plan fired anyway")
	}
	if Fired() {
		t.Fatal("refused plan reported fired")
	}
}

// TestRandomPlanRejectsUnknownTracePoints: a trace naming a point that
// was never registered cannot have come from the current pipeline, so
// plan derivation must fail rather than build a vacuous plan.
func TestRandomPlanRejectsUnknownTracePoints(t *testing.T) {
	if _, err := RandomPlan(1, []string{"p", "no.such.point"}, []Kind{Error}); err == nil {
		t.Fatal("RandomPlan accepted a trace with an unregistered point")
	}
	if _, err := RandomPlan(1, nil, []Kind{Error}); err == nil {
		t.Fatal("RandomPlan accepted an empty trace")
	}
	if _, err := RandomPlan(1, []string{"p"}, nil); err == nil {
		t.Fatal("RandomPlan accepted an empty kind set")
	}
}

// TestMustArmPanicsOnUnknownPoint pins the test-helper contract.
func TestMustArmPanicsOnUnknownPoint(t *testing.T) {
	defer Disarm()
	defer func() {
		if recover() == nil {
			t.Fatal("MustArm did not panic on an unknown point")
		}
	}()
	MustArm(Plan{Point: "still.not.registered", Kind: Error})
}

// TestCountSustainsFaultThenClears: Count = N fires the fault on hits
// [Trigger, Trigger+N-1] and lets the next hit succeed — a sustained
// disk outage that eventually clears. The default Count keeps the
// classic fire-once behaviour.
func TestCountSustainsFaultThenClears(t *testing.T) {
	defer Disarm()
	mustArm(t, Plan{Point: "stage.a", Kind: Error, Trigger: 2, Count: 3})
	for i := 1; i <= 6; i++ {
		err := Check("stage.a")
		if i >= 2 && i <= 4 {
			if err == nil {
				t.Fatalf("hit %d inside the outage window did not fire", i)
			}
		} else if err != nil {
			t.Fatalf("hit %d outside the outage window fired: %v", i, err)
		}
		if got, want := Fired(), i >= 2; got != want {
			t.Fatalf("Fired after hit %d = %v, want %v", i, got, want)
		}
	}
}
