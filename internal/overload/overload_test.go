package overload

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLimiterStartsAtInitialAndBounds(t *testing.T) {
	l := NewLimiter(LimiterConfig{Floor: 2, Ceiling: 10})
	if got := l.Limit(); got != 10 {
		t.Fatalf("initial limit = %d, want ceiling 10", got)
	}
	l = NewLimiter(LimiterConfig{Floor: 2, Ceiling: 10, Initial: 5})
	if got := l.Limit(); got != 5 {
		t.Fatalf("initial limit = %d, want 5", got)
	}
	if l.Floor() != 2 || l.Ceiling() != 10 {
		t.Fatalf("bounds = %d/%d, want 2/10", l.Floor(), l.Ceiling())
	}
}

func TestLimiterAcquireShedsAtLimit(t *testing.T) {
	l := NewLimiter(LimiterConfig{Floor: 1, Ceiling: 2})
	if !l.Acquire() || !l.Acquire() {
		t.Fatal("first two acquires should succeed")
	}
	if l.Acquire() {
		t.Fatal("third acquire should shed at limit 2")
	}
	if l.Sheds() != 1 {
		t.Fatalf("sheds = %d, want 1", l.Sheds())
	}
	l.Release(time.Millisecond)
	if !l.Acquire() {
		t.Fatal("acquire after release should succeed")
	}
	if l.Inflight() != 2 {
		t.Fatalf("inflight = %d, want 2", l.Inflight())
	}
}

// feed simulates completions at the given latency.
func feed(l *Limiter, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		if l.Acquire() {
			l.Release(d)
		} else {
			// keep feeding observations even when the limit is low
			l.Acquire()
			l.Release(d)
		}
	}
}

func TestLimiterContractsUnderLatencySpikeAndReexpands(t *testing.T) {
	l := NewLimiter(LimiterConfig{Floor: 2, Ceiling: 16, Window: 32})

	// Calm phase: establish a ~10ms baseline.
	for i := 0; i < 64; i++ {
		l.Acquire()
		l.Release(10 * time.Millisecond)
	}
	if b := l.Baseline(); b == 0 || b > 15*time.Millisecond {
		t.Fatalf("baseline = %v, want ~10ms", b)
	}
	if l.Limit() != 16 {
		t.Fatalf("limit after calm phase = %d, want ceiling 16", l.Limit())
	}

	// Spike: 20x the baseline. Limit must contract toward the floor.
	for i := 0; i < 200; i++ {
		l.Acquire()
		l.Release(200 * time.Millisecond)
	}
	contracted := l.Limit()
	if contracted >= 16 {
		t.Fatalf("limit did not contract under spike: %d", contracted)
	}
	if contracted < 2 {
		t.Fatalf("limit fell below floor: %d", contracted)
	}

	// Spike clears: fast completions re-expand the limit.
	for i := 0; i < 400; i++ {
		l.Acquire()
		l.Release(10 * time.Millisecond)
	}
	if got := l.Limit(); got <= contracted {
		t.Fatalf("limit did not re-expand after spike: %d (was %d)", got, contracted)
	}
}

func TestLimiterBaselineResistsSustainedSpike(t *testing.T) {
	l := NewLimiter(LimiterConfig{Floor: 1, Ceiling: 8, Window: 16})
	for i := 0; i < 32; i++ {
		l.Acquire()
		l.Release(time.Millisecond)
	}
	base := l.Baseline()
	// A long sustained spike may drift the baseline upward, but only by
	// BaselineInflate per half-window epoch — after 4 epochs it must
	// still be far below the spike latency.
	for i := 0; i < 32; i++ {
		l.Acquire()
		l.Release(100 * time.Millisecond)
	}
	if got := l.Baseline(); got > 4*base {
		t.Fatalf("baseline inflated too fast: %v -> %v", base, got)
	}
	if got := l.Limit(); got > 4 {
		t.Fatalf("limit = %d, want strong contraction under sustained spike", got)
	}
}

func TestLimiterDeterministic(t *testing.T) {
	run := func() []int {
		l := NewLimiter(LimiterConfig{Floor: 1, Ceiling: 12, Window: 16})
		var limits []int
		for i := 0; i < 100; i++ {
			d := time.Millisecond
			if i%7 == 0 {
				d = 50 * time.Millisecond
			}
			l.Acquire()
			l.Release(d)
			limits = append(limits, l.Limit())
		}
		return limits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic limit at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCostModelEWMA(t *testing.T) {
	m := NewCostModel(0.5)
	if m.Expect(StageSample) != 0 {
		t.Fatal("unknown stage should report 0")
	}
	m.Observe(StageSample, 100*time.Millisecond)
	if got := m.Expect(StageSample); got != 100*time.Millisecond {
		t.Fatalf("first observation should seed the estimate, got %v", got)
	}
	m.Observe(StageSample, 200*time.Millisecond)
	if got := m.Expect(StageSample); got != 150*time.Millisecond {
		t.Fatalf("ewma after 100,200 with alpha .5 = %v, want 150ms", got)
	}
	m.Observe(StageBaseline, time.Second)
	if got := m.ExpectSum(StageSample, StageBaseline); got != 1150*time.Millisecond {
		t.Fatalf("ExpectSum = %v, want 1.15s", got)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[StageBaseline] != time.Second {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestCostModelNilSafe(t *testing.T) {
	var m *CostModel
	m.Observe(StageSample, time.Second)
	if m.Expect(StageSample) != 0 || m.ExpectSum(StageSample) != 0 {
		t.Fatal("nil model must report zero cost")
	}
	if m.Snapshot() != nil {
		t.Fatal("nil model snapshot should be nil")
	}
}

func TestCheckBudget(t *testing.T) {
	if err := CheckBudget(context.Background(), StageSample, time.Hour); err != nil {
		t.Fatalf("no deadline should always pass: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := CheckBudget(ctx, StageSample, 0); err != nil {
		t.Fatalf("unknown cost with live deadline should pass: %v", err)
	}
	err := CheckBudget(ctx, StageSample, time.Hour)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Stage != StageSample || be.Need != time.Hour {
		t.Fatalf("budget error detail = %+v", err)
	}
	// Expired deadline fails even with unknown cost.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := CheckBudget(expired, StageSynth, 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("expired deadline should fail: %v", err)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Window: 8, EnterFrac: 0.5, ExitFrac: 0.25})
	// Sheds before the window fills must not activate.
	for i := 0; i < 7; i++ {
		b.Note(true)
	}
	if b.Active() {
		t.Fatal("brownout before a full window of evidence")
	}
	b.Note(true)
	if !b.Active() {
		t.Fatal("full window of sheds should activate brownout")
	}
	if b.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", b.Entries())
	}
	// Recovery: admissions dilute the window toward ExitFrac.
	for i := 0; i < 5; i++ {
		b.Note(false)
	}
	if !b.Active() {
		t.Fatal("brownout should persist above exit fraction (hysteresis)")
	}
	b.Note(false)
	if b.Active() {
		t.Fatal("brownout should clear once shed fraction <= exit fraction")
	}
	// Re-entry counts again.
	for i := 0; i < 8; i++ {
		b.Note(true)
	}
	if !b.Active() || b.Entries() != 2 {
		t.Fatalf("re-entry: active=%v entries=%d", b.Active(), b.Entries())
	}
}

func TestBrownoutNilSafe(t *testing.T) {
	var b *Brownout
	b.Note(true)
	if b.Active() || b.Entries() != 0 {
		t.Fatal("nil brownout must be inert")
	}
}
