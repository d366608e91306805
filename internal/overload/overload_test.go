package overload

import (
	"context"
	"errors"
	"testing"
	"time"
)

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
}

func TestCostModelNilSafe(t *testing.T) {
	var m *CostModel
	m.Observe(StageSample, time.Second)
	if m.Expect(StageSample) != 0 {
		t.Fatal("nil model must report zero cost")
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
