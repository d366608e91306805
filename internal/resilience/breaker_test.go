package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var opened, closed int
	b := NewBreaker(BreakerConfig{
		Failures: 3, OpenFor: time.Second, Now: clk.now,
		OnOpen:  func() { opened++ },
		OnClose: func() { closed++ },
	})
	if b.State() != BreakerClosed {
		t.Fatal("breaker should start closed")
	}
	// Two failures with a success in between: consecutive count resets.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures must not trip")
	}
	b.Failure()
	if b.State() != BreakerOpen || opened != 1 {
		t.Fatalf("state=%v opened=%d, want open after 3 consecutive failures", b.State(), opened)
	}
	if b.Allow() {
		t.Fatal("open breaker must reject")
	}

	// Dwell elapses: one probe admitted, further calls rejected.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker should admit a probe after OpenFor")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("probe budget of 1 must reject a second concurrent probe")
	}
	b.Success()
	if b.State() != BreakerClosed || closed != 1 {
		t.Fatalf("state=%v closed=%d, want closed after probe success", b.State(), closed)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens=%d, want 1", b.Opens())
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Failures: 1, OpenFor: time.Second, Now: clk.now})
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("want open after single failure (Failures=1)")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("want probe after dwell")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("failed probe must reopen")
	}
	if b.Allow() {
		t.Fatal("reopened breaker must reject until the dwell elapses again")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("want a fresh probe after the second dwell")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("want closed after successful probe")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens=%d, want 2", b.Opens())
	}
}

func TestBreakerProbeBudgetAndSuccessThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Failures: 1, OpenFor: time.Second, Probes: 2, Successes: 2, Now: clk.now})
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() || !b.Allow() {
		t.Fatal("want 2 concurrent probes")
	}
	if b.Allow() {
		t.Fatal("third concurrent probe must be rejected")
	}
	b.Success()
	if b.State() != BreakerHalfOpen {
		t.Fatal("one of two required successes should stay half-open")
	}
	// Returned probe slot is reusable while half-open.
	if !b.Allow() {
		t.Fatal("returned probe slot should be reusable")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("want closed after reaching the success threshold")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must admit")
	}
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed || b.Opens() != 0 {
		t.Fatal("nil breaker must read as closed")
	}
}

func TestBreakerErrorTaxonomy(t *testing.T) {
	err := BreakerError(CompMentor)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("BreakerError must wrap ErrBreakerOpen")
	}
	if IsFatal(err) {
		t.Fatal("breaker-open is a degradation, not a fatal error")
	}
	if err.Component != CompMentor {
		t.Fatalf("component = %q", err.Component)
	}
}

func TestBreakerStateString(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerHalfOpen: "half-open", BreakerOpen: "open",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	// The breaker_state_<stage> gauges export these numbers.
	if BreakerHalfOpen != 1 || BreakerOpen != 2 {
		t.Fatalf("half-open/open = %d/%d, want 1/2", BreakerHalfOpen, BreakerOpen)
	}
}

func TestInjectorStickyFaults(t *testing.T) {
	in := NewInjector()
	ctx := context.Background()
	if err := in.Fire(ctx, CompMentor); err != nil {
		t.Fatalf("no sticky fault installed: %v", err)
	}
	in.Set(CompMentor, ModeFail)
	for i := 0; i < 3; i++ {
		if err := in.Fire(ctx, CompMentor); !errors.Is(err, ErrInjected) {
			t.Fatalf("sticky fault call %d: %v", i, err)
		}
	}
	if err := in.Fire(ctx, CompExpert); err != nil {
		t.Fatalf("other components must be unaffected: %v", err)
	}
	in.Set(CompMentor, 0)
	if err := in.Fire(ctx, CompMentor); err != nil {
		t.Fatalf("cleared sticky fault must pass through: %v", err)
	}
	if got := in.Calls(CompMentor); got != 5 {
		t.Fatalf("calls = %d, want 5", got)
	}
	// nil injector is inert.
	var nilIn *Injector
	nilIn.Set(CompMentor, ModeFail)
	if err := nilIn.Fire(ctx, CompMentor); err != nil {
		t.Fatalf("nil injector: %v", err)
	}
}
