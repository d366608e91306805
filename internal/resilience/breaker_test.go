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

// TestBreakerTripsAfterConsecutiveFailures: the run of consecutive
// failures that trips the breaker is one long — a single hard failure
// opens it. After the dwell it admits exactly one probe, a dropped probe
// returns the slot, and a successful probe closes it.
func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var closed int
	b := NewBreaker(BreakerConfig{OpenFor: time.Second, Now: clk.now, OnClose: func() { closed++ }})
	if b.State() != BreakerClosed {
		t.Fatal("breaker should start closed")
	}
	b.Success()
	if b.State() != BreakerClosed || closed != 0 {
		t.Fatal("a success while closed changes nothing")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v, want open after one failure", b.State())
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
		t.Fatal("a second concurrent probe must be rejected")
	}
	// A dropped probe proves nothing but returns the slot.
	b.Drop()
	if b.State() != BreakerHalfOpen || !b.Allow() {
		t.Fatal("a dropped probe must leave the breaker half-open with its slot free")
	}
	b.Success()
	if b.State() != BreakerClosed || closed != 1 {
		t.Fatalf("state=%v closed=%d, want closed after probe success", b.State(), closed)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{OpenFor: time.Second, Now: clk.now})
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("want open after a single failure")
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
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must admit")
	}
	b.Success()
	b.Failure()
	b.Drop()
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker must read as closed")
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
	// The breaker_state_remotecache gauge exports these numbers.
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
