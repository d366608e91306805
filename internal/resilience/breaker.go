package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int32

const (
	// BreakerClosed: normal operation, calls flow through.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the open dwell elapsed; one probe is let through to
	// test recovery.
	BreakerHalfOpen
	// BreakerOpen: calls are rejected without being attempted.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// OpenFor is how long the breaker dwells open before admitting its
	// half-open probe (default 5s).
	OpenFor time.Duration
	// Now supplies the clock; nil means time.Now. Tests inject a manual
	// clock here for determinism.
	Now func() time.Time
	// OnClose fires (outside the breaker lock) on each half-open -> closed
	// recovery. Used for the re-attach notice.
	OnClose func()
}

// Breaker is a closed/open/half-open circuit breaker for an endpoint whose
// hard failures mean it is gone: one failure opens it, after OpenFor it
// admits one probe, and that probe's success closes it again (its failure
// reopens it). Callers pair every admitted call (Allow() == true) with
// exactly one Success or Failure so the probe slot is returned.
// A nil *Breaker is inert: Allow always admits, outcomes are dropped.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	openedAt time.Time
	probing  bool // the half-open probe is in flight
}

// NewBreaker builds a breaker; zero-valued cfg fields get defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed. While open it flips to
// half-open once the dwell has elapsed and admits the probe; while
// half-open it admits a call only when no probe is in flight.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = BreakerHalfOpen
	default: // half-open
		if b.probing {
			return false
		}
	}
	b.probing = true
	return true
}

// Success records a successful call. Half-open: closes the breaker.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	fire := b.state == BreakerHalfOpen
	if fire {
		b.state = BreakerClosed
		b.probing = false
	}
	// Closed: nothing to reset. Open: a late success from a call admitted
	// before the trip is ignored.
	b.mu.Unlock()
	if fire && b.cfg.OnClose != nil {
		b.cfg.OnClose()
	}
}

// Failure records a failed call: closed or half-open, the breaker opens.
// Late failures while already open are ignored.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		b.state = BreakerOpen
		b.openedAt = b.cfg.Now()
		b.probing = false
	}
}

// State returns the current state. A nil breaker reads as closed.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
