// Package overload implements overload protection for the serving fleet: a
// per-stage EWMA cost model that lets callers shed work whose expected cost
// exceeds the remaining deadline budget, and a brownout controller that
// degrades service (fewer Pass@k samples, cache-first answers) under
// sustained admission pressure.
//
// Everything in this package is deterministic given the sequence of
// observations fed to it: the brownout controller never reads a clock, and
// the cost model only stores durations its callers measured. That keeps
// unit tests and the seeded chaos harness reproducible.
package overload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Stage names for the cost model. Pipeline-internal stages reuse the
// resilience component names (mentor, rag_embed, ...); these cover the
// coarser units the server and eval loop account for.
const (
	// StageRequest is a whole /v1/customize request: baseline task plus
	// every Pass@k sample. The server sheds on this before admission.
	StageRequest = "request"
	// StageBaseline is the baseline synthesis run (NewTaskWith) that
	// anchors a Pass@k evaluation or a sweep row.
	StageBaseline = "baseline"
	// StageSample is one Pass@k sample: customize + synthesis + compare.
	StageSample = "sample"
	// StageSynth is a single synthesis tool run (script execution + STA).
	StageSynth = "synth"
)

// ErrBudget is wrapped by every BudgetError; errors.Is(err, ErrBudget)
// identifies deadline-budget rejections across package boundaries.
var ErrBudget = errors.New("remaining deadline cannot cover expected work")

// BudgetError reports that a context's remaining deadline budget cannot
// cover the expected cost of the stage about to run.
type BudgetError struct {
	Stage string
	Need  time.Duration // expected cost of the stage (0 = unknown, deadline already past)
	Have  time.Duration // remaining budget at check time (may be negative)
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("overload: %s stage needs ~%v but deadline budget has %v", e.Stage, e.Need, e.Have)
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// CheckBudget rejects early when ctx's remaining deadline cannot cover
// need. A context without a deadline always passes; an unknown cost
// (need == 0) only fails once the deadline has already expired. Callers
// invoke this before claiming leases or starting synthesis so a
// nearly-expired request does no partial work.
func CheckBudget(ctx context.Context, stage string, need time.Duration) error {
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	have := time.Until(deadline)
	if have <= 0 || (need > 0 && have < need) {
		return &BudgetError{Stage: stage, Need: need, Have: have}
	}
	return nil
}

// CostModel tracks a per-stage EWMA of observed durations. It is the
// "expected work" half of cost-based load shedding: admission paths ask
// Expect(stage) and compare against the remaining deadline. A nil model is
// valid and reports zero cost everywhere (shedding disabled until primed).
type CostModel struct {
	mu    sync.Mutex
	alpha float64
	ewma  map[string]float64 // stage -> nanoseconds
}

// DefaultCostAlpha is the EWMA smoothing factor when none is given: new
// observations move the estimate 20% of the way to the sample, enough to
// track workload drift without thrashing on one slow request.
const DefaultCostAlpha = 0.2

// NewCostModel returns a cost model with the given smoothing factor in
// (0, 1]; alpha <= 0 selects DefaultCostAlpha.
func NewCostModel(alpha float64) *CostModel {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultCostAlpha
	}
	return &CostModel{alpha: alpha, ewma: make(map[string]float64)}
}

// Observe folds one completed-stage duration into the estimate.
func (m *CostModel) Observe(stage string, d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.ewma[stage]
	if !ok {
		m.ewma[stage] = float64(d)
		return
	}
	m.ewma[stage] = cur + m.alpha*(float64(d)-cur)
}

// Expect returns the current cost estimate for stage, or 0 when the stage
// has never been observed (callers treat 0 as "unknown, admit").
func (m *CostModel) Expect(stage string) time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.ewma[stage])
}

// BrownoutConfig tunes the sustained-pressure detector.
type BrownoutConfig struct {
	// Window is the number of recent admission outcomes tracked
	// (default 64).
	Window int
	// EnterFrac activates brownout when the shed fraction over a full
	// window reaches it (default 0.5).
	EnterFrac float64
	// ExitFrac deactivates brownout once the shed fraction falls to it
	// or below (default 0.125). Enter > Exit gives hysteresis so the
	// mode does not flap at the boundary.
	ExitFrac float64
}

func (c *BrownoutConfig) fill() {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.EnterFrac <= 0 || c.EnterFrac > 1 {
		c.EnterFrac = 0.5
	}
	if c.ExitFrac < 0 || c.ExitFrac >= c.EnterFrac {
		c.ExitFrac = c.EnterFrac / 4
	}
}

// Brownout tracks the recent shed fraction over a sliding window of
// admission outcomes and exposes a hysteresis-latched "browned out" flag.
// While active the server degrades: Pass@k clamps to one sample and
// responses carry an explicit Degraded marker. Clock-free: pressure is a
// function of the outcome sequence alone. A nil Brownout is valid and
// never active.
type Brownout struct {
	mu      sync.Mutex
	cfg     BrownoutConfig
	ring    []bool // true = shed
	idx     int
	n       int
	sheds   int
	active  bool
	entries int64
}

// NewBrownout builds a brownout detector; zero cfg fields get defaults.
func NewBrownout(cfg BrownoutConfig) *Brownout {
	cfg.fill()
	return &Brownout{cfg: cfg, ring: make([]bool, cfg.Window)}
}

// Note records one admission outcome (shed or admitted) and re-evaluates
// the brownout latch.
func (b *Brownout) Note(shed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == len(b.ring) {
		if b.ring[b.idx] {
			b.sheds--
		}
	} else {
		b.n++
	}
	b.ring[b.idx] = shed
	if shed {
		b.sheds++
	}
	b.idx = (b.idx + 1) % len(b.ring)

	frac := float64(b.sheds) / float64(b.n)
	if !b.active {
		// Entering requires a full window of evidence; a couple of sheds
		// on a cold server must not brown it out.
		if b.n == len(b.ring) && frac >= b.cfg.EnterFrac {
			b.active = true
			b.entries++
		}
	} else if frac <= b.cfg.ExitFrac {
		b.active = false
	}
}

// Active reports whether the server is currently browned out.
func (b *Brownout) Active() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}

// Entries returns how many times brownout has been entered.
func (b *Brownout) Entries() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.entries
}
