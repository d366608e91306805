// Package overload implements adaptive overload protection for the serving
// fleet: an AIMD concurrency limiter driven by observed completion latency
// against a moving p50 baseline, a per-stage EWMA cost model that lets
// callers shed work whose expected cost exceeds the remaining deadline
// budget, and a brownout controller that degrades service (fewer Pass@k
// samples, cache-first answers) under sustained admission pressure.
//
// Everything in this package is deterministic given the sequence of
// observations fed to it: the limiter and brownout controller never read a
// clock, and the cost model only stores durations its callers measured.
// That keeps unit tests and the seeded chaos harness reproducible.
package overload

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// ExpectSum returns the summed estimate across stages; unknown stages
// contribute zero.
func (m *CostModel) ExpectSum(stages ...string) time.Duration {
	var sum time.Duration
	for _, s := range stages {
		sum += m.Expect(s)
	}
	return sum
}

// Snapshot returns a copy of every stage estimate, for healthz/debugging.
func (m *CostModel) Snapshot() map[string]time.Duration {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]time.Duration, len(m.ewma))
	for k, v := range m.ewma {
		out[k] = time.Duration(v)
	}
	return out
}

// LimiterConfig bounds the adaptive concurrency limiter.
type LimiterConfig struct {
	// Floor/Ceiling bound the adaptive limit. Floor defaults to 1;
	// Ceiling defaults to max(Floor, 16).
	Floor   int
	Ceiling int
	// Initial is the starting limit; 0 means start at Ceiling (the
	// pre-adaptive fixed cap, so a fresh server admits exactly what the
	// static configuration used to).
	Initial int
	// Window is the number of recent latencies kept for the moving p50
	// baseline (default 64).
	Window int
}

// AIMD tuning of the Limiter.
const (
	// limiterThreshold is the congestion trigger: a completion slower than
	// limiterThreshold x baseline-p50 counts as congested.
	limiterThreshold = 2.0
	// limiterDecrease is the multiplicative backoff applied to the limit
	// on congestion.
	limiterDecrease = 0.9
	// limiterBaselineInflate bounds how fast the p50 baseline may drift
	// upward per window epoch (+25% per half-window), so a sustained
	// latency spike cannot quickly redefine "normal".
	limiterBaselineInflate = 1.25
)

func (c *LimiterConfig) fill() {
	if c.Floor <= 0 {
		c.Floor = 1
	}
	if c.Ceiling < c.Floor {
		if c.Ceiling <= 0 {
			c.Ceiling = 16
		}
		if c.Ceiling < c.Floor {
			c.Ceiling = c.Floor
		}
	}
	if c.Initial <= 0 {
		c.Initial = c.Ceiling
	}
	if c.Initial < c.Floor {
		c.Initial = c.Floor
	}
	if c.Initial > c.Ceiling {
		c.Initial = c.Ceiling
	}
	if c.Window <= 0 {
		c.Window = 64
	}
}

// Limiter is an AIMD adaptive concurrency limiter. Completions feed
// observed latencies into a moving window; the median of the best recent
// window epoch is the baseline. A completion slower than limiterThreshold x
// baseline multiplicatively shrinks the limit (rate-limited to one
// decrease per `limit` completions, the AIMD analogue of once-per-RTT);
// an on-time completion additively grows it by 1/limit. The limit always
// stays within [Floor, Ceiling].
//
// The limiter is clock-free: callers measure latencies however they like
// and pass them to Release, which makes behavior a pure function of the
// observation sequence.
type Limiter struct {
	mu       sync.Mutex
	cfg      LimiterConfig
	limit    float64
	inflight int

	ring     []time.Duration
	ringIdx  int
	ringLen  int
	obs      int64 // total observations, drives epoch boundaries
	baseline time.Duration
	cooldown int64 // observation count before the next decrease is allowed

	sheds     int64
	decreases int64
	increases int64
}

// NewLimiter builds a limiter; zero-valued fields of cfg get defaults.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg.fill()
	return &Limiter{
		cfg:   cfg,
		limit: float64(cfg.Initial),
		ring:  make([]time.Duration, cfg.Window),
	}
}

// Acquire claims an in-flight slot, returning false (a shed) when the
// current adaptive limit is reached.
func (l *Limiter) Acquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight >= int(l.limit) {
		l.sheds++
		return false
	}
	l.inflight++
	return true
}

// Release returns a slot and folds the observed completion latency into
// the AIMD feedback loop.
func (l *Limiter) Release(latency time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
	if latency < 0 {
		latency = 0
	}

	l.ring[l.ringIdx] = latency
	l.ringIdx = (l.ringIdx + 1) % len(l.ring)
	if l.ringLen < len(l.ring) {
		l.ringLen++
	}
	l.obs++

	// Re-anchor the baseline every half window: take the window median,
	// but never let the baseline climb more than limiterBaselineInflate per
	// epoch — a sustained spike must not redefine "normal" before the
	// limiter has contracted.
	half := int64(len(l.ring) / 2)
	if half < 1 {
		half = 1
	}
	if l.obs%half == 0 && l.ringLen >= len(l.ring)/4 {
		med := l.median()
		switch {
		case l.baseline == 0:
			l.baseline = med
		case med < l.baseline:
			l.baseline = med
		default:
			inflated := time.Duration(float64(l.baseline) * limiterBaselineInflate)
			if med < inflated {
				l.baseline = med
			} else {
				l.baseline = inflated
			}
		}
		if l.baseline < time.Microsecond {
			l.baseline = time.Microsecond
		}
	}

	if l.baseline == 0 {
		return // not enough history yet
	}
	congested := float64(latency) > limiterThreshold*float64(l.baseline)
	if congested {
		if l.obs >= l.cooldown {
			l.limit *= limiterDecrease
			if l.limit < float64(l.cfg.Floor) {
				l.limit = float64(l.cfg.Floor)
			}
			l.decreases++
			// One multiplicative decrease per `limit` completions: the
			// slow completions already in flight belong to the same
			// congestion event and must not each shrink the limit.
			l.cooldown = l.obs + int64(l.limit)
		}
		return
	}
	if l.limit < float64(l.cfg.Ceiling) {
		l.limit += 1 / l.limit
		if l.limit > float64(l.cfg.Ceiling) {
			l.limit = float64(l.cfg.Ceiling)
		}
		l.increases++
	}
}

// median of the filled portion of the ring. Caller holds l.mu.
func (l *Limiter) median() time.Duration {
	buf := make([]time.Duration, l.ringLen)
	copy(buf, l.ring[:l.ringLen])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[l.ringLen/2]
}

// Limit returns the current adaptive limit (floored int of the internal
// fractional limit, never below Floor).
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := int(l.limit)
	if n < l.cfg.Floor {
		n = l.cfg.Floor
	}
	return n
}

// Inflight returns the number of currently held slots.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Floor and Ceiling expose the configured bounds (for healthz).
func (l *Limiter) Floor() int   { return l.cfg.Floor }
func (l *Limiter) Ceiling() int { return l.cfg.Ceiling }

// Sheds returns the number of Acquire calls rejected so far.
func (l *Limiter) Sheds() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sheds
}

// Baseline returns the current p50 latency baseline (0 until primed).
func (l *Limiter) Baseline() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseline
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
