// Package inputlimits defines the resource budgets every untrusted-input
// surface of the pipeline parses under. The serving north star is a daemon
// taking arbitrary bytes from the network — Verilog netlists, dc_shell
// scripts, Cypher queries, JSON request bodies — and every one of those
// parsers must provably terminate, in bounded memory, on any input. A Budget
// caps what one parse may cost; a Meter enforces it incrementally; a
// LimitError reports which cap tripped and integrates with the resilience
// error taxonomy (errors.Is(err, resilience.ErrBudgetExceeded) holds for
// every limit violation), so serving-path callers classify budget exhaustion
// exactly like a script command budget running out.
//
// The shipped budgets are fixed constants, one per parser surface (For),
// and the serving daemon echoes them on /healthz. They are generous enough
// that every legitimate input in the repository — generated benchmark RTL,
// pipeline-emitted synthesis scripts, SynthRAG's internal graph queries —
// parses untouched; they exist to bound adversarial inputs, not to ration
// normal ones.
package inputlimits

import (
	"fmt"

	"repro/internal/resilience"
)

// Surface names the untrusted-input surfaces. They appear in LimitError
// messages and metrics, and select a Budget via For.
const (
	SurfaceVerilog = "verilog"
	SurfaceScript  = "script"
	SurfaceCypher  = "cypher"
	SurfaceHTTP    = "http"
)

// Budget caps what parsing (or executing) one untrusted input may cost.
// A zero or negative field means that dimension is unlimited, so the zero
// Budget imposes no limits at all. The JSON form is the /healthz echo.
type Budget struct {
	MaxBytes      int `json:"max_bytes,omitempty"`      // input size in bytes
	MaxTokens     int `json:"max_tokens,omitempty"`     // lexical tokens produced
	MaxDepth      int `json:"max_depth,omitempty"`      // nesting/recursion depth (expressions, blocks)
	MaxStatements int `json:"max_statements,omitempty"` // statements / clauses / declarations accepted
	MaxSteps      int `json:"max_steps,omitempty"`      // total parser/executor work units (loop iterations)
}

// Limit names which Budget dimension a LimitError tripped.
type Limit string

const (
	LimitBytes      Limit = "bytes"
	LimitTokens     Limit = "tokens"
	LimitDepth      Limit = "depth"
	LimitStatements Limit = "statements"
	LimitSteps      Limit = "steps"
)

// LimitError reports that an input exceeded its parse budget. It unwraps to
// resilience.ErrBudgetExceeded so guarded serving-path callers classify it
// with the existing taxonomy.
type LimitError struct {
	Surface string // which input surface (SurfaceVerilog, ...)
	Limit   Limit  // which dimension tripped
	Max     int    // the configured cap
	Actual  int    // the observed value that exceeded it
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s input exceeds %s budget (%d > %d)", e.Surface, e.Limit, e.Actual, e.Max)
}

// Unwrap ties the limit into the resilience taxonomy.
func (e *LimitError) Unwrap() error { return resilience.ErrBudgetExceeded }

// budgets is the shipped budget per parser surface: sized an order of
// magnitude above the largest legitimate inputs in the repository
// (multi-thousand-gate mapped netlists re-parsed through the frontend are the
// biggest), while still bounding adversarial blowups to well under a second
// of parse work. It is never written, so concurrent parses read it freely.
var budgets = map[string]Budget{
	SurfaceVerilog: {MaxBytes: 8 << 20, MaxTokens: 4 << 20, MaxDepth: 256, MaxStatements: 1 << 20, MaxSteps: 16 << 20},
	SurfaceScript:  {MaxBytes: 1 << 20, MaxTokens: 1 << 19, MaxDepth: 64, MaxStatements: 1 << 16, MaxSteps: 4 << 20},
	SurfaceCypher:  {MaxBytes: 1 << 16, MaxTokens: 1 << 13, MaxDepth: 64, MaxStatements: 1 << 10, MaxSteps: 1 << 20},
}

// For returns the shipped budget for a parser surface. Other surfaces get
// the zero (unlimited) budget.
func For(surface string) Budget { return budgets[surface] }

// Meter enforces a Budget incrementally during one parse. The zero Meter
// (and a nil *Meter) enforces nothing, so parsers can thread it
// unconditionally. Meters are single-goroutine, like the parsers they meter.
type Meter struct {
	surface string
	budget  Budget
	tokens  int
	steps   int
	depth   int
}

// NewMeter starts metering one parse of the given surface under b.
func NewMeter(surface string, b Budget) *Meter {
	return &Meter{surface: surface, budget: b}
}

func (m *Meter) exceed(l Limit, max, actual int) error {
	return &LimitError{Surface: m.surface, Limit: l, Max: max, Actual: actual}
}

// CheckBytes validates the total input size up front.
func (m *Meter) CheckBytes(n int) error {
	if m == nil || m.budget.MaxBytes <= 0 || n <= m.budget.MaxBytes {
		return nil
	}
	return m.exceed(LimitBytes, m.budget.MaxBytes, n)
}

// Token counts one lexical token.
func (m *Meter) Token() error {
	if m == nil || m.budget.MaxTokens <= 0 {
		return nil
	}
	m.tokens++
	if m.tokens > m.budget.MaxTokens {
		return m.exceed(LimitTokens, m.budget.MaxTokens, m.tokens)
	}
	return nil
}

// Step counts one unit of parser/executor work.
func (m *Meter) Step() error {
	if m == nil || m.budget.MaxSteps <= 0 {
		return nil
	}
	m.steps++
	if m.steps > m.budget.MaxSteps {
		return m.exceed(LimitSteps, m.budget.MaxSteps, m.steps)
	}
	return nil
}

// StepN counts n units of work at once — e.g. bytes produced by a
// substitution, or bindings materialized by one query clause — so
// amplification attacks (small input, huge intermediate state) trip the
// step budget in proportion to the state they create.
func (m *Meter) StepN(n int) error {
	if m == nil || m.budget.MaxSteps <= 0 {
		return nil
	}
	m.steps += n
	if m.steps > m.budget.MaxSteps {
		return m.exceed(LimitSteps, m.budget.MaxSteps, m.steps)
	}
	return nil
}

// Statement counts one accepted statement/clause/declaration against
// MaxStatements; n is how many were accepted so far including this one.
func (m *Meter) Statement(n int) error {
	if m == nil || m.budget.MaxStatements <= 0 || n <= m.budget.MaxStatements {
		return nil
	}
	return m.exceed(LimitStatements, m.budget.MaxStatements, n)
}

// Enter descends one nesting level; pair with Exit on every return path.
func (m *Meter) Enter() error {
	if m == nil {
		return nil
	}
	m.depth++
	if m.budget.MaxDepth > 0 && m.depth > m.budget.MaxDepth {
		return m.exceed(LimitDepth, m.budget.MaxDepth, m.depth)
	}
	return nil
}

// Exit ascends one nesting level.
func (m *Meter) Exit() {
	if m != nil {
		m.depth--
	}
}
