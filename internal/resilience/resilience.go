// Package resilience is the fault-tolerant execution substrate of the
// ChatLS serving path. Every component call the pipeline makes —
// CircuitMentor analysis, SynthRAG retrieval, LLM generation, SynthExpert
// refinement, synthesis-tool execution — runs behind a guarded boundary
// that provides:
//
//   - a typed error taxonomy (ErrTimeout, ErrCancelled, ErrBudgetExceeded,
//     ErrComponentPanic, ErrComponentFailed) so callers can distinguish
//     "give up on this request" from "degrade and continue";
//   - panic recovery, converting panics anywhere below the boundary into
//     ErrComponentPanic instead of crashing the process;
//   - seeded fault injection (fail / panic / hang the Nth call to a named
//     component) for the fault-injection test suite.
//
// The package is a leaf: it imports nothing from the rest of the repo, so
// every layer (synth, llm, synthrag, the pipeline facade) can depend on it.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
)

// Component names used at the pipeline's guarded boundaries.
const (
	CompMentor      = "circuitmentor"
	CompRAGEmbed    = "synthrag/embed"
	CompRAGRetrieve = "synthrag/retrieve"
	CompGenerate    = "llm/generate"
	CompExpert      = "synthexpert"
	CompSynth       = "synth"
	CompRemoteCache = "remotecache"
)

// The error taxonomy. Every guarded failure wraps exactly one of these
// sentinels (plus the underlying cause), so callers classify with errors.Is.
var (
	// ErrTimeout: the context deadline expired inside a component call.
	ErrTimeout = errors.New("resilience: timeout")
	// ErrCancelled: the context was cancelled inside a component call.
	ErrCancelled = errors.New("resilience: cancelled")
	// ErrBudgetExceeded: a step/command budget ran out (e.g. a script tried
	// to execute more commands than Session.MaxCommands allows).
	ErrBudgetExceeded = errors.New("resilience: budget exceeded")
	// ErrComponentPanic: a component panicked and the boundary recovered it.
	ErrComponentPanic = errors.New("resilience: component panic")
	// ErrComponentFailed: a component returned an error.
	ErrComponentFailed = errors.New("resilience: component failed")
)

// Error is a classified failure from a guarded component call.
type Error struct {
	Component string
	Kind      error // one of the taxonomy sentinels
	Cause     error // underlying failure (the component's error, recovered panic, ctx error)
	Stack     []byte
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", e.Component, e.Kind)
	if e.Cause != nil {
		fmt.Fprintf(&b, ": %v", e.Cause)
	}
	return b.String()
}

// Unwrap exposes both the taxonomy sentinel and the cause to errors.Is/As.
func (e *Error) Unwrap() []error {
	var out []error
	if e.Kind != nil {
		out = append(out, e.Kind)
	}
	if e.Cause != nil {
		out = append(out, e.Cause)
	}
	return out
}

// IsFatal reports whether the error means the whole request should abort
// (cancellation or deadline) rather than degrade to a weaker configuration.
func IsFatal(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrCancelled)
}

// ctxKind maps a context error onto its taxonomy sentinel.
func ctxKind(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ErrCancelled
}

// ContextError classifies a context error for a component. Use at points
// that observe ctx.Err() directly (e.g. the synthesis command-exec loop).
func ContextError(component string, err error) *Error {
	return &Error{Component: component, Kind: ctxKind(err), Cause: err}
}

// Op names one guarded component call.
type Op struct {
	Component string
	Injector  *Injector // nil outside the fault-injection suite
}

// Execute runs fn once behind the full boundary: fault injection, panic
// recovery, and context classification. Every component it guards is an
// in-process, deterministic function of its inputs, so a second attempt
// would only repeat the first. The returned error (if any) is always a
// *Error from the taxonomy:
//
//   - context cancellation/deadline -> ErrCancelled / ErrTimeout (fatal);
//   - a panic in fn                 -> ErrComponentPanic;
//   - any other failure             -> ErrComponentFailed wrapping it.
func Execute(ctx context.Context, op Op, fn func(context.Context) error) (err error) {
	if cerr := ctx.Err(); cerr != nil {
		return &Error{Component: op.Component, Kind: ctxKind(cerr), Cause: cerr}
	}
	defer func() {
		if r := recover(); r != nil {
			err = &Error{
				Component: op.Component,
				Kind:      ErrComponentPanic,
				Cause:     fmt.Errorf("panic: %v", r),
				Stack:     debug.Stack(),
			}
		}
	}()
	// The injector goes first, so injected panics and hangs exercise the
	// same recovery as real ones.
	if err = op.Injector.Fire(ctx, op.Component); err == nil {
		err = fn(ctx)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrTimeout) || errors.Is(err, ErrCancelled):
		return &Error{Component: op.Component, Kind: ctxKind(err), Cause: err}
	}
	return &Error{Component: op.Component, Kind: ErrComponentFailed, Cause: err}
}

// Degradation is one recorded fallback: a component failed and the
// pipeline continued in a weaker configuration instead of erroring.
type Degradation struct {
	Component string
	Fallback  string // what the pipeline did instead
	Err       error  // the classified failure that triggered the fallback
}

// DegradationReport collects what degraded during one pipeline call. It is
// attached to the customization result so callers (and the experiment
// harness) can tell a full-strength answer from a degraded one.
type DegradationReport struct {
	Events []Degradation
}

// Record appends one degradation event.
func (r *DegradationReport) Record(component, fallback string, err error) {
	r.Events = append(r.Events, Degradation{Component: component, Fallback: fallback, Err: err})
}

// Degraded reports whether anything degraded.
func (r *DegradationReport) Degraded() bool { return r != nil && len(r.Events) > 0 }

// Of returns the event for a component, or nil.
func (r *DegradationReport) Of(component string) *Degradation {
	if r == nil {
		return nil
	}
	for i := range r.Events {
		if r.Events[i].Component == component {
			return &r.Events[i]
		}
	}
	return nil
}

// Components lists the degraded component names in order.
func (r *DegradationReport) Components() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.Events))
	for i, ev := range r.Events {
		out[i] = ev.Component
	}
	return out
}

func (r *DegradationReport) String() string {
	if !r.Degraded() {
		return "no degradation"
	}
	var b strings.Builder
	for i, ev := range r.Events {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s degraded (%s): %v", ev.Component, ev.Fallback, ev.Err)
	}
	return b.String()
}
