package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrInjected marks failures produced by the fault injector, so tests can
// tell an injected fault from a genuine one.
var ErrInjected = errors.New("resilience: injected fault")

// Mode selects how an injected fault manifests.
type Mode int

const (
	// ModeFail makes the guarded call return an error.
	ModeFail Mode = iota + 1
	// ModePanic makes the guarded call panic (the boundary must recover it).
	ModePanic
	// ModeHang blocks the guarded call until its context is done (the
	// caller's deadline must bound it).
	ModeHang
)

func (m Mode) String() string {
	switch m {
	case ModeFail:
		return "fail"
	case ModePanic:
		return "panic"
	case ModeHang:
		return "hang"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Fault schedules faults for one component. Calls lists the 1-based call
// numbers that fault; an empty list faults every call.
type Fault struct {
	Component string
	Mode      Mode
	Calls     []int
}

// Injector deterministically injects faults at guarded component
// boundaries: the Nth call to a named component fails, panics, or hangs as
// scheduled. A nil *Injector is inert. Safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	faults []Fault
	sticky map[string]Mode
	counts map[string]int
}

// NewInjector builds an injector over a fault schedule.
func NewInjector(faults ...Fault) *Injector {
	return &Injector{faults: faults, counts: make(map[string]int)}
}

// Set installs (mode > 0) or clears (mode 0) a sticky fault: every call to
// component faults with mode until cleared. The chaos harness drives
// outage windows through this — it turns a component off, checks that every
// reply degrades that component and nothing else, then turns it back on and
// checks that the next reply is whole again.
func (in *Injector) Set(component string, mode Mode) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sticky == nil {
		in.sticky = make(map[string]Mode)
	}
	if mode == 0 {
		delete(in.sticky, component)
		return
	}
	in.sticky[component] = mode
}

// Fire is invoked at the start of each guarded call to component. It
// returns an injected error, panics, or blocks on ctx per the schedule;
// unscheduled calls pass through untouched.
func (in *Injector) Fire(ctx context.Context, component string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.counts[component]++
	n := in.counts[component]
	if mode, ok := in.sticky[component]; ok {
		in.mu.Unlock()
		switch mode {
		case ModePanic:
			panic(fmt.Sprintf("injected panic in %s (call %d)", component, n))
		case ModeHang:
			<-ctx.Done()
			return ctx.Err()
		default:
			return fmt.Errorf("%w: %s (call %d)", ErrInjected, component, n)
		}
	}
	var hit *Fault
	for i := range in.faults {
		f := &in.faults[i]
		if f.Component != component {
			continue
		}
		if len(f.Calls) == 0 {
			hit = f
			break
		}
		for _, c := range f.Calls {
			if c == n {
				hit = f
				break
			}
		}
		if hit != nil {
			break
		}
	}
	in.mu.Unlock()
	if hit == nil {
		return nil
	}
	switch hit.Mode {
	case ModePanic:
		panic(fmt.Sprintf("injected panic in %s (call %d)", component, n))
	case ModeHang:
		<-ctx.Done()
		return ctx.Err()
	default:
		return fmt.Errorf("%w: %s (call %d)", ErrInjected, component, n)
	}
}

// Calls reports how many times the component boundary has been crossed.
func (in *Injector) Calls(component string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[component]
}
