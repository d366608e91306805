package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestExecuteComponentFailed(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Execute(context.Background(), Op{Component: "c"}, func(ctx context.Context) error {
		calls++
		return boom
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retry)", calls)
	}
	if !errors.Is(err, ErrComponentFailed) {
		t.Fatalf("want ErrComponentFailed, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Error("cause must be preserved through the wrap")
	}
	var re *Error
	if !errors.As(err, &re) || re.Component != "c" {
		t.Errorf("classified error wrong: %+v", re)
	}
	if IsFatal(err) {
		t.Error("a component failure is degradable, not fatal")
	}
}

func TestExecutePanicConverted(t *testing.T) {
	err := Execute(context.Background(), Op{Component: "c"}, func(ctx context.Context) error {
		panic("kaboom")
	})
	if !errors.Is(err, ErrComponentPanic) {
		t.Fatalf("want ErrComponentPanic, got %v", err)
	}
	var re *Error
	if !errors.As(err, &re) {
		t.Fatal("not a *Error")
	}
	// Every guarded failure wraps exactly one sentinel.
	if errors.Is(err, ErrComponentFailed) {
		t.Error("a recovered panic must not also read as ErrComponentFailed")
	}
}

func TestExecutePanicStackCaptured(t *testing.T) {
	err := Execute(context.Background(), Op{Component: "c"}, func(ctx context.Context) error {
		panic("kaboom")
	})
	var re *Error
	if !errors.As(err, &re) || len(re.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

func TestExecutePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Execute(ctx, Op{Component: "c"}, func(ctx context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if calls != 0 {
		t.Error("fn must not run under a cancelled context")
	}
	if !IsFatal(err) {
		t.Error("cancellation is fatal")
	}
}

func TestExecuteTimeoutDuringHang(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	inj := NewInjector(Fault{Component: "c", Mode: ModeHang})
	start := time.Now()
	err := Execute(ctx, Op{Component: "c", Injector: inj}, func(ctx context.Context) error {
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hang not bounded by deadline: %v", elapsed)
	}
	if !IsFatal(err) {
		t.Error("timeout is fatal")
	}
}

func TestExecuteCtxErrorNotRetried(t *testing.T) {
	calls := 0
	err := Execute(context.Background(), Op{Component: "c"}, func(ctx context.Context) error {
		calls++
		return context.DeadlineExceeded
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if calls != 1 {
		t.Errorf("ctx errors must not be retried, calls = %d", calls)
	}
}

func TestInjectorNthCall(t *testing.T) {
	inj := NewInjector(Fault{Component: "c", Mode: ModeFail, Calls: []int{2}})
	ctx := context.Background()
	if err := inj.Fire(ctx, "c"); err != nil {
		t.Errorf("call 1 should pass: %v", err)
	}
	if err := inj.Fire(ctx, "c"); !errors.Is(err, ErrInjected) {
		t.Errorf("call 2 should fault: %v", err)
	}
	if err := inj.Fire(ctx, "c"); err != nil {
		t.Errorf("call 3 should pass: %v", err)
	}
	if err := inj.Fire(ctx, "other"); err != nil {
		t.Errorf("other components untouched: %v", err)
	}
	if inj.Calls("c") != 3 {
		t.Errorf("calls = %d, want 3", inj.Calls("c"))
	}
}

func TestNilInjectorInert(t *testing.T) {
	var inj *Injector
	if err := inj.Fire(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	if inj.Calls("c") != 0 {
		t.Error("nil injector should count nothing")
	}
}

func TestContextErrorClassification(t *testing.T) {
	e := ContextError(CompSynth, context.DeadlineExceeded)
	if !errors.Is(e, ErrTimeout) || errors.Is(e, ErrCancelled) {
		t.Errorf("deadline -> ErrTimeout, got %v", e)
	}
	e = ContextError(CompSynth, context.Canceled)
	if !errors.Is(e, ErrCancelled) {
		t.Errorf("cancel -> ErrCancelled, got %v", e)
	}
}

func TestDegradationReport(t *testing.T) {
	var r DegradationReport
	if r.Degraded() {
		t.Error("empty report is not degraded")
	}
	r.Record(CompMentor, "proceed without design characteristics", errors.New("x"))
	r.Record(CompExpert, "emit unrefined draft", errors.New("y"))
	if !r.Degraded() {
		t.Error("report with events is degraded")
	}
	if r.Of(CompMentor) == nil || r.Of(CompRAGEmbed) != nil {
		t.Error("Of lookup wrong")
	}
	comps := r.Components()
	if len(comps) != 2 || comps[0] != CompMentor || comps[1] != CompExpert {
		t.Errorf("components = %v", comps)
	}
	var nilRep *DegradationReport
	if nilRep.Degraded() || nilRep.Of("x") != nil || nilRep.Components() != nil {
		t.Error("nil report must be inert")
	}
}
