package chatls

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// TestStageRunner pins the contract of ChatLSPipeline.stage at each of the
// five places the flow calls it: what a success, a failure or panic, an
// expired deadline and a caller cancellation do to the call and the
// degradation report.
func TestStageRunner(t *testing.T) {
	db := liteDB(t)
	task := faultTask(t)
	// What the flow emits without refinement depends on whether this task's
	// draft is valid on its own.
	noExpert := NewChatLS(llm.New(llm.GPT4o, 2), db)
	noExpert.DisableExpert = true
	draft, err := noExpert.CustomizeResult(context.Background(), task, 0)
	if err != nil {
		t.Fatal(err)
	}
	unrefined := "emit unrefined draft"
	if hasErrors(synth.ValidateScript(draft.Script)) {
		unrefined = "draft invalid without refinement; return baseline script"
	}
	cases := []struct {
		comp string
		// fallback is the action recorded when the stage fails; "" marks
		// the generator, which aborts instead.
		fallback string
	}{
		{resilience.CompMentor, "proceed without design characteristics"},
		{resilience.CompRAGEmbed, "proceed without retrieved strategies"},
		{resilience.CompRAGRetrieve, "proceed without retrieved strategies"},
		{resilience.CompExpert, unrefined},
		{resilience.CompGenerate, ""},
	}
	newPipeline := func() (*ChatLSPipeline, *resilience.Injector) {
		p := NewChatLS(llm.New(llm.GPT4o, 2), db)
		p.Inject = resilience.NewInjector() // no faults: counts boundary crossings
		return p, p.Inject
	}
	t.Run("a clean run degrades nothing", func(t *testing.T) {
		p, inj := newPipeline()
		res, err := p.CustomizeResult(context.Background(), task, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degradation.Degraded() {
			t.Fatalf("clean run degraded: %v", res.Degradation)
		}
		for _, tc := range cases {
			if got := inj.Calls(tc.comp); got != 1 {
				t.Errorf("stage %s crossed the boundary %d times, want 1", tc.comp, got)
			}
		}
	})
	for _, tc := range cases {
		t.Run(tc.comp+"/a failing stage runs once", func(t *testing.T) {
			for _, mode := range []resilience.Mode{resilience.ModeFail, resilience.ModePanic} {
				p, _ := newPipeline()
				inj := resilience.NewInjector(resilience.Fault{Component: tc.comp, Mode: mode})
				p.Inject = inj
				want := resilience.ErrComponentFailed
				if mode == resilience.ModePanic {
					want = resilience.ErrComponentPanic
				}

				res, err := p.CustomizeResult(context.Background(), task, 0)
				if got := inj.Calls(tc.comp); got != 1 {
					t.Errorf("%s: stage boundary crossed %d times, want 1 (no retry)", mode, got)
				}
				if tc.fallback == "" {
					if !errors.Is(err, want) {
						t.Fatalf("%s: err = %v, want wrapping %v", mode, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: optional stage should degrade, got %v", mode, err)
				}
				ev := res.Degradation.Of(tc.comp)
				if ev == nil {
					t.Fatalf("%s: degraded %v, want an entry under %s", mode, res.Degradation.Components(), tc.comp)
				}
				if ev.Fallback != tc.fallback || !errors.Is(ev.Err, want) {
					t.Errorf("%s: entry = %q (%v), want %q wrapping %v", mode, ev.Fallback, ev.Err, tc.fallback, want)
				}
				if res.Script == "" {
					t.Errorf("%s: degraded call returned no script", mode)
				}
			}
		})

		t.Run(tc.comp+"/deadline expiry aborts", func(t *testing.T) {
			// The deadline is the only budget: once it expires inside any
			// stage, optional ones included, the call aborts with the fatal
			// ErrTimeout rather than degrading, and no later stage starts.
			p, _ := newPipeline()
			inj := resilience.NewInjector(resilience.Fault{Component: tc.comp, Mode: resilience.ModeHang})
			p.Inject = inj
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()

			_, err := p.CustomizeResult(ctx, task, 0)
			if !errors.Is(err, resilience.ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if got := inj.Calls(tc.comp); got != 1 {
				t.Errorf("stage boundary crossed %d times, want 1", got)
			}
			if tc.comp != resilience.CompExpert {
				if got := inj.Calls(resilience.CompExpert); got != 0 {
					t.Errorf("the last stage started %d times after the deadline, want 0", got)
				}
			}
		})

		t.Run(tc.comp+"/cancellation is no verdict", func(t *testing.T) {
			p, _ := newPipeline()
			inj := resilience.NewInjector(resilience.Fault{Component: tc.comp, Mode: resilience.ModeHang})
			p.Inject = inj

			// Cancel once the flow hangs inside this stage, not before.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			returned := make(chan struct{})
			go func() {
				for inj.Calls(tc.comp) == 0 {
					select {
					case <-returned:
						return
					case <-time.After(time.Millisecond):
					}
				}
				cancel()
			}()
			_, err := p.CustomizeResult(ctx, task, 0)
			close(returned)
			if !errors.Is(err, resilience.ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			if got := inj.Calls(tc.comp); got != 1 {
				t.Fatalf("stage boundary crossed %d times, want 1 (cancelled inside it)", got)
			}
		})
	}
}
