package chatls

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/overload"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// TestStageRunner pins the contract of ChatLSPipeline.stage at each of the
// five places the flow calls it: what an open breaker, a deadline the
// expected cost cannot fit, a success, and a caller cancellation do to the
// call, the breaker, the cost model and the degradation report.
func TestStageRunner(t *testing.T) {
	db := liteDB(t)
	task := faultTask(t)
	const skipped = "skipped: insufficient deadline budget"
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
		// fallback is the action recorded when the stage fails or its
		// breaker is open; "" marks the generator, which aborts instead.
		fallback string
		// budgetUnder is the component a budget rejection caused by this
		// stage's cost is recorded under.
		budgetUnder string
	}{
		{resilience.CompMentor, "proceed without design characteristics", resilience.CompMentor},
		{resilience.CompRAGEmbed, "proceed without retrieved strategies", resilience.CompRAGEmbed},
		// Retrieval has no check of its own: embedding budgets the group.
		{resilience.CompRAGRetrieve, "proceed without retrieved strategies", resilience.CompRAGEmbed},
		{resilience.CompExpert, unrefined, resilience.CompExpert},
		{resilience.CompGenerate, "", ""},
	}
	newPipeline := func() (*ChatLSPipeline, *resilience.Injector) {
		p := NewChatLS(llm.New(llm.GPT4o, 2), db)
		p.Retry.BaseDelay = 0
		p.Costs = overload.NewCostModel(0)
		p.Inject = resilience.NewInjector() // no faults: counts boundary crossings
		return p, p.Inject
	}
	t.Run("success feeds the cost model", func(t *testing.T) {
		p, _ := newPipeline()
		res, err := p.CustomizeResult(context.Background(), task, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degradation.Degraded() {
			t.Fatalf("clean run degraded: %v", res.Degradation)
		}
		for _, tc := range cases {
			if p.Costs.Expect(tc.comp) <= 0 {
				t.Errorf("Costs.Expect(%s) = %v after a success, want > 0", tc.comp, p.Costs.Expect(tc.comp))
			}
		}
	})
	for _, tc := range cases {
		t.Run(tc.comp+"/open breaker", func(t *testing.T) {
			p, inj := newPipeline()
			br := resilience.NewBreaker(resilience.BreakerConfig{Failures: 1, OpenFor: time.Hour})
			br.Failure()
			p.Breakers = map[string]*resilience.Breaker{tc.comp: br}

			res, err := p.CustomizeResult(context.Background(), task, 0)
			if got := inj.Calls(tc.comp); got != 0 {
				t.Errorf("injector boundary crossed %d times behind an open breaker, want 0", got)
			}
			if tc.fallback == "" {
				if !errors.Is(err, resilience.ErrBreakerOpen) {
					t.Fatalf("err = %v, want wrapping ErrBreakerOpen", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("optional stage should degrade, got %v", err)
			}
			ev := res.Degradation.Of(tc.comp)
			if ev == nil {
				t.Fatalf("degraded %v, want an entry under %s", res.Degradation.Components(), tc.comp)
			}
			if ev.Fallback != tc.fallback || !errors.Is(ev.Err, resilience.ErrBreakerOpen) {
				t.Errorf("entry = %q (%v), want %q wrapping ErrBreakerOpen", ev.Fallback, ev.Err, tc.fallback)
			}
			if res.Script == "" {
				t.Error("degraded call returned no script")
			}
		})

		t.Run(tc.comp+"/over budget", func(t *testing.T) {
			p, inj := newPipeline()
			p.Costs.Observe(tc.comp, time.Hour)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			res, err := p.CustomizeResult(ctx, task, 0)
			if tc.fallback == "" {
				if !errors.Is(err, overload.ErrBudget) {
					t.Fatalf("err = %v, want wrapping overload.ErrBudget", err)
				}
				if got := inj.Calls(tc.comp); got != 0 {
					t.Errorf("generator attempted %d times on a budget it cannot fit, want 0", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("optional stage should be skipped, got %v", err)
			}
			ev := res.Degradation.Of(tc.budgetUnder)
			if ev == nil {
				t.Fatalf("degraded %v, want an entry under %s", res.Degradation.Components(), tc.budgetUnder)
			}
			if ev.Fallback != skipped || !errors.Is(ev.Err, overload.ErrBudget) {
				t.Errorf("entry = %q (%v), want %q wrapping overload.ErrBudget", ev.Fallback, ev.Err, skipped)
			}
			if got := inj.Calls(tc.comp); got != 0 {
				t.Errorf("skipped stage crossed the injector boundary %d times, want 0", got)
			}
		})

		t.Run(tc.comp+"/cancellation is no verdict", func(t *testing.T) {
			p, _ := newPipeline()
			inj := resilience.NewInjector(resilience.Fault{Component: tc.comp, Mode: resilience.ModeHang})
			p.Inject = inj
			// One failure would open it, so staying closed means the
			// cancellation was dropped rather than counted.
			br := resilience.NewBreaker(resilience.BreakerConfig{Failures: 1, OpenFor: time.Hour})
			p.Breakers = map[string]*resilience.Breaker{tc.comp: br}

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
			if br.State() != resilience.BreakerClosed {
				t.Errorf("breaker %v after a caller cancellation, want closed", br.State())
			}
		})
	}
}
