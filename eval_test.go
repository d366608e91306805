package chatls

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/resilience"
)

// brokenPipeline always emits a script that dies in the tool.
type brokenPipeline struct{}

func (brokenPipeline) Name() string { return "broken" }
func (brokenPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	return Customization{Script: "optimize_timing -aggressive\n"}, nil
}

// TestRunPassKFallsBackToBaseline: when every sample fails, the evaluation
// reports the baseline QoR (a wasted customization attempt, not a
// destroyed design).
func TestRunPassKFallsBackToBaseline(t *testing.T) {
	res, err := RunPassK(context.Background(), brokenPipeline{}, designs.RiscV32i(), 3, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != 0 || res.BestSample != -1 {
		t.Errorf("broken pipeline should produce no valid samples: %+v", res)
	}
	if res.Best != res.Baseline {
		t.Error("best must fall back to baseline")
	}
	if res.Improved() {
		t.Error("fallback must not count as improvement")
	}
	for _, s := range res.Samples {
		if s.Err == "" {
			t.Error("every sample should carry an error")
		}
	}
}

// TestRunPassKParallelMatchesSerial: parallel evaluation must reproduce the
// serial protocol exactly — every sample, the best QoR, and the winning
// index — because samples are seeded by index, not by schedule.
func TestRunPassKParallelMatchesSerial(t *testing.T) {
	d := designs.RiscV32i()
	p := &RawPipeline{Model: llm.New(llm.GPT4o, 20250706)}
	serial, err := RunPassK(context.Background(), p, d, 5, testLib)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPassKOpts(context.Background(), p, d, 5, testLib, EvalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel result diverged from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}

// abortingPipeline fails sample `at` fatally (a cancelled caller) and notes
// every sample that was started.
type abortingPipeline struct {
	inner   Pipeline
	at      int
	mu      sync.Mutex
	started map[int]bool
}

func (p *abortingPipeline) Name() string { return p.inner.Name() }
func (p *abortingPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	p.mu.Lock()
	p.started[sample] = true
	p.mu.Unlock()
	if sample == p.at {
		return Customization{}, resilience.ContextError("test", context.Canceled)
	}
	return p.inner.CustomizeResult(ctx, t, sample)
}

// TestEvalTruncatesAtFirstFatalSample: a fatal sample ends the evaluation
// with the samples before it and its error, whatever the worker count; the
// serial protocol starts nothing after it, and a parallel one never skips a
// sample before it.
func TestEvalTruncatesAtFirstFatalSample(t *testing.T) {
	const k, at = 6, 2
	task, base, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (EvalResult, map[int]bool) {
		p := &abortingPipeline{inner: &RawPipeline{Model: llm.New(llm.GPT4o, 20250706)}, at: at, started: map[int]bool{}}
		res, err := EvalTaskOpts(context.Background(), p, task, base, k, testLib, EvalOptions{Workers: workers})
		if !errors.Is(err, resilience.ErrCancelled) {
			t.Fatalf("workers=%d: err = %v, want the fatal sample's cancellation", workers, err)
		}
		return res, p.started
	}
	want, started := run(1)
	if len(want.Samples) != at {
		t.Fatalf("serial run kept %d samples, want the %d before the fatal one", len(want.Samples), at)
	}
	if len(started) != at+1 {
		t.Errorf("serial run started samples %v, want exactly 0..%d", started, at)
	}
	for _, workers := range []int{2, 4, k + 3} {
		got, started := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from the serial run:\nserial:   %+v\nparallel: %+v", workers, want, got)
		}
		for s := 0; s <= at; s++ {
			if !started[s] {
				t.Errorf("workers=%d: sample %d, before the fatal one, never ran", workers, s)
			}
		}
	}
}

// TestCustomizeResultConcurrent: one pipeline instance must tolerate
// concurrent CustomizeResult calls (the serving path shares nothing but the
// immutable model/database). Meaningful under -race.
func TestCustomizeResultConcurrent(t *testing.T) {
	task, _, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	p := &RawPipeline{Model: llm.New(llm.GPT4o, 7)}
	want, err := p.CustomizeResult(context.Background(), task, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.CustomizeResult(context.Background(), task, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Script != want.Script {
				t.Error("concurrent CustomizeResult diverged for identical inputs")
			}
		}()
	}
	wg.Wait()
}
