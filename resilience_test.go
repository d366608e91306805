package chatls

// The fault-injection suite: every injected fault — fail, panic, or hang —
// at every guarded component boundary must yield either a usable script
// (with the degradation recorded) or a typed taxonomy error. Never an
// uncaught panic, never an unbounded hang.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

var testDBLite *synthrag.Database

// liteDB builds a fast SkipSynth database (no expert-draft synthesis) —
// enough for the pipeline to run end-to-end.
func liteDB(t *testing.T) *synthrag.Database {
	t.Helper()
	if testDBLite == nil {
		db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: testLib})
		if err != nil {
			t.Fatal(err)
		}
		testDBLite = db
	}
	return testDBLite
}

func faultTask(t *testing.T) *Task {
	t.Helper()
	task, _, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// TestFaultInjectionMatrix drives every (component, mode) combination
// through a full Customize call. Auxiliary components must degrade
// gracefully to a runnable script; the generator must fail with a typed
// error; a hang must be bounded by the context deadline.
func TestFaultInjectionMatrix(t *testing.T) {
	db := liteDB(t)
	task := faultTask(t)
	components := []string{
		resilience.CompMentor,
		resilience.CompRAGEmbed,
		resilience.CompRAGRetrieve,
		resilience.CompGenerate,
		resilience.CompExpert,
	}
	modes := []resilience.Mode{resilience.ModeFail, resilience.ModePanic, resilience.ModeHang}

	for _, comp := range components {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", comp, mode), func(t *testing.T) {
				p := NewChatLS(llm.New(llm.GPT4o, 2), db)
				p.Inject = resilience.NewInjector(resilience.Fault{Component: comp, Mode: mode})

				ctx := context.Background()
				var cancel context.CancelFunc
				if mode == resilience.ModeHang {
					ctx, cancel = context.WithTimeout(ctx, 300*time.Millisecond)
					defer cancel()
				}

				cres, err := p.CustomizeResult(ctx, task, 0)
				script, rep := cres.Script, cres.Degradation

				if mode == resilience.ModeHang {
					// A hang is bounded by the deadline and surfaces as a
					// fatal timeout, never an indefinite block.
					if !errors.Is(err, resilience.ErrTimeout) {
						t.Fatalf("hang in %s: err = %v, want ErrTimeout", comp, err)
					}
					return
				}

				if comp == resilience.CompGenerate {
					// No weaker configuration exists without a draft: the
					// failure must be typed, not a crash.
					want := resilience.ErrComponentFailed
					if mode == resilience.ModePanic {
						want = resilience.ErrComponentPanic
					}
					if !errors.Is(err, want) {
						t.Fatalf("generator %s: err = %v, want %v", mode, err, want)
					}
					return
				}

				// Auxiliary component: the pipeline degrades and still
				// delivers a script that runs in the tool.
				if err != nil {
					t.Fatalf("%s %s should degrade, got error: %v", comp, mode, err)
				}
				if !rep.Degraded() {
					t.Fatalf("%s %s: no degradation recorded", comp, mode)
				}
				if rep.Of(comp) == nil {
					t.Fatalf("%s %s: degradation recorded for %v, not the faulted component", comp, mode, rep.Components())
				}
				sess := synth.NewSession(testLib)
				sess.AddSource(task.Design.FileName, task.Design.Source)
				if _, err := sess.Run(script); err != nil {
					t.Fatalf("%s %s: degraded script failed in tool: %v\n%s", comp, mode, err, script)
				}
			})
		}
	}
}

// TestCustomizeCancelledContext: a pre-cancelled context aborts with the
// typed cancellation error before any work happens.
func TestCustomizeCancelledContext(t *testing.T) {
	db := liteDB(t)
	task := faultTask(t)
	p := NewChatLS(llm.New(llm.GPT4o, 2), db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.CustomizeResult(ctx, task, 0)
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestTable4PartialResults: one unparsable design must not take down the
// sweep — the remaining designs report, and the failure is itemized.
func TestTable4PartialResults(t *testing.T) {
	broken := &designs.Design{
		Name:     "brokenD",
		Top:      "missing_top",
		FileName: "broken.v",
		Source:   "module something(); endmodule\n",
		Period:   1.0,
	}
	cfg := ExperimentConfig{
		Lib:     testLib,
		Designs: []*designs.Design{designs.RiscV32i(), broken, designs.SweRV()},
	}
	rows, err := Table4(context.Background(), cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (the healthy designs)", len(rows))
	}
	var sweep SweepErrors
	if !errors.As(err, &sweep) {
		t.Fatalf("err = %v, want SweepErrors", err)
	}
	if len(sweep) != 1 || sweep[0].Design != "brokenD" {
		t.Fatalf("sweep errors = %v, want exactly brokenD", sweep)
	}
}

// TestTable4FatalAborts: a cancelled context is not a per-design failure —
// the sweep stops and reports the fatal error.
func TestTable4FatalAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Table4(ctx, ExperimentConfig{Lib: testLib})
	if len(rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rows))
	}
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestConfigSeedDefaults: a zero-value config picks up the paper's protocol
// seed instead of seeding everything with 0.
func TestConfigSeedDefaults(t *testing.T) {
	cfg := ExperimentConfig{Lib: testLib}
	cfg.fill()
	if cfg.Seed != ProtocolSeed {
		t.Errorf("Seed = %d, want %d", cfg.Seed, ProtocolSeed)
	}
	if DefaultConfig().Seed != ProtocolSeed {
		t.Errorf("DefaultConfig seed = %d", DefaultConfig().Seed)
	}
}

// TestRunPassKRecordsDegradation: the evaluation propagates the pipeline's
// degradation report into the per-sample outcome.
func TestRunPassKRecordsDegradation(t *testing.T) {
	db := liteDB(t)
	p := NewChatLS(llm.New(llm.GPT4o, 2), db)
	p.Inject = resilience.NewInjector(resilience.Fault{
		Component: resilience.CompMentor,
		Mode:      resilience.ModeFail,
	})
	res, err := RunPassK(context.Background(), p, designs.RiscV32i(), 2, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	for i, s := range res.Samples {
		found := false
		for _, c := range s.Degraded {
			if c == resilience.CompMentor {
				found = true
			}
		}
		if !found {
			t.Errorf("sample %d: degradation not recorded: %v", i, s.Degraded)
		}
	}
}
