package chatls

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/qorlog"
	"repro/internal/resilience"
)

// countingStore is a ResultStore that counts every lookup and publish and
// never holds a result: it proves an expired deadline is refused before any
// record is published.
type countingStore struct {
	mu   sync.Mutex
	gets int
	puts int
}

func (c *countingStore) Get(qorlog.Key) (qorlog.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	return qorlog.Record{}, false
}

func (c *countingStore) Put(qorlog.Key, qorlog.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
}

// TestDeadlineRejectedBeforeSynthesis: the context deadline is the only
// budget an evaluation has. Once it has expired, the evaluation stops at the
// next check — before the baseline, before a sample, before the synthesis
// run — with resilience.ErrTimeout, no partial samples beyond the one that hit
// the check, and crucially no record published.
// Covers the Pass@k evaluation and the Table IV sweep.
func TestDeadlineRejectedBeforeSynthesis(t *testing.T) {
	d := designs.RiscV32i()
	task, base, err := NewTask(context.Background(), d, testLib)
	if err != nil {
		t.Fatal(err)
	}
	raw := &RawPipeline{Model: llm.New(llm.GPT4o, 7)}
	cases := []struct {
		name string
		// budget is the context deadline, relative to the start of run.
		budget time.Duration
		run    func(ctx context.Context, store *countingStore) (samples int, err error)
		// wantSamples is how many sample outcomes may have been recorded
		// before the deadline aborted the evaluation; wantGets how many
		// result-store lookups ran before it.
		wantSamples, wantGets int
	}{
		{
			// The deadline is already gone: refused before the baseline
			// synthesis, zero samples, store never touched.
			name:   "passk expired deadline",
			budget: -time.Millisecond,
			run: func(ctx context.Context, store *countingStore) (int, error) {
				res, err := RunPassKOpts(ctx, raw, d, 3, testLib, EvalOptions{Results: store})
				return len(res.Samples), err
			},
		},
		{
			// The baseline is in hand but the deadline is gone: sample 0 is
			// refused before customization — no outcome recorded at all.
			name:   "passk deadline expired before the sample",
			budget: -time.Millisecond,
			run: func(ctx context.Context, store *countingStore) (int, error) {
				res, err := EvalTaskOpts(ctx, raw, task, base, 3, testLib, EvalOptions{Results: store})
				return len(res.Samples), err
			},
		},
		{
			// The deadline expires while the sample is being generated: the
			// sample is refused after the result-store miss and before the
			// synthesis run — the one aborted sample is recorded QoR-less,
			// and nothing is published for it.
			name:   "passk deadline expired before synthesis",
			budget: 20 * time.Millisecond,
			run: func(ctx context.Context, store *countingStore) (int, error) {
				p := &scriptedPipeline{
					scripts:  []string{task.Baseline},
					onSample: func(int) { <-ctx.Done() },
				}
				res, err := EvalTaskOpts(ctx, p, task, base, 3, testLib, EvalOptions{Results: store})
				return len(res.Samples), err
			},
			wantSamples: 1,
			wantGets:    1,
		},
		{
			// The sweep inherits the same check: an expired deadline aborts
			// Table IV before any baseline synthesis or publish.
			name:   "table4 expired deadline",
			budget: -time.Millisecond,
			run: func(ctx context.Context, store *countingStore) (int, error) {
				rows, err := Table4(ctx, ExperimentConfig{
					Lib: testLib, Designs: []*designs.Design{d}, Results: store,
				})
				return len(rows), err
			},
			wantGets: 1, // the baseline's result-store lookup
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &countingStore{}
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(tc.budget))
			defer cancel()

			samples, err := tc.run(ctx, store)
			if !errors.Is(err, resilience.ErrTimeout) {
				t.Fatalf("err = %v, want wrapping resilience.ErrTimeout", err)
			}
			if samples != tc.wantSamples {
				t.Errorf("recorded samples/rows = %d, want %d", samples, tc.wantSamples)
			}
			store.mu.Lock()
			gets, puts := store.gets, store.puts
			store.mu.Unlock()
			if gets != tc.wantGets {
				t.Errorf("result lookups = %d, want %d", gets, tc.wantGets)
			}
			if puts != 0 {
				t.Errorf("result puts = %d, want 0 (no partial work published)", puts)
			}
		})
	}
}

// TestDeadlineExpiredSampleRecordsErr: a sample whose deadline expires
// between customization and synthesis is recorded with its script, no QoR
// and the timeout in Err, so a reader of EvalResult.Samples sees why it has
// no result.
func TestDeadlineExpiredSampleRecordsErr(t *testing.T) {
	task, base, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	p := &scriptedPipeline{
		scripts:  []string{task.Baseline},
		onSample: func(int) { <-ctx.Done() },
	}
	res, err := EvalTaskOpts(ctx, p, task, base, 3, testLib, EvalOptions{})
	if !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("err = %v, want wrapping resilience.ErrTimeout", err)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("recorded %d samples, want the one that hit the deadline", len(res.Samples))
	}
	smp := res.Samples[0]
	if smp.Script != task.Baseline || smp.QoR != nil || smp.Err == "" {
		t.Fatalf("sample = {Script set: %v, QoR: %v, Err: %q}, want the script, no QoR and the timeout in Err",
			smp.Script == task.Baseline, smp.QoR, smp.Err)
	}
}

// TestRerankSweepCancelled: the Eq. 5 sweep runs under its caller's context,
// so `experiments -rerank -timeout` is bounded: a cancelled context returns
// no points and the context's error.
func TestRerankSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points, err := RerankSweep(ctx, DefaultConfig(), liteDB(t))
	if points != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RerankSweep on a cancelled context: %d points, err %v; want none and context.Canceled", len(points), err)
	}
}

// TestFig5Cancelled: Fig. 5 runs under its caller's context, so `experiments
// -fig 5 -timeout` is bounded: a cancelled context returns no points and the
// context's error.
func TestFig5Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points, err := Fig5(ctx, DefaultConfig())
	if points != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig5 on a cancelled context: %d points, err %v; want none and context.Canceled", len(points), err)
	}
}
