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

// countingLeaseStore is a LeasedResultStore that records every interaction
// and never holds a result: it proves an expired deadline is refused before
// any lease is claimed or record published.
type countingLeaseStore struct {
	mu       sync.Mutex
	gets     int
	puts     int
	acquires int
}

func (c *countingLeaseStore) Get(qorlog.Key) (qorlog.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	return qorlog.Record{}, false
}

func (c *countingLeaseStore) Put(qorlog.Key, qorlog.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
}

func (c *countingLeaseStore) Acquire(context.Context, qorlog.Key) (qorlog.Record, bool, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acquires++
	return qorlog.Record{}, false, func() {}
}

// TestDeadlineRejectedBeforeSynthesis: the context deadline is the only
// budget an evaluation has. Once it has expired, the evaluation stops at the
// next check — before the baseline, before a sample, before the lease claim —
// with resilience.ErrTimeout, no partial samples beyond the one that hit the
// check, and crucially no fleet-wide lease claimed and no record published.
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
		run    func(ctx context.Context, store *countingLeaseStore) (samples int, err error)
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
			run: func(ctx context.Context, store *countingLeaseStore) (int, error) {
				res, err := RunPassKOpts(ctx, raw, d, 3, testLib, EvalOptions{Results: store})
				return len(res.Samples), err
			},
		},
		{
			// The baseline is in hand but the deadline is gone: sample 0 is
			// refused before customization — no outcome recorded at all.
			name:   "passk deadline expired before the sample",
			budget: -time.Millisecond,
			run: func(ctx context.Context, store *countingLeaseStore) (int, error) {
				res, err := EvalTaskOpts(ctx, raw, task, base, 3, testLib, EvalOptions{Results: store})
				return len(res.Samples), err
			},
		},
		{
			// The deadline expires while the sample is being generated: the
			// sample is refused after the result-store miss and before the
			// lease claim — the one aborted sample is recorded QoR-less, and
			// no sibling replica was blocked on a lease this caller could
			// never honor.
			name:   "passk deadline expired before lease",
			budget: 20 * time.Millisecond,
			run: func(ctx context.Context, store *countingLeaseStore) (int, error) {
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
			run: func(ctx context.Context, store *countingLeaseStore) (int, error) {
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
			store := &countingLeaseStore{}
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
			gets, acquires, puts := store.gets, store.acquires, store.puts
			store.mu.Unlock()
			if gets != tc.wantGets {
				t.Errorf("result lookups = %d, want %d", gets, tc.wantGets)
			}
			if acquires != 0 {
				t.Errorf("lease acquires = %d, want 0 (refused before the claim)", acquires)
			}
			if puts != 0 {
				t.Errorf("result puts = %d, want 0 (no partial work published)", puts)
			}
		})
	}
}
