package chatls

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/overload"
	"repro/internal/qorlog"
)

// countingLeaseStore is a LeasedResultStore that records every interaction
// and never holds a result: it proves budget admission happens before any
// lease is claimed or record published.
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

// TestDeadlineRejectedBeforeSynthesis: a context whose remaining budget
// cannot cover the expected work must be rejected up front — with an error
// wrapping overload.ErrBudget, no partial samples beyond the one that hit
// the check, and crucially no fleet-wide lease claimed and no record
// published. Covers the Pass@k evaluation and the Table IV sweep; the
// serving surface's equivalent (cost shed before admission) is
// TestCostShedRejectsBeforeAnyWork in internal/server.
func TestDeadlineRejectedBeforeSynthesis(t *testing.T) {
	d := designs.RiscV32i()
	cases := []struct {
		name string
		// prime seeds the cost model; budget is the context deadline.
		prime  func(*overload.CostModel)
		budget time.Duration
		run    func(ctx context.Context, costs *overload.CostModel, store *countingLeaseStore) (samples int, err error)
		// wantSamples is how many sample outcomes may have been recorded
		// before the rejection aborted the evaluation.
		wantSamples int
	}{
		{
			// The deadline is already gone: rejected before baseline
			// synthesis, zero samples, store never touched.
			name:   "passk expired deadline",
			prime:  func(*overload.CostModel) {},
			budget: -time.Millisecond,
			run: func(ctx context.Context, costs *overload.CostModel, store *countingLeaseStore) (int, error) {
				res, err := RunPassKOpts(ctx, &RawPipeline{Model: llm.New(llm.GPT4o, 7)}, d, 3, testLib,
					EvalOptions{Results: store, Costs: costs})
				return len(res.Samples), err
			},
			wantSamples: 0,
		},
		{
			// The per-sample estimate dwarfs the remaining budget: the
			// baseline runs (its own estimate is unknown, so it is
			// admitted), but sample 0 is rejected before customization —
			// no outcome recorded at all.
			name:   "passk sample budget too small",
			prime:  func(m *overload.CostModel) { m.Observe(overload.StageSample, time.Hour) },
			budget: 30 * time.Second,
			run: func(ctx context.Context, costs *overload.CostModel, store *countingLeaseStore) (int, error) {
				res, err := RunPassKOpts(ctx, &RawPipeline{Model: llm.New(llm.GPT4o, 7)}, d, 3, testLib,
					EvalOptions{Results: store, Costs: costs})
				return len(res.Samples), err
			},
			wantSamples: 0,
		},
		{
			// The synthesis estimate dwarfs the budget: generation runs
			// (cheap), but the sample is rejected after the result-cache
			// miss and before the lease claim — the one aborted sample is
			// recorded scriptless-QoR-less, and no sibling replica was
			// blocked on a lease this caller could never honor.
			name:   "passk synthesis budget rejects before lease",
			prime:  func(m *overload.CostModel) { m.Observe(overload.StageSynth, time.Hour) },
			budget: 30 * time.Second,
			run: func(ctx context.Context, costs *overload.CostModel, store *countingLeaseStore) (int, error) {
				res, err := RunPassKOpts(ctx, &RawPipeline{Model: llm.New(llm.GPT4o, 7)}, d, 3, testLib,
					EvalOptions{Results: store, Costs: costs})
				return len(res.Samples), err
			},
			wantSamples: 1,
		},
		{
			// The sweep inherits the same admission: an expired deadline
			// aborts Table IV before any baseline synthesis or publish.
			name:   "table4 expired deadline",
			prime:  func(*overload.CostModel) {},
			budget: -time.Millisecond,
			run: func(ctx context.Context, costs *overload.CostModel, store *countingLeaseStore) (int, error) {
				rows, err := Table4(ctx, ExperimentConfig{
					Lib: testLib, Designs: []*designs.Design{d},
					Results: store, Costs: costs,
				})
				return len(rows), err
			},
			wantSamples: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			costs := overload.NewCostModel(0)
			tc.prime(costs)
			store := &countingLeaseStore{}
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(tc.budget))
			defer cancel()

			samples, err := tc.run(ctx, costs, store)
			if !errors.Is(err, overload.ErrBudget) {
				t.Fatalf("err = %v, want wrapping overload.ErrBudget", err)
			}
			var be *overload.BudgetError
			if !errors.As(err, &be) {
				t.Errorf("err = %v, want a *overload.BudgetError naming the stage", err)
			}
			if samples != tc.wantSamples {
				t.Errorf("recorded samples/rows = %d, want %d", samples, tc.wantSamples)
			}
			store.mu.Lock()
			acquires, puts := store.acquires, store.puts
			store.mu.Unlock()
			if acquires != 0 {
				t.Errorf("lease acquires = %d, want 0 (rejected before the claim)", acquires)
			}
			if puts != 0 {
				t.Errorf("result puts = %d, want 0 (no partial work published)", puts)
			}
		})
	}
}
