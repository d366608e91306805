package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

// daemonSeed and daemonEpochs are chatlsd's -seed and -epochs defaults. The
// harness never passes either flag, so the in-process database, models and
// pipelines below are the ones the daemon builds for itself.
const (
	daemonSeed   = 20250706
	daemonEpochs = 40
)

// buildDB builds the SynthRAG database exactly as chatlsd does at start-up.
func buildDB(lib *liberty.Library) (*synthrag.Database, error) {
	return synthrag.Build(synthrag.BuildConfig{Seed: daemonSeed, TrainEpochs: daemonEpochs, Lib: lib})
}

// newPipeline mirrors server.newPipeline without the serving extras
// (breakers, cost model): those only act on failures and deadlines.
func newPipeline(name string, db *synthrag.Database) chatls.Pipeline {
	switch name {
	case "gpt4o":
		return &chatls.RawPipeline{Model: llm.New(llm.GPT4o, daemonSeed)}
	case "claude":
		return &chatls.RawPipeline{Model: llm.New(llm.Claude35, daemonSeed)}
	default:
		return chatls.NewChatLS(llm.New(llm.GPT4o, daemonSeed), db)
	}
}

// oracleAnswer is what the slow path says a request's reply must contain.
type oracleAnswer struct {
	best       synth.QoR
	bestSample int
	valid      int
	improved   bool
	samples    []*synth.QoR // nil entry = the sample's script failed in the tool
}

func (w oracleAnswer) matches(got answer) bool {
	if got.Best != w.best || got.BestSample != w.bestSample || got.Valid != w.valid ||
		got.Improved != w.improved || len(got.Samples) != len(w.samples) {
		return false
	}
	for i, q := range w.samples {
		g := got.Samples[i].QoR
		if (g == nil) != (q == nil) || (q != nil && *g != *q) {
			return false
		}
	}
	return true
}

// oracle answers requests by the slowest, simplest route the program has:
// chatls.EvalTaskOpts with no checkpoint store, no result store, no task,
// embedding or retrieval cache, no batching, and one worker. Every fast path
// the daemon takes must give the same answer.
type oracle struct {
	lib     *liberty.Library
	db      *synthrag.Database // never had EnableCache or EnableBatching called on it; nil if no request needs it
	designs map[string]*designs.Design
}

func newOracle(lib *liberty.Library, db *synthrag.Database) *oracle {
	o := &oracle{lib: lib, db: db, designs: map[string]*designs.Design{}}
	for _, d := range designs.Benchmarks() {
		o.designs[d.Name] = d
	}
	return o
}

// answers evaluates every request, spreading them over the machine's cores
// (the daemon is stopped or idle whenever this runs).
func (o *oracle) answers(ctx context.Context, reqs []request) (map[string]oracleAnswer, error) {
	type baseline struct {
		task *chatls.Task
		qor  synth.QoR
	}
	bases := map[string]baseline{}
	for _, r := range reqs {
		if _, ok := bases[r.Design]; ok {
			continue
		}
		d, ok := o.designs[r.Design]
		if !ok {
			return nil, fmt.Errorf("oracle: daemon serves design %q, which designs.Benchmarks lacks", r.Design)
		}
		task, qor, err := chatls.NewTask(ctx, d, o.lib)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		bases[r.Design] = baseline{task, qor}
	}

	out := make(map[string]oracleAnswer, len(reqs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan request)
	for n := 0; n < runtime.NumCPU(); n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				b := bases[r.Design]
				t := *b.task
				t.Requirement = r.Requirement
				res, err := chatls.EvalTaskOpts(ctx, newPipeline(r.Pipeline, o.db), &t, b.qor, r.K, o.lib,
					chatls.EvalOptions{Workers: 1})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle: %s/%s k=%d: %w", r.Design, r.Pipeline, r.K, err)
				}
				a := oracleAnswer{best: res.Best, bestSample: res.BestSample, valid: res.Valid, improved: res.Improved()}
				for _, s := range res.Samples {
					a.samples = append(a.samples, s.QoR)
				}
				out[r.key()] = a
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		work <- r
	}
	close(work)
	wg.Wait()
	return out, firstErr
}
