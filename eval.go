package chatls

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/overload"
	"repro/internal/qorlog"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/workpool"
)

// SampleOutcome records one Pass@k attempt.
type SampleOutcome struct {
	Script string
	QoR    *synth.QoR
	Err    string // non-empty when the script failed in the tool
	// Degraded lists components that fell back during generation of this
	// sample (empty when the pipeline ran at full strength or does not
	// report degradation).
	Degraded []string
}

// EvalResult is the Pass@k outcome for one (pipeline, design) cell of
// Table III.
type EvalResult struct {
	Pipeline   string
	Design     string
	K          int
	Baseline   synth.QoR
	Best       synth.QoR
	BestSample int // -1 when no sample produced a runnable script
	Valid      int
	Samples    []SampleOutcome
}

// Improved reports whether the best customized script beat the baseline on
// timing.
func (r EvalResult) Improved() bool {
	return r.BestSample >= 0 && BetterTiming(r.Best, r.Baseline)
}

// BetterTiming orders QoR the way the evaluation selects the best sample:
// WNS first, then CPS, then smaller area.
func BetterTiming(a, b synth.QoR) bool {
	if a.WNS != b.WNS {
		return a.WNS > b.WNS
	}
	if a.CPS != b.CPS {
		return a.CPS > b.CPS
	}
	return a.Area < b.Area
}

// EvalOptions tunes how a Pass@k evaluation runs. The zero value is the
// paper's serial protocol with no checkpoint sharing.
type EvalOptions struct {
	// Workers bounds sample-evaluation concurrency; <= 1 is the serial
	// protocol. workers > 1 yields the same samples, best, and counts — only
	// wall-clock changes, because every sample is seeded by its index.
	Workers int
	// Checkpoints, when non-nil, is a shared elaboration-checkpoint store:
	// every sample's synthesis run (and the baseline, for entry points that
	// build the task) restores post-link state from it instead of
	// re-elaborating identical sources. Results are bit-identical either way.
	Checkpoints *synth.CheckpointStore
	// Results, when non-nil, is the durable QoR store: each sample's
	// synthesis outcome is looked up by content key (library fingerprint,
	// sources, script) before running the tool, and logged after. A hit
	// skips the run entirely; because the simulator is deterministic and the
	// log round-trips float bits exactly, a served result is bit-identical
	// to a recomputed one. Nil disables result caching.
	//
	// A store that also implements LeasedResultStore (remotecache.Tier)
	// additionally coordinates work fleet-wide: on a miss, the sample claims
	// a lease before synthesizing, so concurrent replicas evaluating the
	// same (library, sources, script) run the tool exactly once between
	// them and the rest serve the published record.
	Results ResultStore
	// Costs, when non-nil, is the per-stage EWMA cost model used for
	// deadline-budget admission: a sample whose expected cost exceeds the
	// remaining context deadline is rejected up front — before any
	// generation, lease claim, or synthesis — with an error wrapping
	// overload.ErrBudget, and observed baseline/sample/synthesis durations
	// feed the model. Nil disables budget checks (beyond an already-expired
	// deadline) and cost learning.
	Costs *overload.CostModel
}

// RunPassK evaluates a pipeline on a design with k samples (the paper's
// Pass@5 protocol): each sample's script runs through the synthesis tool;
// scripts that fail (hallucinated commands, bad options) count as invalid;
// the best valid QoR is reported. When every sample fails, the baseline QoR
// stands (the customization attempt is wasted, not destructive).
//
// Per-sample failures are contained — a failed Customize or synthesis run
// records the error in the sample and the remaining samples still run.
// Only context cancellation/timeout aborts the whole evaluation.
func RunPassK(ctx context.Context, p Pipeline, d *designs.Design, k int, lib *liberty.Library) (EvalResult, error) {
	return RunPassKOpts(ctx, p, d, k, lib, EvalOptions{})
}

// RunPassKOpts is RunPassK with explicit options (worker count, shared
// checkpoint store, result store, cost model). A nearly-expired context is
// rejected before the baseline synthesis starts, so the evaluation does no
// partial work.
func RunPassKOpts(ctx context.Context, p Pipeline, d *designs.Design, k int, lib *liberty.Library, opts EvalOptions) (EvalResult, error) {
	task, baseQoR, err := opts.newTask(ctx, d, lib, overload.StageBaseline, nil)
	if err != nil {
		return EvalResult{}, err
	}
	return EvalTaskOpts(ctx, p, task, baseQoR, k, lib, opts)
}

// EvalTaskOpts runs the Pass@k evaluation over an already-constructed task —
// the entry point for callers that cache baseline synthesis (the serving
// daemon).
func EvalTaskOpts(ctx context.Context, p Pipeline, task *Task, baseQoR synth.QoR, k int, lib *liberty.Library, opts EvalOptions) (EvalResult, error) {
	res := EvalResult{
		Pipeline:   p.Name(),
		Design:     task.Design.Name,
		K:          k,
		Baseline:   baseQoR,
		Best:       baseQoR,
		BestSample: -1,
	}
	type slot struct {
		out   *SampleOutcome
		fatal error
	}
	slots := make([]slot, k)
	// fatalAt is the lowest sample index known to have failed fatally (k
	// while there is none). Samples above it are skipped — no tool run
	// starts after a fatal one — and samples below it always run, so the
	// fold sees every slot up to the first fatal one whatever the schedule.
	var mu sync.Mutex
	fatalAt := k
	workpool.Run(opts.Workers, k, func(s int) {
		mu.Lock()
		skip := s > fatalAt
		mu.Unlock()
		if skip {
			return
		}
		out, fatal := evalSample(ctx, p, task, lib, s, opts)
		slots[s] = slot{out, fatal}
		if fatal != nil {
			mu.Lock()
			fatalAt = min(fatalAt, s)
			mu.Unlock()
		}
	})

	// Fold in index order, so Best/BestSample do not depend on the schedule;
	// a fatal error truncates the result at its sample.
	for s, sl := range slots {
		if sl.out != nil {
			res.Samples = append(res.Samples, *sl.out)
		}
		if sl.fatal != nil {
			return res, sl.fatal
		}
		accumulate(&res, *sl.out, s)
	}
	return res, nil
}

func accumulate(res *EvalResult, out SampleOutcome, s int) {
	if out.QoR == nil {
		return
	}
	res.Valid++
	if res.BestSample < 0 || BetterTiming(*out.QoR, res.Best) {
		res.Best = *out.QoR
		res.BestSample = s
	}
}

// evalSample customizes and synthesizes one Pass@k sample. A nil outcome
// with a non-nil error means the failure preceded any recordable sample
// (fatal Customize error); a non-nil outcome with a non-nil error means the
// sample is recorded and the evaluation must then abort (fatal synthesis
// error). When opts.Results holds the outcome for this exact (library,
// sources, script), the synthesis run is skipped and the logged QoR is
// served instead — bit-identical because the simulator is deterministic.
func evalSample(ctx context.Context, p Pipeline, task *Task, lib *liberty.Library, s int, opts EvalOptions) (*SampleOutcome, error) {
	// Budget admission: reject before customization when the remaining
	// deadline cannot cover a whole sample. Returning (nil, err) makes the
	// evaluation abort with no recorded partial sample.
	if err := overload.CheckBudget(ctx, overload.StageSample, opts.Costs.Expect(overload.StageSample)); err != nil {
		return nil, err
	}
	sampleStart := time.Now()
	cres, err := p.CustomizeResult(ctx, task, s)
	if err != nil {
		if resilience.IsFatal(err) {
			return nil, err
		}
		return &SampleOutcome{Err: fmt.Sprintf("customize: %v", err)}, nil
	}
	out := SampleOutcome{Script: cres.Script, Degraded: cres.Degradation.Components()}
	key, logged := opts.lookup(task.Lib, task.Design, cres.Script)
	if logged != nil {
		out.QoR = logged
		return &out, nil
	}
	run, ran, err := opts.synthesize(ctx, lib, task.Design, cres.Script, overload.StageSynth, key, true)
	if err != nil {
		if isSweepFatal(err) {
			return &out, err
		}
		out.Err = err.Error()
		return &out, nil
	}
	if ran { // a sibling replica's record says nothing about cost
		opts.Costs.Observe(overload.StageSample, time.Since(sampleStart))
	}
	out.QoR = run.QoR
	return &out, nil
}

// lookup addresses script's outcome on d in the result store: the key to
// publish it under, and the logged QoR when the store already holds it. Both
// are nil without a store (hashing the sources is not free; skip when
// unused).
func (o EvalOptions) lookup(lib *liberty.Library, d *designs.Design, script string) (*qorlog.Key, *synth.QoR) {
	if o.Results == nil {
		return nil, nil
	}
	key := ResultKey(lib, d, script)
	if rec, ok := o.Results.Get(key); ok {
		q := synth.QoR(rec)
		return &key, &q
	}
	return &key, nil
}

// synthesize is the one place this package starts the synthesis tool: script
// runs on a fresh session over d's sources, restoring post-link state from
// o.Checkpoints. Around the run, in this order:
//
//   - a named stage is admitted against the deadline budget first, so a
//     doomed deadline does no partial tool work, claims no lease and
//     publishes nothing ("" — the bare NewTask — skips this and the cost
//     observation);
//   - with lease set, a store that coordinates fleet-wide work is asked for
//     key: a record a sibling replica already published comes back as a
//     Result carrying only its QoR; otherwise this caller computes, and the
//     lease is released after the success-path Put publishes the record — on
//     failure it lapses with nothing published and siblings recompute,
//     slower, never wrong;
//   - a successful run feeds its duration to o.Costs and, given a key, its
//     QoR to o.Results;
//   - the result is then released: callers get the QoR and the reports,
//     never the design, whose storage goes back to o.Checkpoints for the
//     next restore.
//
// ran reports whether the tool ran here, as opposed to a sibling's record
// being served.
func (o EvalOptions) synthesize(ctx context.Context, lib *liberty.Library, d *designs.Design, script, stage string, key *qorlog.Key, lease bool) (res *synth.Result, ran bool, err error) {
	if stage != "" {
		if err := overload.CheckBudget(ctx, stage, o.Costs.Expect(stage)); err != nil {
			return nil, false, err
		}
	}
	if ls, ok := o.Results.(LeasedResultStore); ok && lease && key != nil {
		rec, done, release := ls.Acquire(ctx, *key)
		defer release()
		if done {
			q := synth.QoR(rec)
			return &synth.Result{QoR: &q}, false, nil
		}
	}
	start := time.Now()
	sess := synth.NewSession(lib)
	sess.Checkpoints = o.Checkpoints
	sess.AddSource(d.FileName, d.Source)
	res, err = sess.RunContext(ctx, script)
	if err != nil {
		return nil, false, err
	}
	if stage != "" {
		o.Costs.Observe(stage, time.Since(start))
	}
	if key != nil && o.Results != nil && res.QoR != nil {
		o.Results.Put(*key, qorlog.Record(*res.QoR))
	}
	res.Release()
	return res, true, nil
}
