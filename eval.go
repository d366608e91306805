package chatls

import (
	"context"
	"fmt"
	"sync"

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
	Results ResultStore
	// Costs is read by nothing: the only budget an evaluation has is its
	// context deadline. The field is kept only so the frozen bench/ module,
	// which still assigns it, compiles.
	Costs *overload.CostModel
}

// RunPassKOpts evaluates a pipeline on a design with k samples (the paper's
// Pass@5 protocol) under opts: each sample's script runs through the
// synthesis tool; scripts that fail (hallucinated commands, bad options)
// count as invalid; the best valid QoR is reported. When every sample fails,
// the baseline QoR stands (the customization attempt is wasted, not
// destructive).
//
// Per-sample failures are contained — a failed Customize or synthesis run
// records the error in the sample and the remaining samples still run.
// Only context cancellation/timeout aborts the whole evaluation. An expired
// context is refused before the baseline synthesis starts, so the
// evaluation does no partial work.
func RunPassKOpts(ctx context.Context, p Pipeline, d *designs.Design, k int, lib *liberty.Library, opts EvalOptions) (EvalResult, error) {
	task, baseQoR, err := opts.newTask(ctx, d, lib, nil)
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
	prefix := opts.resultPrefix(task.Lib, task.Design)
	workpool.Run(opts.Workers, k, func(s int) {
		mu.Lock()
		skip := s > fatalAt
		mu.Unlock()
		if skip {
			return
		}
		out, fatal := evalSample(ctx, p, task, lib, prefix, s, opts)
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
// sample is recorded, its Err set, and the evaluation must then abort
// (fatal synthesis error). When opts.Results holds the outcome for this
// exact (library, sources, script), the synthesis run is skipped and the
// logged QoR is served instead — bit-identical because the simulator is
// deterministic. prefix is opts.resultPrefix over task's library and
// design, which the request's samples share.
func evalSample(ctx context.Context, p Pipeline, task *Task, lib *liberty.Library, prefix qorlog.Prefix, s int, opts EvalOptions) (*SampleOutcome, error) {
	// An expired or cancelled context is refused before customization.
	// Returning (nil, err) makes the evaluation abort with no recorded
	// partial sample.
	if err := ctx.Err(); err != nil {
		return nil, resilience.ContextError(resilience.CompGenerate, err)
	}
	cres, err := p.CustomizeResult(ctx, task, s)
	if err != nil {
		if resilience.IsFatal(err) {
			return nil, err
		}
		return &SampleOutcome{Err: fmt.Sprintf("customize: %v", err)}, nil
	}
	out := SampleOutcome{Script: cres.Script, Degraded: cres.Degradation.Components()}
	key, logged := opts.lookup(prefix, cres.Script)
	if logged != nil {
		out.QoR = logged
		return &out, nil
	}
	run, err := opts.synthesize(ctx, lib, task.Design, cres.Script, key)
	if err != nil {
		out.Err = err.Error()
		if resilience.IsFatal(err) {
			return &out, err
		}
		return &out, nil
	}
	out.QoR = run.QoR
	return &out, nil
}

// resultPrefix is ResultKey's digest state before the script — lib's
// fingerprint and d's sources — hashed once for all the scripts a caller
// keys on d; the zero Prefix, hashing nothing, when there is no store.
func (o EvalOptions) resultPrefix(lib *liberty.Library, d *designs.Design) qorlog.Prefix {
	if o.Results == nil {
		return qorlog.Prefix{}
	}
	return qorlog.PrefixOf(lib.Fingerprint(), d.FileName, d.Source)
}

// lookup addresses script's outcome in the result store, prefix being
// resultPrefix over the library and the design it runs on: the key to
// publish it under, and the logged QoR when the store already holds it.
// Both are nil without a store.
func (o EvalOptions) lookup(prefix qorlog.Prefix, script string) (*qorlog.Key, *synth.QoR) {
	if o.Results == nil {
		return nil, nil
	}
	key := prefix.Key(script)
	if rec, ok := o.Results.Get(key); ok {
		q := synth.QoR(rec)
		return &key, &q
	}
	return &key, nil
}

// synthesize is the one place this package starts the synthesis tool: script
// runs on a fresh session over d's sources, restoring post-link state from
// o.Checkpoints. An expired or cancelled context is refused first, so a
// doomed deadline does no tool work and publishes nothing; a successful run,
// given a key, puts its QoR in o.Results.
//
// The run is an Evaluate: callers get the QoR and the reports, never the
// design, whose storage goes back to o.Checkpoints for the next restore
// before the run returns — and a run served from a derived result whose tail
// only reads never thaws it.
func (o EvalOptions) synthesize(ctx context.Context, lib *liberty.Library, d *designs.Design, script string, key *qorlog.Key) (*synth.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, resilience.ContextError(resilience.CompSynth, err)
	}
	sess := synth.NewSession(lib)
	sess.Checkpoints = o.Checkpoints
	sess.AddSource(d.FileName, d.Source)
	res, err := sess.Evaluate(ctx, script)
	if err != nil {
		return nil, err
	}
	if key != nil && o.Results != nil && res.QoR != nil {
		o.Results.Put(*key, qorlog.Record(*res.QoR))
	}
	return res, nil
}
