package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	chatls "repro"
	"repro/internal/batch"
	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/overload"
	"repro/internal/qorlog"
	"repro/internal/resilience"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/synthrag"
	"repro/internal/vecindex"
)

// requestTimeout is chatlsd's default -req-timeout: the deadline every
// request context carries, which the pipeline's budget checks read.
const requestTimeout = 60 * time.Second

// world is the state chatlsd keeps between requests, assembled in-process
// the way server.New assembles it, so the replay takes the paths the daemon
// takes: database caches and batching on, one shared checkpoint store, the
// baseline-task cache, and the QoR store when the workload has one.
type world struct {
	lib      *liberty.Library
	db       *synthrag.Database
	ckpt     *synth.CheckpointStore
	store    *qorlog.Store // nil unless the workload runs with -qor-log
	tasks    map[string]baseline
	costs    *overload.CostModel
	breakers map[string]*resilience.Breaker
	designs  map[string]*designs.Design
}

type baseline struct {
	task *chatls.Task
	qor  synth.QoR
}

func newWorld(lib *liberty.Library, db *synthrag.Database, store *qorlog.Store) *world {
	w := &world{lib: lib, db: db, store: store, costs: overload.NewCostModel(0),
		breakers: map[string]*resilience.Breaker{}, designs: map[string]*designs.Design{}}
	for _, comp := range []string{resilience.CompMentor, resilience.CompRAGEmbed, resilience.CompRAGRetrieve, resilience.CompExpert} {
		w.breakers[comp] = resilience.NewBreaker(resilience.BreakerConfig{})
	}
	for _, d := range designs.Benchmarks() {
		w.designs[d.Name] = d
	}
	db.EnableBatching(batch.DefaultWindow, batch.DefaultMaxBatch)
	w.chill()
	return w
}

// chill empties every cache a daemon restart empties: the task cache, the
// database's embed and retrieve caches, and the checkpoint store. The sizes
// are chatlsd's flag defaults.
func (w *world) chill() {
	w.tasks = map[string]baseline{}
	w.db.EnableCache(64, 256)
	w.ckpt = synth.NewCheckpointStore(0)
}

func (w *world) pipeline(name string) chatls.ResultPipeline {
	switch p := newPipeline(name, w.db).(type) {
	case *chatls.ChatLSPipeline:
		p.Breakers, p.Costs = w.breakers, w.costs
		return p
	case *chatls.RawPipeline:
		return p
	}
	panic("unreachable: newPipeline returns one of the two pipeline types")
}

// resultStore keeps the interface nil when there is no store: a typed nil
// would read as "result caching on" to the evaluator.
func (w *world) resultStore(rec *recorder) chatls.ResultStore {
	if w.store == nil {
		return nil
	}
	return tracedStore{w.store, rec}
}

func (w *world) baselineTask(ctx context.Context, rec *recorder, d *designs.Design) (baseline, error) {
	if b, ok := w.tasks[d.Name]; ok {
		return b, nil
	}
	id := rec.begin("chatls.baseline")
	task, qor, err := chatls.NewTaskWith(ctx, d, w.lib, w.ckpt)
	rec.end(id)
	if err != nil {
		return baseline{}, err
	}
	w.tasks[d.Name] = baseline{task, qor}
	return w.tasks[d.Name], nil
}

// tracedPipeline and tracedStore put spans around the two calls the
// composite evaluation makes through interfaces, so the composite request
// has a customize span to set the decomposed stages against.
type tracedPipeline struct {
	chatls.ResultPipeline
	rec *recorder
}

func (t tracedPipeline) CustomizeResult(ctx context.Context, task *chatls.Task, sample int) (chatls.Customization, error) {
	id := t.rec.begin("chatls.customize")
	defer t.rec.end(id)
	return t.ResultPipeline.CustomizeResult(ctx, task, sample)
}

type tracedStore struct {
	store *qorlog.Store
	rec   *recorder
}

func (t tracedStore) Get(key qorlog.Key) (qorlog.Record, bool) {
	id := t.rec.begin("qorlog.get")
	defer t.rec.end(id)
	return t.store.Get(key)
}

func (t tracedStore) Put(key qorlog.Key, r qorlog.Record) {
	id := t.rec.begin("qorlog.put")
	defer t.rec.end(id)
	t.store.Put(key, r)
}

// composite serves one request the way server.runCustomize does — cached
// baseline task, then chatls.EvalTaskOpts — inside one request span.
func (w *world) composite(rec *recorder, req request) (chatls.EvalResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := rec.begin("request")
	defer rec.end(root)
	d, ok := w.designs[req.Design]
	if !ok {
		return chatls.EvalResult{}, fmt.Errorf("replay: unknown design %q", req.Design)
	}
	b, err := w.baselineTask(ctx, rec, d)
	if err != nil {
		return chatls.EvalResult{}, err
	}
	t := *b.task
	t.Requirement = req.Requirement
	id := rec.begin("chatls.eval")
	defer rec.end(id)
	return chatls.EvalTaskOpts(ctx, tracedPipeline{w.pipeline(req.Pipeline), rec}, &t, b.qor, req.K, w.lib,
		chatls.EvalOptions{Workers: 1, Checkpoints: w.ckpt, Results: w.resultStore(rec), Costs: w.costs})
}

// replayCounts are exact counts of what the decomposed replay did.
type replayCounts struct {
	requests, samples int
	analyzeCalls      int
	manualSearches    int64
	steps             int
	synthRuns         int
}

// decomposed re-executes a request stage by stage — every call into a
// layer's public API in its own span — and checks that each sample's script
// is byte-equal to the one the composite evaluation produced (want; nil
// skips the check). It repeats what chatls.evalSample and
// ChatLSPipeline.CustomizeResult do between those calls, minus the guard,
// budget and degradation wrappers, which only act on failures.
func (w *world) decomposed(rec *recorder, req request, want *chatls.EvalResult, cnt *replayCounts) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := rec.begin("request")
	defer rec.end(root)
	d, ok := w.designs[req.Design]
	if !ok {
		return fmt.Errorf("replay: unknown design %q", req.Design)
	}
	b, err := w.baselineTask(ctx, rec, d)
	if err != nil {
		return err
	}
	t := *b.task
	t.Requirement = req.Requirement
	p := w.pipeline(req.Pipeline)
	cnt.requests++
	for s := 0; s < req.K; s++ {
		cnt.samples++
		id := rec.begin("chatls.customize")
		script, err := w.customize(ctx, rec, p, &t, s, cnt)
		rec.end(id)
		if err != nil {
			return err
		}
		if want != nil && (s >= len(want.Samples) || want.Samples[s].Script != script) {
			return fmt.Errorf("replay: %s/%s sample %d: decomposed script differs from the composite one", req.Design, req.Pipeline, s)
		}
		var key qorlog.Key
		if w.store != nil {
			id = rec.begin("chatls.result_key")
			key = chatls.ResultKey(w.lib, d, script)
			rec.end(id)
			id = rec.begin("qorlog.get")
			_, hit := w.store.Get(key)
			rec.end(id)
			if hit {
				continue
			}
		}
		id = rec.begin("synth.run")
		sess := synth.NewSession(w.lib)
		sess.Checkpoints = w.ckpt
		sess.AddSource(d.FileName, d.Source)
		run, err := sess.RunContext(ctx, script)
		rec.end(id)
		cnt.synthRuns++
		if err != nil {
			if resilience.IsFatal(err) {
				return err
			}
			rec.rename(id, "synth.run_invalid")
			continue
		}
		if w.store != nil {
			id = rec.begin("qorlog.put")
			w.store.Put(key, recordOf(*run.QoR))
			rec.end(id)
		}
	}
	return nil
}

// recordOf is chatls.recordOf, which the root package does not export.
func recordOf(q synth.QoR) qorlog.Record {
	return qorlog.Record{Design: q.Design, Period: q.Period, WNS: q.WNS, CPS: q.CPS, TNS: q.TNS,
		Area: q.Area, Leakage: q.Leakage, Cells: q.Cells, Seq: q.Seq, Violations: q.Violations}
}

// customize is one sample's script generation, stage by stage.
func (w *world) customize(ctx context.Context, rec *recorder, p chatls.ResultPipeline, t *chatls.Task, sample int, cnt *replayCounts) (string, error) {
	var b strings.Builder
	b.WriteString("## Requirement\n")
	b.WriteString(t.Requirement)
	if raw, ok := p.(*chatls.RawPipeline); ok {
		b.WriteString("\n\n## Baseline script\n")
		b.WriteString(t.Baseline)
		b.WriteString("\n## Synthesis report\n")
		b.WriteString(t.BaselineReport)
		b.WriteString("\n## RTL\n")
		b.WriteString(t.Design.Source)
		id := rec.begin("llm.generate_raw")
		defer rec.end(id)
		return raw.Model.GenerateContext(ctx, llm.GenRequest{Prompt: b.String(), Sample: sample})
	}
	cp := p.(*chatls.ChatLSPipeline)
	b.WriteString("\n")

	id := rec.begin("circuitmentor.analyze")
	analysis, err := circuitmentor.AnalyzeContext(ctx, t.Design.Source, t.Design.Top, t.Design.Period, t.Lib)
	rec.end(id)
	cnt.analyzeCalls++
	if err != nil {
		return "", err
	}
	b.WriteString("\n## Design characteristics\n")
	b.WriteString(analysis.Render())

	before := w.db.CacheStats()
	id = rec.begin("synthrag.embed_warm")
	emb, _, err := w.db.EmbedDesignContext(ctx, t.Design.Source, t.Design.Top)
	rec.end(id)
	if err != nil {
		return "", err
	}
	if w.db.CacheStats().EmbedMisses > before.EmbedMisses {
		rec.rename(id, "synthrag.embed_cold")
	}
	id = rec.begin("synthrag.retrieve_warm")
	hits, err := w.db.RetrieveStrategiesForContext(ctx, emb, analysis.Traits, 2, cp.Alpha, cp.Beta, 0.25)
	rec.end(id)
	if err != nil {
		return "", err
	}
	if w.db.CacheStats().RetrieveMisses > before.RetrieveMisses {
		rec.rename(id, "synthrag.retrieve_cold")
	}
	b.WriteString("\n## Retrieved strategies\n")
	b.WriteString(synthrag.RenderStrategies(hits))
	b.WriteString("\n## Baseline script\n")
	b.WriteString(t.Baseline)
	b.WriteString("\n## Synthesis report\n")
	b.WriteString(t.BaselineReport)

	id = rec.begin("llm.generate_rag")
	draft, err := cp.Model.GenerateContext(ctx, llm.GenRequest{Prompt: b.String(), Sample: sample})
	rec.end(id)
	if err != nil {
		return "", err
	}

	searches := w.db.BatchStats().Items
	id = rec.begin("synthexpert.refine")
	refined, steps, err := cp.Expert.RefineContext(ctx, draft, t.Baseline)
	rec.end(id)
	// Refinement only embeds manual queries, so every item the batcher saw
	// during the span is one SearchManual call.
	cnt.manualSearches += w.db.BatchStats().Items - searches
	cnt.steps += len(steps)
	return refined, err
}

// programCounters reads the process-wide counters the timing engine and the
// vector index keep, to be differenced around the composite pass.
type programCounters struct {
	staFull, staIncr uint64
	hnswHops         int64
	dirtySum, dirtyN int64
}

// dirty is fed by the sta observer, which oracle goroutines also reach.
var dirty struct{ sum, n atomic.Int64 }

func init() {
	sta.SetDirtyNodesObserver(func(n int) { dirty.sum.Add(int64(n)); dirty.n.Add(1) })
}

func readCounters() programCounters {
	return programCounters{sta.FullAnalyses(), sta.IncrementalUpdates(), vecindex.HNSWHops(), dirty.sum.Load(), dirty.n.Load()}
}

func (a programCounters) plus(b programCounters) programCounters {
	return programCounters{a.staFull + b.staFull, a.staIncr + b.staIncr, a.hnswHops + b.hnswHops,
		a.dirtySum + b.dirtySum, a.dirtyN + b.dirtyN}
}

func (a programCounters) minus(b programCounters) programCounters {
	return programCounters{a.staFull - b.staFull, a.staIncr - b.staIncr, a.hnswHops - b.hnswHops,
		a.dirtySum - b.dirtySum, a.dirtyN - b.dirtyN}
}

// replayResult accumulates what the replay passes produced.
type replayResult struct {
	counts      replayCounts
	program     programCounters // over the composite passes
	validTotal  int
	compositeMS []float64 // per request, composite request span
}

// replay runs reqs through the composite path on wa and the decomposed path
// on wb — the same world unless the two must not share a QoR store. With
// between nil the two alternate request by request, so that each pair runs
// back to back; with between set (cold_start empties the caches there) the
// composite pass over all of reqs comes first, then between, then the
// decomposed pass. Emptying the caches before every single request instead
// would pair the executions more tightly, but it is not what a restarted
// daemon does: with nothing retained the heap stays small, the collector
// runs far more often, and the replay reads a third slower than the daemon.
// prefix distinguishes repeated replays in one trace.
func replay(rec *recorder, wa, wb *world, reqs []request, prefix string, between func(), res *replayResult) error {
	results := make([]chatls.EvalResult, len(reqs))
	composite := func(i int) error {
		rec.scope(i, prefix+"composite")
		before := readCounters()
		id := len(rec.spans)
		r, err := wa.composite(rec, reqs[i])
		if err != nil {
			return err
		}
		results[i] = r
		res.validTotal += r.Valid
		res.compositeMS = append(res.compositeMS, ms(rec.spans[id].dur()))
		res.program = res.program.plus(readCounters().minus(before))
		return nil
	}
	decomposed := func(i int) error {
		rec.scope(i, prefix+"decomposed")
		return wb.decomposed(rec, reqs[i], &results[i], &res.counts)
	}
	if between == nil {
		for i := range reqs {
			if err := composite(i); err != nil {
				return err
			}
			if err := decomposed(i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range reqs {
		if err := composite(i); err != nil {
			return err
		}
	}
	between()
	for i := range reqs {
		if err := decomposed(i); err != nil {
			return err
		}
	}
	return nil
}

// timeComposite serves reqs through the composite path without spans and
// returns the mean request time in milliseconds.
func timeComposite(w *world, reqs []request) (float64, error) {
	start := time.Now()
	for _, req := range reqs {
		if _, err := w.composite(nil, req); err != nil {
			return 0, err
		}
	}
	return ratio(ms(time.Since(start)), float64(len(reqs))), nil
}

// traceOverhead replays reqs decomposed twice per request on warm state,
// once recording spans and once with a nil recorder, alternating which goes
// first, and returns the median over requests of traced time over untraced
// time.
func traceOverhead(rec *recorder, w *world, reqs []request) (float64, error) {
	var cnt replayCounts
	var ratios []float64
	for i, req := range reqs {
		rec.scope(i, "overhead")
		order := []*recorder{rec, nil}
		if i%2 == 1 {
			order[0], order[1] = nil, rec
		}
		var traced, plain time.Duration
		for _, r := range order {
			start := time.Now()
			if err := w.decomposed(r, req, nil, &cnt); err != nil {
				return 0, err
			}
			if r == nil {
				plain = time.Since(start)
			} else {
				traced = time.Since(start)
			}
		}
		ratios = append(ratios, ratio(float64(traced), float64(plain)))
	}
	if len(ratios) == 0 {
		return 0, errors.New("replay: empty overhead pass")
	}
	return median(ratios), nil
}
