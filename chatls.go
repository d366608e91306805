// Package chatls is the public facade of the ChatLS reproduction: a
// framework that customizes logic-synthesis scripts from natural-language
// requirements (DAC 2025, "ChatLS: Multimodal Retrieval-Augmented Generation
// and Chain-of-Thought for Logic Synthesis Script Customization").
//
// The framework (Fig. 1/2 of the paper) combines four components:
//
//   - CircuitMentor (internal/circuitmentor): graph-based circuit analysis —
//     RTL becomes a hierarchical graph stored in an embedded property-graph
//     database, and a metric-learned GraphSAGE model embeds its modules.
//   - SynthRAG (internal/synthrag): multimodal retrieval — graph-embedding
//     search with domain-specific reranking over an expert strategy
//     database, Cypher queries for design code and library cells, and
//     text-embedding retrieval over the tool manual.
//   - SynthExpert (internal/synthexpert): chain-of-thought refinement where
//     every reasoning step retrieves supporting information and revises the
//     drafted script (hallucinated commands, invalid options, ordering).
//   - A generator LLM (internal/llm): simulated GPT-4o / Claude 3.5
//     profiles sharing one text-driven policy, so pipeline structure — not
//     the generator — differentiates the results.
//
// The synthesis tool itself (internal/synth over internal/netlist and
// internal/sta) is a working logic-synthesis simulator, so script choices
// change QoR through mechanism rather than lookup.
package chatls

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/overload"
	"repro/internal/qorlog"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/synthexpert"
	"repro/internal/synthrag"
)

// DefaultRequirement is the natural-language instruction used across the
// evaluation ("identical prompt engineering" for every model, as in the
// paper).
const DefaultRequirement = "Customize the synthesis script to optimize timing: close all timing " +
	"violations at the given clock period. Basic configurations (clock period, wireload model) " +
	"must not change. Recover area where timing allows."

// Task is one customization problem: a design plus the baseline script and
// its report.
type Task struct {
	Design         *designs.Design
	Requirement    string
	Baseline       string
	BaselineReport string
	Lib            *liberty.Library

	// Snapshot names the post-link state the baseline run left in the
	// checkpoint store it ran against (zero without one): the mentor and
	// embedding stages read the design's netlist and parsed sources from
	// there instead of parsing and elaborating Design.Source again. Only a
	// handle — the store may evict the snapshot, and the stages then do.
	Snapshot synth.Snapshot
}

// NewTask runs the baseline script once and packages the customization
// problem the way the paper's flow does (user provides design, script, and
// tool reports). The context bounds the baseline synthesis run.
func NewTask(ctx context.Context, d *designs.Design, lib *liberty.Library) (*Task, synth.QoR, error) {
	return NewTaskWith(ctx, d, lib, nil)
}

// NewTaskWith is NewTask with an optional shared elaboration-checkpoint
// store: the baseline synthesis restores the design's post-link state from
// the store when a prior run elaborated the same sources, and captures it
// for later runs otherwise. Results are bit-identical with or without the
// store (nil disables checkpointing).
func NewTaskWith(ctx context.Context, d *designs.Design, lib *liberty.Library, ckpt *synth.CheckpointStore) (*Task, synth.QoR, error) {
	return EvalOptions{Checkpoints: ckpt}.newTask(ctx, d, lib, nil)
}

// newTask runs d's baseline script through synthesize and packages the
// customization problem around its report.
func (o EvalOptions) newTask(ctx context.Context, d *designs.Design, lib *liberty.Library, key *qorlog.Key) (*Task, synth.QoR, error) {
	res, err := o.synthesize(ctx, lib, d, d.BaselineScript(), key)
	if err != nil {
		return nil, synth.QoR{}, fmt.Errorf("baseline %s: %w", d.Name, err)
	}
	return &Task{
		Design:         d,
		Requirement:    DefaultRequirement,
		Baseline:       d.BaselineScript(),
		BaselineReport: strings.Join(res.Reports, "\n"),
		Lib:            lib,
		Snapshot:       res.Snapshot,
	}, *res.QoR, nil
}

// Pipeline generates a customized script for a task. Sample indexes the
// Pass@k attempt. The context bounds the whole generation flow; a cancelled
// or expired context aborts with a resilience.ErrCancelled/ErrTimeout error.
// Per-call results (script, CoT steps, degradation report) are returned, not
// stored, so implementations must be safe for concurrent CustomizeResult
// calls — the serving path and parallel Pass@k share one instance.
type Pipeline interface {
	Name() string
	CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error)
}

// ResultPipeline is the name Pipeline had while a string-returning Customize
// existed beside CustomizeResult; kept for the benchmark harness.
type ResultPipeline = Pipeline

// Customization is the full result of one pipeline call.
type Customization struct {
	Script string
	// Steps are SynthExpert's chain-of-thought steps (nil for pipelines
	// without CoT refinement, or when refinement was skipped or degraded).
	Steps []synthexpert.Step
	// Degradation reports which components fell back during this call; never
	// nil for ChatLSPipeline (empty report = full strength), nil for
	// pipelines that do not degrade.
	Degradation *resilience.DegradationReport
}

// RawPipeline is the baseline comparison: the generator sees the
// requirement, the baseline script, the tool report, and the raw RTL —
// exactly the single-shot prompting the paper compares against.
//
// The pipeline holds a one-entry memo: the model's Reading of the last prompt
// it built, keyed on the model and the four task fields the prompt is built
// from, so the k samples of a Pass@k request read their shared prompt once.
// Concurrent calls are safe; calls that alternate between prompts each read
// their own.
type RawPipeline struct {
	Model *llm.Model

	last atomic.Pointer[rawReading]
}

// rawReading is a RawPipeline's memo entry: a reading and the inputs of the
// prompt it read.
type rawReading struct {
	model                                 llm.Model
	requirement, baseline, report, source string
	reading                               llm.Reading
}

// Name identifies the pipeline by its model profile.
func (p *RawPipeline) Name() string { return p.Model.Profile.Name }

// CustomizeResult performs one-shot prompting with the raw design text.
func (p *RawPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	if err := ctx.Err(); err != nil {
		return Customization{}, resilience.ContextError(resilience.CompGenerate, err)
	}
	script, err := p.read(t).Generate(ctx, sample)
	if err != nil {
		return Customization{}, resilience.ContextError(resilience.CompGenerate, err)
	}
	return Customization{Script: script}, nil
}

// read returns the model's reading of t's prompt: the memo's when it was read
// from the same inputs (samples of one task share the strings, so each
// compare returns at once), else a new reading, which replaces the memo's.
func (p *RawPipeline) read(t *Task) *llm.Reading {
	if e := p.last.Load(); e != nil && e.model == *p.Model && e.requirement == t.Requirement &&
		e.baseline == t.Baseline && e.report == t.BaselineReport && e.source == t.Design.Source {
		return &e.reading
	}
	const (
		reqHead    = "## Requirement\n"
		scriptHead = "\n\n## Baseline script\n"
		reportHead = "\n## Synthesis report\n"
		rtlHead    = "\n## RTL\n"
	)
	var b strings.Builder
	b.Grow(len(reqHead) + len(t.Requirement) + len(scriptHead) + len(t.Baseline) +
		len(reportHead) + len(t.BaselineReport) + len(rtlHead) + len(t.Design.Source))
	b.WriteString(reqHead)
	b.WriteString(t.Requirement)
	b.WriteString(scriptHead)
	b.WriteString(t.Baseline)
	b.WriteString(reportHead)
	b.WriteString(t.BaselineReport)
	b.WriteString(rtlHead)
	b.WriteString(t.Design.Source)
	e := &rawReading{model: *p.Model, requirement: t.Requirement, baseline: t.Baseline,
		report: t.BaselineReport, source: t.Design.Source, reading: p.Model.Read(b.String())}
	p.last.Store(e)
	return &e.reading
}

// ChatLSPipeline is the full framework: CircuitMentor analysis, SynthRAG
// retrieval, generation, and SynthExpert chain-of-thought refinement.
// The Disable flags implement the paper's ablations.
type ChatLSPipeline struct {
	Model  *llm.Model
	DB     *synthrag.Database
	Expert *synthexpert.Expert
	// Rerank weights of Eq. 5.
	Alpha, Beta float64
	// Ablation switches.
	DisableMentor bool // no design-characteristics analysis
	DisableRAG    bool // no retrieved strategies
	DisableExpert bool // no CoT refinement
	// Inject, when set, is the fault-injection layer consulted before every
	// component call (tests only).
	Inject *resilience.Injector
	// Breakers is read by nothing: stages are deterministic and run once,
	// with no circuit breaker. The field is kept only so the frozen bench/
	// module, which still assigns it, compiles.
	Breakers map[string]*resilience.Breaker
	// Costs is read by nothing: the only budget a stage has is the context
	// deadline. The field is kept only so the frozen bench/ module, which
	// still assigns it, compiles.
	Costs *overload.CostModel
}

// NewChatLS assembles the standard pipeline over a built database.
func NewChatLS(model *llm.Model, db *synthrag.Database) *ChatLSPipeline {
	return &ChatLSPipeline{
		Model:  model,
		DB:     db,
		Expert: synthexpert.New(model, db),
		Alpha:  0.7,
		Beta:   0.3,
	}
}

// Name identifies the pipeline, noting active ablations.
func (p *ChatLSPipeline) Name() string {
	name := "chatls"
	if p.DisableMentor {
		name += "-nomentor"
	}
	if p.DisableRAG {
		name += "-norag"
	}
	if p.DisableExpert {
		name += "-noexpert"
	}
	return name
}

// stage is the one runner every component call of the flow goes through:
// fn once behind the panic-recovery boundary and (in tests) the fault
// injector. An expired or cancelled context is refused before fn starts, as
// the fatal ErrTimeout or ErrCancelled. Stages are not retried: each is a
// seeded, in-process function of its inputs, so a retry would repeat the
// failure.
func (p *ChatLSPipeline) stage(ctx context.Context, component string, fn func(context.Context) error) error {
	return resilience.Execute(ctx, resilience.Op{Component: component, Injector: p.Inject}, fn)
}

func hasErrors(issues []synth.Issue) bool {
	for _, i := range issues {
		if i.Severity == "error" {
			return true
		}
	}
	return false
}

// CustomizeResult runs the full ChatLS flow of Fig. 2 for one sample,
// returning the script together with the CoT steps and the degradation
// report for this call.
//
// The flow is fault-tolerant: each auxiliary component (CircuitMentor,
// SynthRAG embedding and retrieval, SynthExpert) is one stage call; if it
// fails or panics, the pipeline degrades to the next-weaker configuration —
// proceeding without that component's contribution — and records the event
// in the returned Customization.Degradation. Only a generator failure or a
// context cancellation/timeout aborts with an error, so a degraded call
// always yields a runnable script (a wasted attempt in the Pass@k sense,
// never a crash).
//
// CustomizeResult mutates no pipeline state: a single instance over a built
// database is safe for concurrent calls (the database, model, and expert
// are all read-only at serving time).
func (p *ChatLSPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	report := &resilience.DegradationReport{}
	out := Customization{Degradation: report}
	// degrade turns an optional stage's failure into a report entry naming
	// what the flow did instead; only a fatal error comes back to abort.
	degrade := func(component, fallback string, err error) error {
		if resilience.IsFatal(err) {
			return err
		}
		report.Record(component, fallback, err)
		return nil
	}

	var b strings.Builder
	b.WriteString("## Requirement\n")
	b.WriteString(t.Requirement)
	b.WriteString("\n")

	var traits []string
	if !p.DisableMentor {
		var analysis *circuitmentor.Analysis
		err := p.stage(ctx, resilience.CompMentor, func(ctx context.Context) error {
			var err error
			analysis, err = circuitmentor.AnalyzeSnapshotContext(ctx, t.Snapshot, t.Design.Source, t.Design.Top, t.Design.Period, t.Lib)
			return err
		})
		if err == nil {
			traits = analysis.Traits
			b.WriteString("\n## Design characteristics\n")
			b.WriteString(analysis.Render())
		} else if err := degrade(resilience.CompMentor, "proceed without design characteristics", err); err != nil {
			return out, err
		}
	}

	if !p.DisableRAG {
		var emb []float64
		var hits []synthrag.StrategyHit
		failed := resilience.CompRAGEmbed
		err := p.stage(ctx, resilience.CompRAGEmbed, func(ctx context.Context) error {
			var err error
			emb, _, err = p.DB.EmbedSnapshotContext(ctx, t.Snapshot, t.Design.Source, t.Design.Top)
			return err
		})
		if err == nil {
			failed = resilience.CompRAGRetrieve
			err = p.stage(ctx, resilience.CompRAGRetrieve, func(ctx context.Context) error {
				var err error
				hits, err = p.DB.RetrieveStrategiesForContext(ctx, emb, traits, 2, p.Alpha, p.Beta, 0.25)
				return err
			})
		}
		if err == nil {
			b.WriteString("\n## Retrieved strategies\n")
			b.WriteString(synthrag.RenderStrategies(hits))
		} else if err := degrade(failed, "proceed without retrieved strategies", err); err != nil {
			return out, err
		}
	}

	b.WriteString("\n## Baseline script\n")
	b.WriteString(t.Baseline)
	b.WriteString("\n## Synthesis report\n")
	b.WriteString(t.BaselineReport)

	// The generator is the one component with no weaker fallback: without a
	// draft there is nothing to refine or emit, so any failure aborts the
	// sample.
	var draft string
	err := p.stage(ctx, resilience.CompGenerate, func(ctx context.Context) error {
		var err error
		draft, err = p.Model.GenerateContext(ctx, llm.GenRequest{Prompt: b.String(), Sample: sample})
		return err
	})
	if err != nil {
		return out, err
	}
	if p.DisableExpert {
		out.Script = draft
		return out, nil
	}

	var refined string
	var steps []synthexpert.Step
	err = p.stage(ctx, resilience.CompExpert, func(ctx context.Context) error {
		var err error
		refined, steps, err = p.Expert.RefineContext(ctx, draft, t.Baseline)
		return err
	})
	if err == nil {
		out.Script, out.Steps = refined, steps
		return out, nil
	}
	script, fallback := draft, "emit unrefined draft"
	if hasErrors(synth.ValidateScript(draft)) {
		script, fallback = t.Baseline, "draft invalid without refinement; return baseline script"
	}
	if err := degrade(resilience.CompExpert, fallback, err); err != nil {
		return out, err
	}
	out.Script = script
	return out, nil
}
