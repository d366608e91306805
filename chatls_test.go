package chatls

import (
	"context"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

var (
	testLib    = liberty.Nangate45()
	testDBFull *synthrag.Database
)

func fullDB(t *testing.T) *synthrag.Database {
	t.Helper()
	if testDBFull == nil {
		db, err := synthrag.Build(synthrag.BuildConfig{Seed: 20250706, TrainEpochs: 40, Lib: testLib})
		if err != nil {
			t.Fatal(err)
		}
		testDBFull = db
	}
	return testDBFull
}

func TestNewTaskRunsBaseline(t *testing.T) {
	task, q, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	if q.WNS < 0 {
		t.Errorf("riscv32i baseline should meet timing, WNS %.3f", q.WNS)
	}
	if !strings.Contains(task.BaselineReport, "report_qor") {
		t.Error("baseline report missing")
	}
	if task.Requirement == "" || task.Baseline == "" {
		t.Error("task incomplete")
	}
}

func TestRawPipelineProducesRunnableScriptsSometimes(t *testing.T) {
	p := &RawPipeline{Model: llm.New(llm.GPT4o, 1)}
	res, err := RunPassKOpts(context.Background(), p, designs.RiscV32i(), 5, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid == 0 {
		t.Error("all 5 raw samples failed; hallucination rate should not be 100%")
	}
	if res.Valid == 5 {
		t.Log("note: all raw samples valid this seed (possible but unusual)")
	}
	if res.K != 5 || len(res.Samples) != 5 {
		t.Errorf("sample bookkeeping wrong: %+v", res)
	}
}

func TestChatLSAllSamplesValid(t *testing.T) {
	if testing.Short() {
		t.Skip("database build is slow")
	}
	p := NewChatLS(llm.New(llm.GPT4o, 20250706), fullDB(t))
	res, err := RunPassKOpts(context.Background(), p, designs.DynamicNode(), 5, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != 5 {
		t.Errorf("SynthExpert refinement should make every sample runnable, valid = %d", res.Valid)
		for i, s := range res.Samples {
			if s.Err != "" {
				t.Logf("sample %d error: %s\nscript:\n%s", i, s.Err, s.Script)
			}
		}
	}
	if !res.Improved() {
		t.Errorf("ChatLS should beat the dynamic_node baseline: baseline %+v best %+v", res.Baseline, res.Best)
	}
}

func TestChatLSBeatsRawOnTraitDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("database build is slow")
	}
	db := fullDB(t)
	d := designs.AES()
	raw, err := RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, 20250706)}, d, 5, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := RunPassKOpts(context.Background(), NewChatLS(llm.New(llm.GPT4o, 20250706), db), d, 5, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !BetterTiming(cls.Best, raw.Best) && cls.Best.WNS != raw.Best.WNS {
		t.Errorf("ChatLS (%.3f) should not lose to raw (%.3f) on aes", cls.Best.WNS, raw.Best.WNS)
	}
	if cls.Best.WNS < 0 {
		t.Errorf("ChatLS should close aes timing (retiming-bound), WNS %.3f", cls.Best.WNS)
	}
}

func TestChatLSRecordsCoTSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("database build is slow")
	}
	p := NewChatLS(llm.New(llm.GPT4o, 20250706), fullDB(t))
	task, _, err := NewTask(context.Background(), designs.TinyRocket(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	// Find a sample whose draft needed revision: steps list non-empty on
	// most samples because reports are re-checked and reordered.
	sawStep := false
	for s := 0; s < 5; s++ {
		cres, err := p.CustomizeResult(context.Background(), task, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(cres.Steps) > 0 {
			sawStep = true
		}
	}
	if !sawStep {
		t.Error("no chain-of-thought steps recorded across 5 samples")
	}
}

func TestBetterTimingOrdering(t *testing.T) {
	a := synth.QoR{WNS: 0, CPS: 0.5, Area: 100}
	b := synth.QoR{WNS: -0.1, CPS: -0.1, Area: 50}
	if !BetterTiming(a, b) {
		t.Error("meeting timing must beat violating regardless of area")
	}
	c := synth.QoR{WNS: 0, CPS: 0.5, Area: 90}
	if !BetterTiming(c, a) {
		t.Error("same timing, smaller area must win")
	}
	d := synth.QoR{WNS: 0, CPS: 0.9, Area: 200}
	if !BetterTiming(d, a) {
		t.Error("higher CPS must win when WNS ties")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(context.Background(), ExperimentConfig{Lib: testLib})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	// The paper's baseline sign pattern: aes, ethmac, jpeg, tinyRocket
	// violate; riscv32i and swerv meet.
	wantViolate := map[string]bool{
		"aes": true, "ethmac": true, "jpeg": true, "tinyRocket": true,
		"riscv32i": false, "swerv": false,
	}
	for _, r := range rows {
		want, ok := wantViolate[r.Design]
		if !ok {
			continue
		}
		if want && r.QoR.WNS >= 0 {
			t.Errorf("%s baseline should violate, WNS %.3f", r.Design, r.QoR.WNS)
		}
		if !want && r.QoR.WNS < 0 {
			t.Errorf("%s baseline should meet, WNS %.3f", r.Design, r.QoR.WNS)
		}
	}
	text := FormatTable4(rows)
	if !strings.Contains(text, "TABLE IV") || !strings.Contains(text, "aes") {
		t.Error("Table IV formatting broken")
	}
}

func TestFig5SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("retrieval experiment is slow")
	}
	cfg := ExperimentConfig{Seed: 7, TrainEpochs: 30, SoCCount: 6, Lib: testLib}
	points, err := Fig5(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1 := map[string]float64{}
	for _, p := range points {
		if p.Category == "overall" {
			f1[p.Variant] = p.F1
		}
	}
	if len(f1) != len(Fig5Variants) {
		t.Fatalf("missing variants: %v", f1)
	}
	if f1["synthrag"] < 0.6 {
		t.Errorf("SynthRAG macro F1 too low: %.3f", f1["synthrag"])
	}
	if f1["synthrag"] < f1["text-only"] {
		t.Errorf("SynthRAG (%.3f) should beat text-only retrieval (%.3f)", f1["synthrag"], f1["text-only"])
	}
	if f1["synthrag"] < f1["no-metric-learning"] {
		t.Errorf("metric learning (%.3f) should not hurt retrieval (%.3f)", f1["synthrag"], f1["no-metric-learning"])
	}
	if !strings.Contains(FormatFig5(points), "overall") {
		t.Error("Fig5 formatting broken")
	}
}

func TestAblationVariantNames(t *testing.T) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: testLib})
	if err != nil {
		t.Fatal(err)
	}
	m := llm.New(llm.GPT4o, 2)
	full := NewChatLS(m, db)
	if full.Name() != "chatls" {
		t.Errorf("name = %s", full.Name())
	}
	noRAG := NewChatLS(m, db)
	noRAG.DisableRAG = true
	if noRAG.Name() != "chatls-norag" {
		t.Errorf("name = %s", noRAG.Name())
	}
	noExp := NewChatLS(m, db)
	noExp.DisableExpert = true
	if noExp.Name() != "chatls-noexpert" {
		t.Errorf("name = %s", noExp.Name())
	}
}

func TestPipelinePromptsDiffer(t *testing.T) {
	// The raw prompt must carry RTL; the ChatLS prompt must not (it gets
	// characteristics + retrieved strategies instead). This is the paper's
	// core structural difference.
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: testLib})
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	p := NewChatLS(llm.New(llm.GPT4o, 2), db)
	cres, err := p.CustomizeResult(context.Background(), task, 0)
	if err != nil {
		t.Fatal(err)
	}
	script := cres.Script
	if script == "" {
		t.Fatal("empty script")
	}
	issues := synth.ValidateScript(script)
	for _, is := range issues {
		if is.Severity == "error" {
			t.Errorf("ChatLS script invalid: %v\n%s", is, script)
		}
	}
}
