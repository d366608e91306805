package chatls

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/synth"
)

// rawTasks returns the baseline task of each of the seven benchmark designs,
// built over one checkpoint store.
func rawTasks(t *testing.T) ([]*Task, []synth.QoR) {
	t.Helper()
	store := synth.NewCheckpointStore(0)
	var tasks []*Task
	var qors []synth.QoR
	for _, d := range designs.Benchmarks() {
		task, qor, err := NewTaskWith(context.Background(), d, testLib, store)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
		qors = append(qors, qor)
	}
	return tasks, qors
}

// freshScript is a sample drawn by a pipeline that has read nothing before.
func freshScript(t *testing.T, model *llm.Model, task *Task, sample int) string {
	t.Helper()
	c, err := (&RawPipeline{Model: model}).CustomizeResult(context.Background(), task, sample)
	if err != nil {
		t.Fatal(err)
	}
	return c.Script
}

// TestRawReadingMatchesFreshPipeline: one RawPipeline serving a task's
// samples from its memoized reading produces, byte for byte, the scripts a
// new pipeline per sample produces — forward and in reverse, for every
// benchmark design under both raw models.
func TestRawReadingMatchesFreshPipeline(t *testing.T) {
	tasks, _ := rawTasks(t)
	ctx := context.Background()
	for _, prof := range []llm.Profile{llm.GPT4o, llm.Claude35} {
		model := llm.New(prof, 1)
		for _, task := range tasks {
			want := make([]string, 5)
			for s := range want {
				want[s] = freshScript(t, model, task, s)
			}
			for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
				p := &RawPipeline{Model: model}
				for _, s := range order {
					got, err := p.CustomizeResult(ctx, task, s)
					if err != nil {
						t.Fatal(err)
					}
					if got.Script != want[s] {
						t.Errorf("%s %s order %v sample %d:\n got %q\nwant %q",
							prof.Name, task.Design.Name, order, s, got.Script, want[s])
					}
				}
			}
		}
	}
}

// TestRawReadingKey: a pipeline alternating between two tasks that differ in
// exactly one prompt input — or between two models — returns each call its
// own task's scripts, so the memo's key must cover every input of the prompt.
func TestRawReadingKey(t *testing.T) {
	tasks, _ := rawTasks(t)
	base := tasks[0]
	withDesign := func(edit func(d *designs.Design)) *Task {
		d := *base.Design
		edit(&d)
		nt := *base
		nt.Design = &d
		return &nt
	}
	edited := func(edit func(t *Task)) *Task {
		nt := *base
		edit(&nt)
		return &nt
	}
	gpt, claude := llm.New(llm.GPT4o, 1), llm.New(llm.Claude35, 1)
	cases := []struct {
		name  string
		task  *Task      // base with one prompt input changed
		model *llm.Model // the model that serves task
	}{
		{"requirement", edited(func(t *Task) {
			t.Requirement = "Reduce area: make the design smaller. The clock must not change."
		}), gpt},
		{"baseline", edited(func(t *Task) { t.Baseline += "# baseline edited\n" }), gpt},
		{"report", edited(func(t *Task) { t.BaselineReport += "\nreport edited\n" }), gpt},
		{"source", withDesign(func(d *designs.Design) { d.Source += "\n// source edited\n" }), gpt},
		{"model", base, claude},
	}
	ctx := context.Background()
	for _, c := range cases {
		models := [2]*llm.Model{gpt, c.model}
		tasksAB := [2]*Task{base, c.task}
		var want [2][]string
		for i := range want {
			for s := 0; s < 5; s++ {
				want[i] = append(want[i], freshScript(t, models[i], tasksAB[i], s))
			}
		}
		if slices.Equal(want[0], want[1]) {
			t.Fatalf("%s: both tasks draw the same five scripts, so the case tests nothing", c.name)
		}
		p := &RawPipeline{}
		for s := 0; s < 5; s++ {
			for i := range tasksAB {
				p.Model = models[i]
				got, err := p.CustomizeResult(ctx, tasksAB[i], s)
				if err != nil {
					t.Fatal(err)
				}
				if got.Script != want[i][s] {
					t.Errorf("%s: task %d sample %d took another task's reading:\n got %q\nwant %q",
						c.name, i, s, got.Script, want[i][s])
				}
			}
		}
	}
}

// memoWatch forwards to a RawPipeline and records its memo entry after each
// sample.
type memoWatch struct {
	*RawPipeline
	mu    sync.Mutex
	after map[int]*rawReading
}

func (w *memoWatch) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	c, err := w.RawPipeline.CustomizeResult(ctx, t, sample)
	w.mu.Lock()
	w.after[sample] = w.last.Load()
	w.mu.Unlock()
	return c, err
}

// TestRawPromptReadOnce attributes the raw pipeline's gain without a counter:
// a Pass@5 evaluation on a new pipeline reads its prompt exactly once. Every
// read stores a new memo entry, so an entry that sample 0 leaves and samples
// 1-4 leave unchanged is one read.
func TestRawPromptReadOnce(t *testing.T) {
	tasks, qors := rawTasks(t)
	w := &memoWatch{RawPipeline: &RawPipeline{Model: llm.New(llm.GPT4o, 1)}, after: map[int]*rawReading{}}
	if w.last.Load() != nil {
		t.Fatal("a new pipeline already holds a reading")
	}
	res, err := EvalTaskOpts(context.Background(), w, tasks[0], qors[0], 5, testLib, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 5 {
		t.Fatalf("evaluated %d samples, want 5", len(res.Samples))
	}
	first := w.after[0]
	if first == nil {
		t.Fatal("sample 0 left no reading")
	}
	for s := 1; s < 5; s++ {
		if w.after[s] != first {
			t.Errorf("sample %d read the prompt again (memo entry %p, sample 0 left %p)", s, w.after[s], first)
		}
	}
}
