package chatls

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/qorlog"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// shareRequirements are four tickets in the style of the repo benchmark's:
// each changes the prompt, so each draws other scripts from the same policy.
var shareRequirements = []string{
	DefaultRequirement,
	"Optimize timing for this block and close the remaining violations; keep the clock period and the wireload model as they are. [ticket 01-314159]",
	"We are failing timing signoff. Close every setup violation at the current clock period, then recover area where slack allows. [ticket 02-271828]",
	"Improve the worst negative slack on the critical paths without touching the basic constraints. A smaller area is welcome, timing comes first. [ticket 03-161803]",
}

// sampleCounts are what a Pass@k evaluation's samples imply for a result
// store of its own: reached counts the samples whose script was looked up
// (every one Customize produced), failed those whose script then failed in
// the tool, distinct the different scripts among the valid ones.
type sampleCounts struct {
	reached, valid, failed, distinct int
}

func countSamples(res EvalResult) sampleCounts {
	var c sampleCounts
	scripts := map[string]bool{}
	for _, s := range res.Samples {
		if strings.HasPrefix(s.Err, "customize: ") {
			continue
		}
		c.reached++
		if s.QoR == nil {
			c.failed++
			continue
		}
		c.valid++
		scripts[s.Script] = true
	}
	c.distinct = len(scripts)
	return c
}

// TestShareRepeatsMatchesStoreless: the daemon's Pass@k path (one worker,
// the shared checkpoint store, a store of the request's own from
// ShareRepeats) gives every sample, Valid, BestSample and Improved exactly as
// the storeless protocol does, on every benchmark design under the three
// pipelines and four requirements, while synthesizing each distinct valid
// script once: the store's misses are the distinct valid scripts plus every
// sample that failed in the tool, whose failure is recomputed, not shared.
// With four workers two samples may compute one script at once; both must
// give the same answer (run under -race by make race).
func TestShareRepeatsMatchesStoreless(t *testing.T) {
	ctx := context.Background()
	ckpt := synth.NewCheckpointStore(0)
	pipelines := []Pipeline{
		&RawPipeline{Model: llm.New(llm.GPT4o, ProtocolSeed)},
		&RawPipeline{Model: llm.New(llm.Claude35, ProtocolSeed)},
		NewChatLS(llm.New(llm.GPT4o, ProtocolSeed), fullDB(t)),
	}
	const k = 5
	var shared, failed int
	for _, d := range designs.Benchmarks() {
		oracleTask, oracleBase, err := NewTask(ctx, d, testLib)
		if err != nil {
			t.Fatal(err)
		}
		task, base, err := NewTaskWith(ctx, d, testLib, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if base != oracleBase {
			t.Fatalf("%s: baseline %+v, storeless %+v", d.Name, base, oracleBase)
		}
		for _, p := range pipelines {
			for ri, req := range shareRequirements {
				name := fmt.Sprintf("%s/%s/req%d", d.Name, p.Name(), ri)
				ot := *oracleTask
				ot.Requirement = req
				want, err := EvalTaskOpts(ctx, p, &ot, oracleBase, k, testLib, EvalOptions{Workers: 1})
				if err != nil {
					t.Fatalf("%s: storeless: %v", name, err)
				}
				c := countSamples(want)
				shared += c.valid - c.distinct
				failed += c.failed
				for _, workers := range []int{1, 4} {
					tt := *task
					tt.Requirement = req
					opts, store := EvalOptions{Workers: workers, Checkpoints: ckpt}.ShareRepeats(k)
					got, err := EvalTaskOpts(ctx, p, &tt, base, k, testLib, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s workers=%d: shared-store result differs from the storeless one:\ngot:  %+v\nwant: %+v", name, workers, got, want)
					}
					if got.Improved() != want.Improved() {
						t.Fatalf("%s workers=%d: Improved %v, storeless %v", name, workers, got.Improved(), want.Improved())
					}
					st := store.Stats()
					if st.Hits+st.Misses != int64(c.reached) {
						t.Errorf("%s workers=%d: %d lookups, want one per scripted sample (%d)", name, workers, st.Hits+st.Misses, c.reached)
					}
					if store.Len() != c.distinct {
						t.Errorf("%s workers=%d: store holds %d records, want the %d distinct valid scripts", name, workers, store.Len(), c.distinct)
					}
					runs := int64(c.distinct + c.failed)
					if workers == 1 && st.Misses != runs {
						t.Errorf("%s: %d synthesis runs, want %d (%d distinct valid scripts + %d tool failures)", name, st.Misses, runs, c.distinct, c.failed)
					}
					if st.Misses < runs {
						t.Errorf("%s workers=%d: %d synthesis runs, fewer than %d", name, workers, st.Misses, runs)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no sample repeated an earlier one: the test exercised no sharing")
	}
	t.Logf("%d samples served from an earlier sample's run, %d failed in the tool", shared, failed)
}

// scriptedPipeline emits scripts[sample] (the last one past the end) and,
// when onSample is set, calls it with the sample index first.
type scriptedPipeline struct {
	scripts  []string
	onSample func(int)
}

func (p *scriptedPipeline) Name() string { return "scripted" }
func (p *scriptedPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	if p.onSample != nil {
		p.onSample(sample)
	}
	return Customization{Script: p.scripts[min(sample, len(p.scripts)-1)]}, nil
}

// syntheses counts the synthesis runs a checkpoint store saw: every script
// that opens with read_verilog … link asks it once.
func syntheses(ckpt *synth.CheckpointStore) int64 {
	st := ckpt.Stats()
	return st.Hits + st.Misses
}

// TestStorelessPathSynthesizesEverySample: EvalOptions{} (the storeless
// oracle) runs the tool for every sample, repeats included; ShareRepeats runs
// a repeated valid script once, a repeated failing one every time, and
// leaves k = 1 and a caller's own store alone.
func TestStorelessPathSynthesizesEverySample(t *testing.T) {
	ctx := context.Background()
	d := designs.RiscV32i()
	ckpt := synth.NewCheckpointStore(0)
	task, base, err := NewTaskWith(ctx, d, testLib, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	valid := &scriptedPipeline{scripts: []string{task.Baseline}}
	// Fails in the tool after the restore, so a run is counted.
	failing := &scriptedPipeline{scripts: []string{task.Baseline + "set_max_fanout -3 [current_design]\n"}}

	run := func(p Pipeline, opts EvalOptions) (EvalResult, int64) {
		t.Helper()
		before := syntheses(ckpt)
		res, err := EvalTaskOpts(ctx, p, task, base, k, testLib, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, syntheses(ckpt) - before
	}
	want, runs := run(valid, EvalOptions{Checkpoints: ckpt})
	if runs != k || want.Valid != k {
		t.Fatalf("storeless: %d runs and %d valid samples, want %d and %d", runs, want.Valid, k, k)
	}
	opts, store := EvalOptions{Checkpoints: ckpt}.ShareRepeats(k)
	got, runs := run(valid, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared store: %+v, storeless %+v", got, want)
	}
	if st := store.Stats(); runs != 1 || st.Hits != k-1 || st.Misses != 1 {
		t.Errorf("shared store: %d runs, %d hits, %d misses; want 1, %d, 1", runs, st.Hits, st.Misses, k-1)
	}
	// One worker a sample: all k may look the script up before any puts it.
	opts, store = EvalOptions{Workers: k, Checkpoints: ckpt}.ShareRepeats(k)
	if got, runs = run(valid, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared store, %d workers: %+v, storeless %+v", k, got, want)
	}
	if st := store.Stats(); runs < 1 || st.Misses != runs || st.Hits != k-runs || store.Len() != 1 {
		t.Errorf("shared store, %d workers: %d runs, %d misses, %d hits, %d records", k, runs, st.Misses, st.Hits, store.Len())
	}

	want, runs = run(failing, EvalOptions{Checkpoints: ckpt})
	if runs != k || want.Valid != 0 {
		t.Fatalf("storeless failing script: %d runs and %d valid samples, want %d and 0", runs, want.Valid, k)
	}
	opts, store = EvalOptions{Checkpoints: ckpt}.ShareRepeats(k)
	got, runs = run(failing, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared store, failing script: %+v, storeless %+v", got, want)
	}
	if st := store.Stats(); runs != k || st.Hits != 0 || store.Len() != 0 {
		t.Errorf("a failing script was shared: %d runs, %d hits, %d records; want %d, 0, 0", runs, st.Hits, store.Len(), k)
	}

	if o, s := (EvalOptions{Workers: 2}).ShareRepeats(1); s != nil || o.Results != nil {
		t.Error("ShareRepeats(1) added a store: one sample cannot repeat")
	}
	own := qorlog.NewMemoryStore(0)
	if o, s := (EvalOptions{Results: own}).ShareRepeats(k); s != nil || o.Results != ResultStore(own) {
		t.Error("ShareRepeats replaced the caller's result store")
	}
}

// TestShareRepeatsStoresNoCancelledOrRejectedSample: a sample whose
// synthesis is cancelled, or refused because the deadline expired, ends the
// evaluation and puts nothing in the request's store; only completed runs
// are shared.
func TestShareRepeatsStoresNoCancelledOrRejectedSample(t *testing.T) {
	d := designs.RiscV32i()
	task, base, err := NewTask(context.Background(), d, testLib)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	unique := task.Baseline + "report_qor\n"

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Samples 0 and 1 repeat one script; sample 2's is new, and the
		// caller goes away just after it is generated.
		p := &scriptedPipeline{
			scripts: []string{task.Baseline, task.Baseline, unique},
			onSample: func(s int) {
				if s == 2 {
					cancel()
				}
			},
		}
		opts, store := EvalOptions{Workers: 1}.ShareRepeats(k)
		res, err := EvalTaskOpts(ctx, p, task, base, k, testLib, opts)
		if !resilience.IsFatal(err) {
			t.Fatalf("err = %v, want the cancellation", err)
		}
		if len(res.Samples) != 3 || res.Valid != 2 {
			t.Fatalf("kept %d samples, %d valid; want 3 and 2", len(res.Samples), res.Valid)
		}
		if store.Len() != 1 {
			t.Errorf("store holds %d records, want only the completed script's", store.Len())
		}
		if _, ok := store.Get(ResultKey(testLib, d, unique)); ok {
			t.Error("the cancelled sample's script reached the store")
		}
	})

	// The deadline, a request's only budget, expires before sample 0
	// starts, or while it is being generated, before its synthesis.
	for _, at := range []string{"sample", "synth"} {
		t.Run("budget/"+at, func(t *testing.T) {
			budget := -time.Millisecond
			if at == "synth" {
				budget = 20 * time.Millisecond
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			p := &scriptedPipeline{scripts: []string{task.Baseline}, onSample: func(int) { <-ctx.Done() }}
			opts, store := EvalOptions{Workers: 1}.ShareRepeats(k)
			res, err := EvalTaskOpts(ctx, p, task, base, k, testLib, opts)
			if !errors.Is(err, resilience.ErrTimeout) {
				t.Fatalf("err = %v, want the deadline", err)
			}
			if res.Valid != 0 || store.Len() != 0 {
				t.Errorf("%d valid samples, %d stored records; want none", res.Valid, store.Len())
			}
		})
	}
}

// recordingStore is a ResultStore that remembers every key it is asked for
// and every key a record is published under.
type recordingStore struct {
	*qorlog.Store
	mu        sync.Mutex
	gets, put []qorlog.Key
}

func (s *recordingStore) Get(key qorlog.Key) (qorlog.Record, bool) {
	s.mu.Lock()
	s.gets = append(s.gets, key)
	s.mu.Unlock()
	return s.Store.Get(key)
}

func (s *recordingStore) Put(key qorlog.Key, rec qorlog.Record) {
	s.mu.Lock()
	s.put = append(s.put, key)
	s.mu.Unlock()
	s.Store.Put(key, rec)
}

// TestResultKeyUnchanged: the keys the QoR logs on disk are addressed by
// still frame (library fingerprint, file name, source, script) in that
// order, whether ResultKey derives one or an evaluation keys its samples
// from a prefix over the library and the sources. Every key a raw Pass@5
// evaluation looks up and publishes, on every design, is qorlog.KeyOf over
// the sample's script; and testdata/raw_pass5.qorlog, a log the same
// evaluations wrote before samples were keyed from a prefix, serves every
// valid sample of them warm. The file is a fixture: a change that must
// regenerate it changes the keys of every log on disk.
func TestResultKeyUnchanged(t *testing.T) {
	ctx := context.Background()
	fp := testLib.Fingerprint()
	for _, d := range designs.Benchmarks() {
		script := d.BaselineScript()
		want := qorlog.KeyOf(fp, d.FileName, d.Source, script)
		if got := ResultKey(testLib, d, script); got != want {
			t.Errorf("%s: ResultKey = %x, want %x", d.Name, got[:8], want[:8])
		}
	}

	path := filepath.Join(t.TempDir(), "raw_pass5.qorlog")
	logged, err := os.ReadFile(filepath.Join("testdata", "raw_pass5.qorlog"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, logged, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := qorlog.OpenStore(path, 0, qorlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	const k = 5
	var valid int
	for _, d := range designs.Benchmarks() {
		task, base, err := NewTask(ctx, d, testLib)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []llm.Profile{llm.GPT4o, llm.Claude35} {
			p := &RawPipeline{Model: llm.New(m, ProtocolSeed)}
			name := d.Name + "/" + p.Name()
			rec := &recordingStore{Store: qorlog.NewMemoryStore(k)}
			res, err := EvalTaskOpts(ctx, p, task, base, k, testLib, EvalOptions{Workers: 1, Results: rec})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var wants []qorlog.Key
			published := map[qorlog.Key]bool{}
			for _, s := range res.Samples {
				if strings.HasPrefix(s.Err, "customize: ") {
					continue
				}
				key := qorlog.KeyOf(fp, d.FileName, d.Source, s.Script)
				wants = append(wants, key)
				if s.QoR != nil {
					published[key] = true
				}
			}
			if !reflect.DeepEqual(rec.gets, wants) {
				t.Errorf("%s: looked up %d keys, want KeyOf over each of the %d samples' scripts, in order", name, len(rec.gets), len(wants))
			}
			for _, key := range rec.put {
				if !published[key] {
					t.Errorf("%s: published under %x, which is no valid sample's KeyOf", name, key[:8])
				}
			}
			if len(rec.put) != len(published) {
				t.Errorf("%s: %d records published, want one per distinct valid script (%d)", name, len(rec.put), len(published))
			}

			before := warm.Stats()
			served, err := EvalTaskOpts(ctx, p, task, base, k, testLib, EvalOptions{Workers: 1, Results: warm})
			if err != nil {
				t.Fatalf("%s warm: %v", name, err)
			}
			if !reflect.DeepEqual(served, res) {
				t.Errorf("%s: the logged evaluation differs from the computed one", name)
			}
			after := warm.Stats()
			if hits := after.Hits - before.Hits; hits != int64(res.Valid) {
				t.Errorf("%s: the log served %d samples, want every valid one (%d)", name, hits, res.Valid)
			}
			valid += res.Valid
		}
	}
	if st := warm.Stats(); st.Appends != 0 || st.Warmed == 0 {
		t.Errorf("log: %d records replayed, %d appended; want some replayed and none appended", st.Warmed, st.Appends)
	}
	if valid == 0 {
		t.Error("no sample was valid: the test checked no key")
	}
}
