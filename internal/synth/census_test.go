package synth_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

// The census: a compile's result can be kept per snapshot only because the
// scripts aimed at one design use few compile keys — the paper's loop holds
// the clock period and the wireload fixed (§V) and the samples choose among a
// handful of compile* option sets. TestDerivedCensus counts those keys over
// the repo benchmark's closed-loop request mix, and how many of the scripts
// a request synthesizes only read after their first compile — the runs a
// served compile answers without an analysis.

// censusSeed is chatlsd's default -seed, which seeds the database build and
// every model the daemon serves with.
const censusSeed = 20250706

// censusTemplates are the repo benchmark's eight requirement templates
// (bench/workload.go), copied: the benchmark is a module of its own.
var censusTemplates = [8]string{
	"Customize the synthesis script to optimize timing: close all timing violations at the given clock period. Basic configurations (clock period, wireload model) must not change. Recover area where timing allows.",
	"Optimize timing for this block and close the remaining violations; keep the clock period and the wireload model as they are.",
	"We are failing timing signoff. Close every setup violation at the current clock period, then recover area where slack allows.",
	"Improve the worst negative slack on the critical paths without touching the basic constraints. A smaller area is welcome, timing comes first.",
	"Timing closure run: optimize timing until no violation remains at the given period. Do not change the clock or the wireload model.",
	"Close timing at the given clock period. If slack is positive everywhere, trade the margin for area.",
	"Tighten the script to fix the timing violations the baseline run reports; constraints stay as they are; recover area afterwards.",
	"Optimize timing and reduce total negative slack; keep the basic configuration untouched and report QoR at the end.",
}

// censusRequirements are the requirement strings a closed-loop workload of
// the benchmark sends under a run seed: each template with the seed-derived
// ticket suffix bench/workload.go gives it.
func censusRequirements(seed int64, workload string) []string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, workload+"/tickets", 0)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	out := make([]string, len(censusTemplates))
	for i := range out {
		out[i] = fmt.Sprintf("%s [ticket %02d-%06d]", censusTemplates[i], i, rng.Intn(1000000))
	}
	return out
}

// TestDerivedCensus: every benchmark design, under the two warm workloads'
// mixes — chatls at k=1 and raw gpt4o / claude at k=5, each over the eight
// requirements — at three benchmark run seeds, sends its snapshot at most
// maxDerived distinct compile keys, so a warm pass never cycles the derived
// level. (The open-loop mix, 64 requirements over all three pipelines at
// k = 1 and 5, sends more; see DESIGN.md, "The derived level".)
//
// It also classifies each script a request synthesizes — its distinct
// samples, as the daemon's Pass@k evaluation runs each once — by what
// follows its first compile: most of the warm_raw_k5 scripts that reach the
// derived level then only read, so keeping what they read beside the
// compiled netlist pays (see derivedTail). warm_chatls_k1's plans mostly
// edit after the compile; its share is logged, not gated.
func TestDerivedCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the database and compiles every distinct script of the mix")
	}
	ctx := context.Background()
	lib := liberty.Nangate45()
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: censusSeed, TrainEpochs: 40, Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	mixes := []struct {
		workload  string
		pipelines []chatls.Pipeline
		k         int
	}{
		{"warm_chatls_k1", []chatls.Pipeline{chatls.NewChatLS(llm.New(llm.GPT4o, censusSeed), db)}, 1},
		{"warm_raw_k5", []chatls.Pipeline{
			&chatls.RawPipeline{Model: llm.New(llm.GPT4o, censusSeed)},
			&chatls.RawPipeline{Model: llm.New(llm.Claude35, censusSeed)},
		}, 5},
	}
	tails := make([]struct{ scripts, derived, readOnly int }, len(mixes))
	for _, d := range designs.Benchmarks() {
		store := synth.NewCheckpointStore(0)
		task, _, err := chatls.NewTaskWith(ctx, d, lib, store) // captures the post-link snapshot
		if err != nil {
			t.Fatal(err)
		}
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		keyOf := map[string]string{} // script -> key, shared by the mixes
		for mi, m := range mixes {
			for _, seed := range []int64{1, 7, 3201} {
				keys := map[string]bool{}
				for _, req := range censusRequirements(seed, m.workload) {
					tk := *task
					tk.Requirement = req
					for _, p := range m.pipelines {
						synthesized := map[string]bool{}
						for s := 0; s < m.k; s++ {
							c, err := p.CustomizeResult(ctx, &tk, s)
							if err != nil {
								continue
							}
							key, ok := keyOf[c.Script]
							if !ok {
								key = synth.FirstCompileKey(sess, c.Script)
								keyOf[c.Script] = key
							}
							if key != "" {
								keys[key] = true
							}
							if synthesized[c.Script] {
								continue
							}
							synthesized[c.Script] = true
							tails[mi].scripts++
							if key != "" {
								tails[mi].derived++
								if synth.ReadOnlyAfterCompile(c.Script) {
									tails[mi].readOnly++
								}
							}
						}
					}
				}
				t.Logf("%s %s seed %d: %d compile keys", d.Name, m.workload, seed, len(keys))
				if len(keys) > synth.MaxDerived {
					t.Errorf("%s %s seed %d: the snapshot sees %d compile keys, more than the %d the derived level keeps",
						d.Name, m.workload, seed, len(keys), synth.MaxDerived)
				}
			}
		}
	}
	for mi, m := range mixes {
		n := tails[mi]
		share := float64(n.readOnly) / float64(max(n.derived, 1))
		t.Logf("%s: of %d synthesized scripts %d reach the derived level, and %d of those (%.0f %%) only read after it",
			m.workload, n.scripts, n.derived, n.readOnly, 100*share)
		if m.workload == "warm_raw_k5" && share <= 0.5 {
			t.Errorf("%s: %.0f %% of the scripts that reach the derived level only read after it, want most", m.workload, 100*share)
		}
	}
}
