// Command experiments regenerates every table and figure of the paper's
// evaluation section:
//
//	experiments -table 4     # Table IV: baseline QoR of the benchmarks
//	experiments -table 3     # Table III: GPT-4o vs Claude 3.5 vs ChatLS (Pass@5)
//	experiments -table 2     # Table II: the SynthRAG database corpus
//	experiments -fig 5       # Fig. 5: SynthRAG retrieval F1
//	experiments -ablation    # component ablations
//	experiments -all         # everything
//
// All runs are seeded and deterministic; -seed overrides.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/qorlog"
	"repro/internal/remotecache"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (2, 3, or 4)")
	fig := flag.Int("fig", 0, "regenerate a figure (5)")
	ablation := flag.Bool("ablation", false, "run the component ablations")
	rerank := flag.Bool("rerank", false, "run the Eq. 5 rerank-weight sweep")
	iterate := flag.Bool("iterate", false, "run the iterative-resynthesis study")
	all := flag.Bool("all", false, "run every experiment")
	seed := flag.Int64("seed", 0, "override the experiment seed")
	k := flag.Int("k", 0, "override Pass@k sample count")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (0 = unlimited)")
	workers := flag.Int("workers", 1, "concurrent Pass@k sample workers (1 = paper's serial protocol)")
	qorLog := flag.String("qor-log", "", "durable QoR log path: sweeps over unchanged inputs are served from it and skip synthesis (empty disables)")
	remoteCache := flag.String("remote-cache", "", "base URL of a shared chatlscached result tier; replicas share synthesis results through it (empty disables)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := chatls.DefaultConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *k != 0 {
		cfg.K = *k
	}
	cfg.Workers = *workers
	cfg.Checkpoints = synth.NewCheckpointStore(0)
	var store *qorlog.Store
	if *qorLog != "" {
		s, err := qorlog.OpenStore(*qorLog, 0, qorlog.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: cannot open QoR log %s, running without it: %v\n", *qorLog, err)
		} else {
			st := s.Stats()
			fmt.Fprintf(os.Stderr, "qor log %s: recovered %d record(s), dropped %d torn/corrupt byte(s)\n",
				*qorLog, st.Recovered, st.DroppedBytes)
			store = s
			cfg.Results = store
			defer func() {
				st := store.Stats()
				fmt.Fprintf(os.Stderr, "qor log: %d hit(s) served without synthesis, %d new record(s) appended\n",
					st.Hits, st.Appends)
				if err := store.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "warning: closing QoR log:", err)
				}
			}()
		}
	}
	if *remoteCache != "" {
		rc := remotecache.NewClient(remotecache.ClientConfig{BaseURL: *remoteCache})
		// The tier layers the remote cache over the local log (which may be
		// absent — a remote-only tier still shares results fleet-wide).
		cfg.Results = remotecache.NewTier(ctx, store, rc)
		defer func() {
			st := rc.Stats()
			fmt.Fprintf(os.Stderr,
				"remote cache: %d QoR hit(s), %d published\n", st.QoRHits, st.QoRPuts)
			if st.Degraded {
				fmt.Fprintln(os.Stderr, "remote cache: tier was lost mid-run; finished local-only")
			}
		}()
	}

	sel := selection{table: *table, fig: *fig, ablation: *ablation, rerank: *rerank, iterate: *iterate, all: *all}
	if !sel.any() {
		flag.Usage()
		return
	}
	fatal(run(ctx, os.Stdout, cfg, sel))
}

// selection says which experiments a run regenerates.
type selection struct {
	table, fig                     int
	ablation, rerank, iterate, all bool
}

func (s selection) wantTable(n int) bool { return s.all || s.table == n }
func (s selection) wantFig(n int) bool   { return s.all || s.fig == n }

// needDB reports whether any selected experiment reads the SynthRAG database.
func (s selection) needDB() bool {
	return s.wantTable(2) || s.wantTable(3) || s.all || s.ablation || s.rerank || s.iterate
}

func (s selection) any() bool { return s.needDB() || s.wantTable(4) || s.wantFig(5) }

// run regenerates the selected experiments onto w, in the paper's order.
// Progress and per-design failures go to stderr; the text on w is a function
// of cfg and sel alone (testdata/all.golden pins it for -all).
func run(ctx context.Context, w io.Writer, cfg chatls.ExperimentConfig, sel selection) error {
	var db *synthrag.Database
	if sel.needDB() {
		fmt.Fprintln(os.Stderr, "building SynthRAG database (expert-draft synthesis)...")
		var err error
		if db, err = chatls.BuildDatabase(cfg); err != nil {
			return err
		}
	}

	if sel.wantTable(2) {
		fmt.Fprintln(w, chatls.FormatTable2(chatls.Table2(db)))
	}
	if sel.wantTable(4) {
		rows, err := chatls.Table4(ctx, cfg)
		if err := warnPartial(err); err != nil {
			return err
		}
		fmt.Fprintln(w, chatls.FormatTable4(rows))
	}
	if sel.wantTable(3) {
		fmt.Fprintln(os.Stderr, "running Table III (3 pipelines x 7 designs x Pass@5)...")
		rows, err := chatls.Table3(ctx, cfg, db)
		if err := warnPartial(err); err != nil {
			return err
		}
		fmt.Fprintln(w, chatls.FormatTable3(rows))
	}
	if sel.wantFig(5) {
		fmt.Fprintln(os.Stderr, "running Fig. 5 retrieval evaluation...")
		points, err := chatls.Fig5(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, chatls.FormatFig5(points))
	}
	if sel.ablation || sel.all {
		fmt.Fprintln(os.Stderr, "running ablations...")
		rows, err := chatls.Ablations(ctx, cfg, db)
		if err := warnPartial(err); err != nil {
			return err
		}
		fmt.Fprintln(w, chatls.FormatAblations(rows))
	}
	if sel.rerank || sel.all {
		fmt.Fprintln(os.Stderr, "running rerank-weight sweep...")
		points, err := chatls.RerankSweep(ctx, cfg, db)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, chatls.FormatRerankSweep(points))
	}
	if sel.iterate || sel.all {
		fmt.Fprintln(os.Stderr, "running iterative-resynthesis study...")
		itCfg := cfg
		itCfg.Designs = []*designs.Design{designs.EthMAC(), designs.TinyRocket(), designs.JPEG()}
		rows, err := chatls.IterativeClosure(ctx, itCfg, db, 3)
		if err := warnPartial(err); err != nil {
			return err
		}
		fmt.Fprintln(w, chatls.FormatIterations(rows))
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// warnPartial keeps going when a sweep returned partial results (per-design
// failures), which it reports, and passes any other error on, e.g. a timeout.
func warnPartial(err error) error {
	var sweep chatls.SweepErrors
	if errors.As(err, &sweep) {
		for _, de := range sweep {
			fmt.Fprintln(os.Stderr, "warning: design failed:", de.Error())
		}
		return nil
	}
	return err
}
