package main

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/gnn"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/synthrag"
	"repro/internal/verilog"
)

// timeLeaves times the layers that sit below the stage calls of the replay —
// where no span can reach without editing the program — by calling their
// public functions standalone on every design the workloads use. It returns
// the IR size after elaboration, summed over the designs.
func timeLeaves(rec *recorder, lib *liberty.Library, db *synthrag.Database) (cells int, err error) {
	ctx := context.Background()
	rec.scope(-1, "leaf")
	timed := func(name string, fn func() error) {
		if err != nil {
			return
		}
		id := rec.begin(name)
		ferr := fn()
		rec.end(id)
		if ferr != nil {
			err = fmt.Errorf("leaf %s: %w", name, ferr)
		}
	}
	fresh := func(d *designs.Design, ckpt *synth.CheckpointStore, script string) (*synth.Result, error) {
		sess := synth.NewSession(lib)
		sess.Checkpoints = ckpt
		sess.AddSource(d.FileName, d.Source)
		return sess.RunContext(ctx, script)
	}
	model := llm.New(llm.GPT4o, daemonSeed)
	var graphs []*gnn.Graph

	timed("liberty.build", func() error { _, e := liberty.BuildNangate45(); return e })
	for _, d := range designs.Benchmarks() {
		link := fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\n", d.FileName, d.Top)
		ckpt := synth.NewCheckpointStore(0)

		var file *verilog.SourceFile
		timed("verilog.parse", func() (e error) { file, e = verilog.Parse(d.Source); return })
		var nl *netlist.Netlist
		timed("netlist.elaborate", func() (e error) { nl, e = netlist.Elaborate(file, d.Top, nil, lib); return })
		if err != nil {
			return 0, err
		}
		cells += len(nl.Cells)
		timed("netlist.clone", func() error { nl.Clone(); return nil })

		var run *synth.Result
		timed("synth.run_fresh", func() (e error) { run, e = fresh(d, nil, d.BaselineScript()); return })
		timed("synth.link", func() error { _, e := fresh(d, nil, link); return e })
		timed("synth.link_capture", func() error { _, e := fresh(d, ckpt, link); return e })
		timed("synth.restore", func() error { _, e := fresh(d, ckpt, link); return e })
		// A hallucinated command ahead of the compile: the run restores the
		// checkpoint, applies the constraints, then dies on the unknown name.
		invalid := llm.SpliceScript(d.BaselineScript(), []string{"optimize_timing -aggressive", "compile_ultra"})
		timed("synth.invalid_run", func() error {
			if _, e := fresh(d, ckpt, invalid); e == nil {
				return errors.New("script with a hallucinated command ran to completion")
			}
			return nil
		})
		if err != nil {
			return 0, err
		}

		// STA on the compiled netlist: one full analysis, then one
		// incremental update after resizing a mid-netlist cell.
		dn := run.Design
		var tm *sta.Timing
		timed("sta.full", func() (e error) { tm, e = sta.Analyze(dn.NL, dn.WL, dn.Cons); return })
		if err != nil {
			return 0, err
		}
		for _, c := range dn.NL.Cells[len(dn.NL.Cells)/2:] {
			if up := lib.Upsize(c.Ref); up != nil && up != c.Ref {
				dn.NL.SetRef(c, up)
				timed("sta.incr", func() error { return tm.Update([]*netlist.Cell{c}) })
				break
			}
		}

		var dg *circuitmentor.DesignGraph
		timed("circuitmentor.graph", func() (e error) { dg, e = circuitmentor.BuildGraph(d.Source, d.Top); return })
		if err != nil {
			return 0, err
		}
		timed("gnn.embed_global", func() error { db.Mentor.EmbedGlobal(dg); return nil })
		graphs = append(graphs, dg.G)

		timed("graphdb.query", func() error { _, e := db.CellInfo(nl.Cells[0].Ref.Name); return e })
	}
	// One 2-graph batched embed against the same two graphs embedded
	// serially, over every adjacent pair.
	for i := 0; i+1 < len(graphs); i++ {
		pair := graphs[i : i+2]
		timed("gnn.embed_pair_serial", func() error {
			db.Mentor.Model.EmbedGlobal(pair[0])
			db.Mentor.Model.EmbedGlobal(pair[1])
			return nil
		})
		timed("gnn.embed_pair_batched", func() error { db.Mentor.Model.EmbedGlobalBatch(pair); return nil })
	}
	// The manual queries SynthExpert issues: the simulated LLM's
	// hallucinated command lines.
	for _, q := range []string{"optimize_timing -aggressive", "balance_registers", "set_fanout_limit 16", "retime_design", "fix_hold_violations"} {
		timed("textembed.embed", func() error { db.Embedder.Embed(q); return nil })
		timed("synthrag.manual_search", func() error { _, e := db.SearchManualContext(ctx, q, 5, model); return e })
	}
	return cells, err
}
