package sta_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/sta"
)

// BenchmarkUpdateBatch times one delay-only Update per design at three batch
// sizes, so both ends of the worklist trade are on record: "one" is the
// single resized cell a priority queue serves best (and no request issues),
// "tenth" and "violating" are the shapes SizeForTimingWith and
// AreaRecoveryWith hand over — a tenth of the resizable cells, and every
// resizable cell on a violating path. Each op swaps the batch to its other
// drive strength and refreshes timing; the swap itself is a few stores per
// cell.
func BenchmarkUpdateBatch(b *testing.B) {
	for _, d := range designs.Benchmarks() {
		nl := elaborate(b, d)
		tm, err := sta.Analyze(nl, eqLib.WireLoad(""), sta.Constraints{Period: d.Period})
		if err != nil {
			b.Fatal(err)
		}
		cells, refs := resizable(nl)
		var violating []int
		for i, c := range cells {
			if tm.Slack(c.Output) < 0 {
				violating = append(violating, i)
			}
		}
		tenth := make([]int, 0, len(cells)/10+1)
		for i := 0; i < len(cells); i += 10 {
			tenth = append(tenth, i)
		}
		for _, batch := range []struct {
			name string
			idx  []int
		}{{"one", []int{len(cells) / 2}}, {"tenth", tenth}, {"violating", violating}} {
			if len(batch.idx) == 0 {
				continue // the design meets timing as elaborated
			}
			// Swapping the batch in once yields its cells with both sizes:
			// sizes[0] the swapped ones, sizes[1] the starting ones.
			changed, old := swapBatch(nl, cells, refs, batch.idx)
			sizes := [2][]*liberty.Cell{make([]*liberty.Cell, len(changed)), old}
			for i, c := range changed {
				sizes[0][i] = c.Ref
			}
			set := func(k int) {
				for i, c := range changed {
					nl.SetRef(c, sizes[k][i])
				}
				if err := tm.Update(changed); err != nil {
					b.Fatal(err)
				}
			}
			set(0) // one real update each way grows the worklists to size
			set(1)
			b.Run(d.Name+"/"+batch.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					set(i & 1)
				}
				b.StopTimer()
				b.ReportMetric(float64(len(changed)), "cells/op")
				set(1) // every run starts and ends at the starting sizes
			})
		}
	}
}
