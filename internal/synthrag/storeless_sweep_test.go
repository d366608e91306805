package synthrag

import (
	"fmt"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
)

// The palette sweep as it ran before it shared a checkpoint store, for the
// equivalence and lifetime tests: every plan parses and elaborates the design
// in a session of its own, under the whole spliced script, reports included.
// Non-test code has bestStrategy.

func storelessBestStrategy(d *designs.Design, lib *liberty.Library, names []string) (paletteResult, error) {
	var best paletteResult
	first := true
	for _, name := range names {
		sess := synth.NewSession(lib)
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Run(llm.SpliceScript(d.BaselineScript(), StrategyPalette[name]))
		if err != nil {
			continue
		}
		if q := *res.QoR; first || betterQoR(q, best.qor) {
			best = paletteResult{name, q}
			first = false
		}
	}
	if first {
		return best, fmt.Errorf("no palette strategy ran successfully")
	}
	return best, nil
}
