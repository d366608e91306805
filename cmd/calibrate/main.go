// Command calibrate prints the QoR of every Table IV benchmark under the
// baseline script and a palette of candidate customizations. It exists to
// verify (and tune) that each design's structural traits make the intended
// commands profitable — the mechanical precondition for the Table III
// reproduction.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/synth"
)

func main() {
	only := flag.String("design", "", "limit to one design")
	flag.Parse()
	ctx := context.Background()

	variants := []struct {
		name string
		cust func(d *designs.Design) string
	}{
		{"baseline", func(d *designs.Design) string { return d.BaselineScript() }},
		{"high", withCompile("compile -map_effort high")},
		{"ultra", withCompile("compile_ultra")},
		{"ultra+retime", withCompile("compile_ultra -retime")},
		{"ultra+retime+theff", withCompile("compile_ultra -retime -timing_high_effort_script")},
		{"ultra+areaheff", withCompile("compile_ultra -area_high_effort_script")},
		{"medium+buffers", withCompile("set_max_fanout 16 [current_design]\ncompile\nbalance_buffers")},
		{"ultra+buffers", withCompile("set_max_fanout 16 [current_design]\ncompile_ultra\nbalance_buffers")},
		{"noungroup", withCompile("compile_ultra -no_autoungroup")},
	}

	for _, d := range designs.Benchmarks() {
		if *only != "" && d.Name != *only {
			continue
		}
		fmt.Printf("== %s (period %.2f)\n", d.Name, d.Period)
		for _, v := range variants {
			sess := synth.NewSession(liberty.Nangate45())
			sess.AddSource(d.FileName, d.Source)
			script := v.cust(d)
			res, err := sess.RunContext(ctx, script)
			if err != nil {
				fmt.Printf("  %-20s ERROR: %v\n", v.name, err)
				continue
			}
			q := res.QoR
			fmt.Printf("  %-20s WNS %8.3f CPS %8.3f TNS %9.2f area %10.2f cells %6d\n",
				v.name, q.WNS, q.CPS, q.TNS, q.Area, q.Cells)
		}
	}
	_ = os.Stdout
}

// withCompile returns a script builder replacing the baseline compile line.
func withCompile(compileCmds string) func(d *designs.Design) string {
	return func(d *designs.Design) string {
		base := d.BaselineScript()
		lines := strings.Split(base, "\n")
		var out []string
		for _, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "compile") {
				out = append(out, compileCmds)
				continue
			}
			out = append(out, l)
		}
		return strings.Join(out, "\n")
	}
}
