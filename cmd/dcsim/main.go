// Command dcsim runs a dc_shell-style synthesis script against the logic
// synthesis simulator — the standalone face of the tool the ChatLS pipeline
// drives:
//
//	dcsim -design aes                      # run the aes baseline script
//	dcsim -design aes -script my.tcl       # run a script file against aes RTL
//	dcsim -verilog design.v -script my.tcl # run against RTL from disk
//	dcsim -validate -script my.tcl         # static checks only
//
// Script files may read_verilog any file name registered in the session: a
// benchmark design's RTL registers under its FileName (e.g. aes.v); RTL
// from -verilog registers under its base name.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/synth"
)

func main() {
	designName := flag.String("design", "", "benchmark design providing RTL (and the default script)")
	verilogPath := flag.String("verilog", "", "Verilog file to load instead of a benchmark design")
	scriptPath := flag.String("script", "", "script file to run (default: the design's baseline script)")
	validate := flag.Bool("validate", false, "only validate the script, do not run it")
	writeOut := flag.String("write", "", "write the final mapped netlist (structural Verilog) to this file")
	flag.Parse()
	ctx := context.Background()

	var script string
	sess := synth.NewSession(liberty.Nangate45())

	if *designName != "" {
		d := designs.ByName(*designName)
		if d == nil {
			fail("unknown design %q", *designName)
		}
		sess.AddSource(d.FileName, d.Source)
		script = d.BaselineScript()
	}
	if *verilogPath != "" {
		data, err := os.ReadFile(*verilogPath)
		if err != nil {
			fail("read %s: %v", *verilogPath, err)
		}
		sess.AddSource(filepath.Base(*verilogPath), string(data))
	}
	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		if err != nil {
			fail("read %s: %v", *scriptPath, err)
		}
		script = string(data)
	}
	if script == "" {
		fail("nothing to run: give -design and/or -script")
	}

	if *validate {
		issues := synth.ValidateScript(script)
		if len(issues) == 0 {
			fmt.Println("script OK")
			return
		}
		for _, is := range issues {
			fmt.Println(is)
		}
		for _, is := range issues {
			if is.Severity == "error" {
				os.Exit(1)
			}
		}
		return
	}

	res, err := sess.RunContext(ctx, script)
	if err != nil {
		fail("script failed: %v", err)
	}
	for _, line := range res.Log {
		fmt.Println("log:", line)
	}
	for _, rep := range res.Reports {
		fmt.Println(rep)
	}
	if res.QoR != nil {
		q := res.QoR
		fmt.Printf("final QoR: WNS %.3f CPS %.3f TNS %.2f area %.2f cells %d\n",
			q.WNS, q.CPS, q.TNS, q.Area, q.Cells)
	}
	if *writeOut != "" && res.Design != nil {
		text := netlist.WriteVerilog(res.Design.NL)
		if err := os.WriteFile(*writeOut, []byte(text), 0o644); err != nil {
			fail("write %s: %v", *writeOut, err)
		}
		fmt.Printf("wrote mapped netlist to %s (%d bytes)\n", *writeOut, len(text))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
