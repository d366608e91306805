// Command chatls customizes a logic-synthesis script for a benchmark design
// from a natural-language requirement, through the pipeline of your choice:
//
//	chatls -design dynamic_node                 # full ChatLS pipeline
//	chatls -design aes -pipeline gpt4o          # raw GPT-4o-sim prompting
//	chatls -design jpeg -show-script -show-steps
//	chatls -design tinyRocket -req "minimize area, timing is met"
//
// The customized script is executed by the synthesis simulator and the
// before/after QoR is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
)

func main() {
	designName := flag.String("design", "dynamic_node", "benchmark design name (aes, dynamic_node, ethmac, jpeg, riscv32i, swerv, tinyRocket)")
	pipeline := flag.String("pipeline", "chatls", "pipeline: chatls, gpt4o, claude")
	req := flag.String("req", chatls.DefaultRequirement, "natural-language requirement")
	k := flag.Int("k", 5, "Pass@k samples")
	seed := flag.Int64("seed", 20250706, "generation seed")
	showScript := flag.Bool("show-script", false, "print the best customized script")
	showSteps := flag.Bool("show-steps", false, "print SynthExpert's chain-of-thought steps")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget, baseline run included (0 = unlimited)")
	flag.Parse()

	d := designs.ByName(*designName)
	if d == nil {
		fmt.Fprintf(os.Stderr, "unknown design %q\n", *designName)
		os.Exit(1)
	}
	lib := liberty.Nangate45()

	var p chatls.Pipeline
	switch *pipeline {
	case "gpt4o":
		p = &chatls.RawPipeline{Model: llm.New(llm.GPT4o, *seed)}
	case "claude":
		p = &chatls.RawPipeline{Model: llm.New(llm.Claude35, *seed)}
	case "chatls":
		fmt.Fprintln(os.Stderr, "building SynthRAG database...")
		db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: *seed, TrainEpochs: 40, Lib: lib})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		p = chatls.NewChatLS(llm.New(llm.GPT4o, *seed), db)
	default:
		fmt.Fprintf(os.Stderr, "unknown pipeline %q\n", *pipeline)
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The samples restore what the baseline left in the store, its analysis
	// and embedding included; a repeated script is synthesized once.
	ckpt := synth.NewCheckpointStore(1)
	task, baseQoR, err := chatls.NewTaskWith(ctx, d, lib, ckpt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	task.Requirement = *req

	fmt.Printf("design %s @ %.2f ns  (baseline: WNS %.3f CPS %.3f TNS %.2f area %.1f)\n",
		d.Name, d.Period, baseQoR.WNS, baseQoR.CPS, baseQoR.TNS, baseQoR.Area)

	opts, _ := chatls.EvalOptions{Workers: 1, Checkpoints: ckpt}.ShareRepeats(*k)
	res, evalErr := chatls.EvalTaskOpts(ctx, p, task, baseQoR, *k, lib, opts)
	best, bestScript := baseQoR, ""
	for s, smp := range res.Samples {
		if smp.QoR == nil {
			// A fatal error's sample has no message: evalErr is printed below.
			if smp.Script == "" {
				fmt.Printf("  sample %d: customize failed: %s\n", s, strings.TrimPrefix(smp.Err, "customize: "))
			} else if smp.Err != "" {
				fmt.Printf("  sample %d: script failed in tool: %s\n", s, smp.Err)
			}
			continue
		}
		q, marker := *smp.QoR, ""
		if bestScript == "" || chatls.BetterTiming(q, best) {
			best, bestScript, marker = q, smp.Script, "  <- best so far"
		}
		fmt.Printf("  sample %d: WNS %.3f CPS %.3f TNS %.2f area %.1f%s\n",
			s, q.WNS, q.CPS, q.TNS, q.Area, marker)
		if *showSteps && s == 0 {
			if cres, err := p.CustomizeResult(ctx, task, 0); err == nil && len(cres.Steps) > 0 {
				fmt.Println("  chain-of-thought steps:")
				for i, st := range cres.Steps {
					fmt.Printf("    T%d: %s\n", i+1, st.Thought)
					if st.Before != "" {
						fmt.Printf("        %q -> %q  (via %s)\n", st.Before, st.After, st.Retrieved)
					}
				}
			}
		}
	}
	if evalErr != nil {
		fmt.Fprintln(os.Stderr, "error:", evalErr)
		os.Exit(1)
	}
	fmt.Printf("\nPass@%d: %d valid samples; best WNS %.3f CPS %.3f TNS %.2f area %.1f\n",
		*k, res.Valid, best.WNS, best.CPS, best.TNS, best.Area)
	fmt.Printf("baseline -> customized: WNS %.3f -> %.3f, area %.1f -> %.1f\n",
		baseQoR.WNS, best.WNS, baseQoR.Area, best.Area)
	if *showScript && bestScript != "" {
		fmt.Println("\nbest script:")
		fmt.Println(bestScript)
	}
}
