// Quickstart: the smallest end-to-end use of the ChatLS reproduction.
//
//	go run ./examples/quickstart
//
// It builds the SynthRAG database, asks the full ChatLS pipeline to
// customize the synthesis script of the dynamic_node NoC router (a
// high-fanout design whose baseline misses timing), runs both scripts
// through the synthesis simulator, and prints the before/after QoR.
package main

import (
	"context"
	"fmt"
	"log"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
)

func main() {
	lib := liberty.Nangate45()
	design := designs.DynamicNode()

	// 1. Build the retrieval database: the Table II corpus is synthesized
	//    under the strategy palette to find each design's expert script,
	//    and CircuitMentor's GNN is metric-trained on its module graphs.
	fmt.Println("building SynthRAG database...")
	db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: 1, TrainEpochs: 40, Lib: lib})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Package the customization task: the baseline script runs once so
	//    the pipeline sees the tool report, like a user pasting their log.
	ctx := context.Background()
	task, baseline, err := chatls.NewTask(ctx, design, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline:   WNS %7.3f  CPS %7.3f  area %9.1f\n",
		baseline.WNS, baseline.CPS, baseline.Area)

	// 3. Customize with the full pipeline: CircuitMentor analysis ->
	//    SynthRAG retrieval -> generation -> SynthExpert CoT refinement.
	pipeline := chatls.NewChatLS(llm.New(llm.GPT4o, 1), db)
	cres, err := pipeline.CustomizeResult(ctx, task, 0)
	if err != nil {
		log.Fatal(err)
	}
	script := cres.Script
	fmt.Println("\ncustomized script:")
	fmt.Println(script)

	// 4. Run the customized script through the synthesis simulator.
	sess := synth.NewSession(lib)
	sess.AddSource(design.FileName, design.Source)
	res, err := sess.Run(script)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("customized: WNS %7.3f  CPS %7.3f  area %9.1f\n",
		res.QoR.WNS, res.QoR.CPS, res.QoR.Area)
	if res.QoR.WNS >= 0 && baseline.WNS < 0 {
		fmt.Println("\ntiming closed: the pipeline picked fanout buffering for the router's broadcast nets.")
	}
}
