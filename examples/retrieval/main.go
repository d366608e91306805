// Retrieval: SynthRAG in isolation — the three retrieval modalities of the
// paper's TABLE I exercised directly.
//
//	go run ./examples/retrieval
//
// A fresh SoC configuration (not in the database) queries: (1) strategy
// retrieval by graph embedding with the Eq. 5 rerank, (2) module-code
// retrieval by direct Cypher query, (3) manual retrieval by text embedding
// with the LLM as reranker.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/synthrag"
)

func main() {
	ctx := context.Background()
	fmt.Println("building SynthRAG database (with expert-draft synthesis)...")
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 9, TrainEpochs: 40})
	if err != nil {
		log.Fatal(err)
	}

	// A new SoC that is not in the database.
	soc := designs.SoC(designs.RandomSoCConfig("demo", rand.New(rand.NewSource(9))))
	fmt.Printf("\nquery design: %s (components: %d)\n", soc.Name, strings.Count(soc.Source, "endmodule"))

	// Modality 1: graph-embedding retrieval with rerank (Eq. 4 + Eq. 5).
	emb, dg, err := db.EmbedDesignContext(ctx, soc.Source, soc.Top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n[1] strategy retrieval (graph embedding, alpha=0.7 beta=0.3):")
	hits, err := db.RetrieveStrategiesForContext(ctx, emb, nil, 3, 0.7, 0.3, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("  %-14s sim %.3f  quality %.2f  strategy %-8s plan: %s\n",
			h.Record.Design, h.Sim, h.Record.Quality, h.Record.Strategy,
			strings.Join(h.Record.Plan, "; "))
	}

	// Per-module retrieval: which corpus modules resemble each SoC module?
	fmt.Println("\n    per-module nearest neighbours:")
	embs := db.EmbedModulesOf(dg)
	for mi, m := range dg.Modules {
		if designs.ModuleCategory(m.Name) == "" {
			continue
		}
		hits := db.RetrieveModules(embs[mi], 3)
		var names []string
		for _, h := range hits {
			names = append(names, fmt.Sprintf("%s/%s(%.2f)", h.Record.Design, h.Record.Module, h.Sim))
		}
		fmt.Printf("    %-16s -> %s\n", m.Name, strings.Join(names, ", "))
	}

	// Modality 2: graph-structure retrieval via Cypher.
	fmt.Println("\n[2] module code by Cypher (direct query):")
	code, err := db.ModuleCode("rocket", "cpu_alu_rocket")
	if err != nil {
		log.Fatal(err)
	}
	firstLine := strings.SplitN(code, "\n", 2)[0]
	fmt.Printf("  MATCH (m:Module {name:'cpu_alu_rocket', design:'rocket'}) RETURN m.code\n  -> %s ...\n", firstLine)

	cell, err := db.CellInfo("DFF_X1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  MATCH (c:Cell {name:'DFF_X1'}) RETURN ...\n  -> %v\n", cell)

	// Modality 3: manual retrieval with the LLM as reranker.
	fmt.Println("\n[3] manual retrieval (text embedding + LLM rerank):")
	model := llm.New(llm.GPT4o, 9)
	for _, query := range []string{
		"my critical path has a register placed after three rounds of logic",
		"one net drives sixty loads and dominates the path delay",
	} {
		hits, err := db.SearchManualContext(ctx, query, 2, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  q: %s\n", query)
		for _, h := range hits {
			fmt.Printf("     -> %-24s (%.3f) %s\n", h.Doc.ID, h.Score, h.Doc.Title)
		}
	}
}
