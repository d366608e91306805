package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	chatls "repro"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this run instead of comparing against them")

// TestAllGolden pins `experiments -all` — every table, figure and study of
// EXPERIMENTS.md, at the default seed, over a shared checkpoint store as the
// command runs it — byte for byte. A change that claims to leave results
// alone (a faster timer, a new cache) proves it here; a change that means to
// move them reruns with
//
//	go test ./cmd/experiments -run TestAllGolden -update
//
// and the diff of the golden is the review.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the SynthRAG database and runs every experiment")
	}
	const golden = "testdata/all.golden"
	cfg := chatls.DefaultConfig()
	cfg.Workers = 1
	cfg.Checkpoints = synth.NewCheckpointStore(0)
	var got bytes.Buffer
	if err := run(context.Background(), &got, cfg, selection{all: true}); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiments -all differs from %s (%d bytes, want %d); run with -update and review the diff if the change is meant\n%s",
			golden, got.Len(), len(want), firstDifference(got.Bytes(), want))
	}
}

// firstDifference shows the first line the two outputs disagree on.
func firstDifference(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return "one output is a prefix of the other"
}
