package chatls

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/verilog"
)

// frontEndCorpus is every design whose front end the pipeline reads from a
// snapshot: the seven benchmarks a request names and the eleven corpus
// designs the expert-draft sweep synthesizes.
func frontEndCorpus(t *testing.T) []*designs.Design {
	t.Helper()
	all := append(designs.Benchmarks(), designs.DatabaseDesigns()...)
	all = append(all, designs.DatabaseVariants()...)
	if testing.Short() {
		return all[:3]
	}
	return all
}

// sameAnalysis compares two analyses field for field, the floats by their
// bits.
func sameAnalysis(a, b *circuitmentor.Analysis) bool {
	return reflect.DeepEqual(a, b) &&
		math.Float64bits(a.ImbalanceRatio) == math.Float64bits(b.ImbalanceRatio) &&
		math.Float64bits(a.XorFrac) == math.Float64bits(b.XorFrac)
}

// TestFrontEndFromSnapshotMatchesSource is the oracle for the snapshot as the
// one front-end artefact: what the mentor and embedding stages read from the
// post-link snapshot a task's baseline run left in the store is what they
// derive from the source text — the analysis field for field, the circuit
// graph node for node — and a task whose snapshot has been evicted gets the
// same through the parse-and-elaborate path.
func TestFrontEndFromSnapshotMatchesSource(t *testing.T) {
	ctx := context.Background()
	for _, d := range frontEndCorpus(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			store := synth.NewCheckpointStore(1)
			task, _, err := NewTaskWith(ctx, d, testLib, store)
			if err != nil {
				t.Fatal(err)
			}

			want, err := circuitmentor.AnalyzeNetlist(elaborated(t, d), d.Period)
			if err != nil {
				t.Fatal(err)
			}
			reads, elabs := circuitmentor.Stats().SnapshotReads, netlist.Elaborations()
			got, err := circuitmentor.AnalyzeSnapshotContext(ctx, task.Snapshot, d.Source, d.Top, d.Period, testLib)
			if err != nil {
				t.Fatal(err)
			}
			if circuitmentor.Stats().SnapshotReads != reads+1 || netlist.Elaborations() != elabs {
				t.Error("the analysis did not read the snapshot")
			}
			if !sameAnalysis(got, want) {
				t.Errorf("analysis from the snapshot\n got %+v\nwant %+v", got, want)
			}

			wantGraph, err := circuitmentor.BuildGraph(d.Source, d.Top)
			if err != nil {
				t.Fatal(err)
			}
			file, ok := task.Snapshot.File(d.Source, d.Top)
			if !ok {
				t.Fatal("the store does not hold the snapshot the task names")
			}
			gotGraph, err := circuitmentor.BuildGraphFromFile(file, d.Top)
			if err != nil {
				t.Fatal(err)
			}
			if gotGraph.Top != wantGraph.Top || !reflect.DeepEqual(gotGraph.Modules, wantGraph.Modules) || !reflect.DeepEqual(gotGraph.G, wantGraph.G) {
				t.Error("graph over the snapshot's parsed file differs from BuildGraph over the source")
			}

			// Another design through the one-entry store evicts the snapshot;
			// the handle then finds nothing and the analysis elaborates.
			other := designs.RiscV32i()
			if d.Name == other.Name {
				other = designs.DynamicNode()
			}
			otherTask, _, err := NewTaskWith(ctx, other, testLib, store)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := task.Snapshot.File(d.Source, d.Top); ok {
				t.Fatal("snapshot still readable after its eviction")
			}
			reads, elabs = circuitmentor.Stats().SnapshotReads, netlist.Elaborations()
			evicted, err := circuitmentor.AnalyzeSnapshotContext(ctx, task.Snapshot, d.Source, d.Top, d.Period, testLib)
			if err != nil {
				t.Fatal(err)
			}
			if circuitmentor.Stats().SnapshotReads != reads || netlist.Elaborations() != elabs+1 {
				t.Error("the analysis of an evicted snapshot did not elaborate the source")
			}
			if !sameAnalysis(evicted, want) {
				t.Errorf("analysis after eviction\n got %+v\nwant %+v", evicted, want)
			}

			// A handle is for one source under one top.
			if _, ok := otherTask.Snapshot.File(d.Source, d.Top); ok {
				t.Error("a snapshot answered for a design it is not the elaboration of")
			}
		})
	}
}

// elaborated parses and elaborates d the way circuitmentor.Analyze does.
func elaborated(t *testing.T, d *designs.Design) *netlist.Netlist {
	t.Helper()
	file, err := verilog.Parse(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Elaborate(file, d.Top, nil, testLib)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestFrontEndRunsOncePerDesign pins the counts: building the default
// database elaborates nothing — every expert entry comes from the checked-in
// table — and parses once per corpus graph (a build that sweeps adds one
// elaboration and one parse per expert-entry design: TestSweepFrontEndCounts
// in internal/synthrag); a first chatls request then elaborates and parses its
// design once (not once each for the baseline, the analysis and the graph).
// The cold pass is sequential, so the serving store never needs a second
// workspace: the analysis borrows the one the samples restore into.
func TestFrontEndRunsOncePerDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full database")
	}
	ctx := context.Background()
	elabs, parses := netlist.Elaborations(), verilog.Parses()
	built, err := BuildDatabase(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, swept := built.ExpertDrafts(); swept != 0 {
		t.Fatalf("database build swept %d expert-entry designs, want 0 (all from the table)", swept)
	}
	corpus, indexOnly := len(built.Strategies), len(designs.TrainingVariants())
	if got := netlist.Elaborations() - elabs; got != 0 {
		t.Errorf("database build: %d elaborations, want 0", got)
	}
	if got, want := verilog.Parses()-parses, uint64(corpus+indexOnly); got != want {
		t.Errorf("database build: %d parses, want %d (one per corpus graph)", got, want)
	}

	requested := designs.Benchmarks()
	elabs, parses = netlist.Elaborations(), verilog.Parses()
	store, err := coldPass(ctx, built, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := netlist.Elaborations()-elabs, uint64(len(requested)); got != want {
		t.Errorf("cold pass: %d elaborations, want %d (one per requested design)", got, want)
	}
	if got, want := verilog.Parses()-parses, uint64(len(requested)); got != want {
		t.Errorf("cold pass: %d parses, want %d (one per requested design)", got, want)
	}
	if got := store.Stats().Allocated; got != 1 {
		t.Errorf("cold pass: the serving store allocated %d workspaces, want 1", got)
	}
}
