package chatls

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/synth"
	"repro/internal/work"
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

			want, err := circuitmentor.AnalyzeContext(ctx, d.Source, d.Top, d.Period, testLib)
			if err != nil {
				t.Fatal(err)
			}
			var read work.Counts
			got, err := circuitmentor.AnalyzeSnapshotContext(work.With(ctx, &read), task.Snapshot, d.Source, d.Top, d.Period, testLib)
			if err != nil {
				t.Fatal(err)
			}
			if read.Get(work.SnapshotReads) != 1 || read.Get(work.Elaborations) != 0 || read.Get(work.Parses) != 0 {
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
			var fresh work.Counts
			evicted, err := circuitmentor.AnalyzeSnapshotContext(work.With(ctx, &fresh), task.Snapshot, d.Source, d.Top, d.Period, testLib)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Get(work.SnapshotReads) != 0 || fresh.Get(work.Elaborations) != 1 || fresh.Get(work.Parses) != 1 {
				t.Error("the analysis of an evicted snapshot did not parse and elaborate the source")
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

// TestFrontEndRunsOncePerDesign pins the counts of a cold pass over the
// default database (what building it costs is TestTableBuildFrontEndCounts
// and TestSweepFrontEndCounts in internal/synthrag): a first chatls request
// elaborates and parses its design once (not once each for the baseline, the
// analysis and the graph).
// The cold pass is sequential, so the serving store never needs a second
// workspace: each design's baseline captures its snapshot borrowing the one
// workspace's Timing and scratch, the analysis thaws the snapshot into it, and
// the sample restores into it and uses that unedited thaw as it is — three
// acquisitions and one thaw a design.
func TestFrontEndRunsOncePerDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full database")
	}
	built, err := BuildDatabase(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	requested := designs.Benchmarks()
	var c work.Counts
	store, err := coldPass(work.With(context.Background(), &c), built, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Get(work.Elaborations), int64(len(requested)); got != want {
		t.Errorf("cold pass: %d elaborations, want %d (one per requested design)", got, want)
	}
	if got, want := c.Get(work.Parses), int64(len(requested)); got != want {
		t.Errorf("cold pass: %d parses, want %d (one per requested design)", got, want)
	}
	if misses, reads := c.Get(work.MentorMisses), c.Get(work.SnapshotReads); misses != int64(len(requested)) || reads != misses {
		t.Errorf("cold pass: %d analyses computed, %d of them on the snapshot, want %d and all", misses, reads, len(requested))
	}
	st := store.Stats()
	if st.Allocated != 1 {
		t.Errorf("cold pass: the serving store allocated %d workspaces, want 1", st.Allocated)
	}
	if got, want := st.Allocated+st.Reused, int64(3*len(requested)); got != want {
		t.Errorf("cold pass: %d workspace acquisitions, want %d (a capture, a snapshot read and a restore a design)", got, want)
	}
	if got, want := st.Thaws, int64(len(requested)); got != want {
		t.Errorf("cold pass: %d thaws, want %d (the analysis read's; the sample reuses it)", got, want)
	}
}
