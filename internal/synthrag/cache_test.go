package synthrag

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/synth"
)

// TestRetrieveKeyFramesBoundaries: distinct requests sharing a byte prefix
// must produce distinct keys. The historical hazards: a trait containing NUL
// aliasing a split trait list, and a query float aliasing 8 bytes of trait
// text across the query/traits boundary.
func TestRetrieveKeyFramesBoundaries(t *testing.T) {
	type req struct {
		query  []float64
		traits []string
	}
	pairs := [][2]req{
		// One trait with an embedded NUL vs two traits.
		{{nil, []string{"a\x00b"}}, {nil, []string{"a", "b"}}},
		// Query/trait boundary: a float's 8 bytes vs the same bytes as trait text.
		{{[]float64{0}, []string{"x"}}, {nil, []string{"\x00\x00\x00\x00\x00\x00\x00\x00x"}}},
		{{[]float64{1, 2}, nil}, {[]float64{1}, []string{string(make([]byte, 8))}}},
		// Empty trailing trait vs no trailing trait.
		{{nil, []string{"a", ""}}, {nil, []string{"a"}}},
	}
	for _, p := range pairs {
		a := retrieveKey(p[0].query, p[0].traits, 5, 0.7, 0.3, 0.25)
		b := retrieveKey(p[1].query, p[1].traits, 5, 0.7, 0.3, 0.25)
		if a == b {
			t.Errorf("retrieveKey(%v,%q) == retrieveKey(%v,%q)", p[0].query, p[0].traits, p[1].query, p[1].traits)
		}
	}
	if retrieveKey([]float64{1}, []string{"t"}, 5, 0.7, 0.3, 0.25) !=
		retrieveKey([]float64{1}, []string{"t"}, 5, 0.7, 0.3, 0.25) {
		t.Error("identical requests must produce identical keys")
	}
	if retrieveKey([]float64{1}, []string{"t"}, 5, 0.7, 0.3, 0.25) ==
		retrieveKey([]float64{1}, []string{"t"}, 6, 0.7, 0.3, 0.25) {
		t.Error("k must participate in the key")
	}
}

// TestEmbeddingKeptOnSnapshot: the embedding a database computes for a
// design is kept on the design's snapshot under that database — a second
// database, a copy included, computes its own — and equals the one computed
// from the source text; callers get copies, and an evicted snapshot
// recomputes the same vector and keeps nothing.
func TestEmbeddingKeptOnSnapshot(t *testing.T) {
	db := buildQuick(t, 0)
	other := *db
	d := designs.RiscV32i()
	lib := liberty.Nangate45()
	store := synth.NewCheckpointStore(1)
	task := func(d *designs.Design) synth.Snapshot {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Evaluate(context.Background(), "read_verilog "+d.FileName+"\ncurrent_design "+d.Top+"\nlink\n")
		if err != nil {
			t.Fatal(err)
		}
		return res.Snapshot
	}
	snap := task(d)
	want, _, err := db.EmbedDesign(d.Source, d.Top)
	if err != nil {
		t.Fatal(err)
	}
	embed := func(db *Database, snap synth.Snapshot, wantHit bool) {
		t.Helper()
		before := db.CacheStats()
		got, err := db.EmbedSnapshotContext(context.Background(), snap, d.Source, d.Top)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("the embedding differs from the source text's")
		}
		after := db.CacheStats()
		if hit := after.EmbedHits == before.EmbedHits+1 && after.EmbedMisses == before.EmbedMisses; hit != wantHit {
			t.Errorf("counters %+v -> %+v, want hit=%v", before, after, wantHit)
		}
		got[0] = math.NaN() // the caller's own copy
	}
	embed(db, snap, false)
	embed(db, snap, true)
	embed(&other, snap, false)
	embed(&other, snap, true)
	embed(db, synth.Snapshot{}, false)
	task(designs.DynamicNode()) // the one-entry store evicts the snapshot
	embed(db, snap, false)
	embed(db, snap, false)
}
