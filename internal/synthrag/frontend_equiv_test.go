package synthrag

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
)

// buildCorpus is the default expert corpus: the designs Build synthesizes
// under the palette when BuildConfig names none.
func buildCorpus() []*designs.Design {
	return append(designs.DatabaseDesigns(), designs.DatabaseVariants()...)
}

// TestBuildMatchesStorelessSweep: the database built (with no expert-draft
// table) with each design's sweep sharing one checkpoint store and running without its report tail is the
// database the storeless sweep builds — the chosen plan and every QoR bit of
// every expert entry — at one worker and at two, and the three indexes do not
// depend on the worker count either. Run under -race this also exercises two
// sweeps, each with its own store, side by side.
func TestBuildMatchesStorelessSweep(t *testing.T) {
	lib := liberty.Nangate45()
	mk := func(workers int) *Database {
		t.Helper()
		db, err := build(BuildConfig{Seed: 7, TrainEpochs: 2, Lib: lib, Workers: workers}, nil)
		if err != nil {
			t.Fatalf("build (workers=%d): %v", workers, err)
		}
		return db
	}
	one, two := mk(1), mk(2)

	names := paletteNames()
	corpus := buildCorpus()
	if len(one.Strategies) != len(corpus) {
		t.Fatalf("%d expert entries, want %d", len(one.Strategies), len(corpus))
	}
	for _, d := range corpus {
		want, err := storelessBestStrategy(d, lib, names)
		if err != nil {
			t.Fatalf("%s: storeless sweep: %v", d.Name, err)
		}
		for workers, db := range map[int]*Database{1: one, 2: two} {
			rec := db.Strategies[d.Name]
			if rec == nil {
				t.Fatalf("%s: no expert entry (workers=%d)", d.Name, workers)
			}
			if rec.Strategy != want.name || !reflect.DeepEqual(rec.Plan, StrategyPalette[want.name]) {
				t.Errorf("%s (workers=%d): strategy %q, storeless sweep chose %q", d.Name, workers, rec.Strategy, want.name)
			}
			if rec.QoR != want.qor {
				t.Errorf("%s (workers=%d): QoR %+v, storeless sweep got %+v", d.Name, workers, rec.QoR, want.qor)
			}
			if rec.Quality != quality(want.qor) {
				t.Errorf("%s (workers=%d): quality %v, want %v", d.Name, workers, rec.Quality, quality(want.qor))
			}
		}
	}
	if !reflect.DeepEqual(one.Strategies, two.Strategies) {
		t.Error("strategy records differ between one and two workers")
	}
	for _, ix := range []struct {
		name     string
		one, two any
	}{
		{"global embedding index", one.globalIndex, two.globalIndex},
		{"module embedding index", one.moduleIndex, two.moduleIndex},
		{"manual index", one.manualIndex, two.manualIndex},
		{"module records", one.modules, two.modules},
	} {
		if !reflect.DeepEqual(ix.one, ix.two) {
			t.Errorf("%s differs between one and two workers", ix.name)
		}
	}
}

// heapAfterGC is the live heap once everything unreachable has been collected
// (two cycles: the first moves sync.Pool contents to the victim cache, the
// second drops them).
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestSweepLeavesNothingBehind pins the lifetime the build's checkpoint stores
// must have: once Build has returned, the live heap is what a build whose
// sweep never had a store leaves — the database. A sweep store that outlived
// Build (its images, or the workspace it parked) is what raised the daemon's
// peak RSS when this was first tried: eleven designs' images and workspaces
// read 15 MiB here, against a margin of one.
func TestSweepLeavesNothingBehind(t *testing.T) {
	lib := liberty.Nangate45()
	cfg := BuildConfig{Seed: 7, TrainEpochs: 2, Lib: lib, Workers: 1}

	// The reference: the same database, its expert entries filled in by the
	// storeless sweep.
	base := heapAfterGC()
	refCfg := cfg
	refCfg.SkipSynth = true
	ref, err := Build(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	names := paletteNames()
	for _, d := range buildCorpus() {
		best, err := storelessBestStrategy(d, lib, names)
		if err != nil {
			t.Fatal(err)
		}
		rec := ref.Strategies[d.Name]
		rec.Strategy, rec.Plan, rec.QoR, rec.Quality = best.name, StrategyPalette[best.name], best.qor, quality(best.qor)
	}
	refHeap := heapAfterGC() - base
	runtime.KeepAlive(ref)
	ref = nil

	base = heapAfterGC()
	db, err := build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	heap := heapAfterGC() - base
	runtime.KeepAlive(db)

	const margin = 1 << 20
	t.Logf("live heap after build: %d KiB with sweep stores, %d KiB storeless", heap>>10, refHeap>>10)
	if heap > refHeap+margin {
		t.Errorf("build left %d KiB reachable, the storeless build %d KiB: something of a sweep outlived Build", heap>>10, refHeap>>10)
	}
}
