package synthrag

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"go/format"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/synth"
	"repro/internal/work"
)

var update = flag.Bool("update", false, "rewrite expert_drafts.go from a fresh sweep instead of comparing against it")

const (
	draftsFile  = "expert_drafts.go"
	regenerate  = "go test ./internal/synthrag -run TestExpertDraftsCurrent -update"
	draftHeader = `// Code generated by "` + regenerate + `"; DO NOT EDIT.

package synthrag

import "repro/internal/synth"

// expertDrafts is the palette sweep's answer for the shipped expert corpus
// under the shipped library: one row per design, keyed by draftKey, holding
// the winning plan's palette name and the QoR it achieved, every float in
// exact round-trip form. Build reads a design's row instead of sweeping it;
// TestExpertDraftsCurrent sweeps every design and holds this table to the
// result, bit for bit.
var expertDrafts = map[string]paletteResult{
`
)

// draftRow is one row of the table as a sweep computed it.
type draftRow struct {
	design, key string
	best        paletteResult
}

// goFloat writes v as a Go constant that compiles back to the same bits.
func goFloat(v float64) (string, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) || (v == 0 && math.Signbit(v)) {
		return "", fmt.Errorf("%v has no Go constant with its bits", v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64), nil
}

// renderDrafts writes the table source for rows, in design-name order, every
// synth.QoR field by name.
func renderDrafts(rows []draftRow) ([]byte, error) {
	rows = append([]draftRow(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].design < rows[j].design })
	var b bytes.Buffer
	b.WriteString(draftHeader)
	for _, r := range rows {
		fmt.Fprintf(&b, "%q: { // %s\nname: %q,\nqor: synth.QoR{\n", r.key, r.design, r.best.name)
		q := reflect.ValueOf(r.best.qor)
		for i := 0; i < q.NumField(); i++ {
			var lit string
			switch f := q.Field(i); f.Kind() {
			case reflect.String:
				lit = strconv.Quote(f.String())
			case reflect.Int:
				lit = strconv.FormatInt(f.Int(), 10)
			case reflect.Float64:
				var err error
				if lit, err = goFloat(f.Float()); err != nil {
					return nil, fmt.Errorf("%s: QoR.%s: %v", r.design, q.Type().Field(i).Name, err)
				}
			default:
				return nil, fmt.Errorf("QoR.%s: no literal for a %s", q.Type().Field(i).Name, f.Kind())
			}
			fmt.Fprintf(&b, "%s: %s,\n", q.Type().Field(i).Name, lit)
		}
		b.WriteString("},\n},\n")
	}
	b.WriteString("}\n")
	return format.Source(b.Bytes())
}

// sameDraft compares two sweep answers, every QoR float by its bits.
func sameDraft(a, b paletteResult) bool {
	return a.name == b.name && fmt.Sprintf("%#v", a.qor) == fmt.Sprintf("%#v", b.qor)
}

// TestExpertDraftsCurrent sweeps every design of the shipped expert corpus
// under the shipped library — the build with no table — and holds the
// checked-in table to it bit for bit: a row for every design's key and no
// other, the same winning plan, the same QoR. A change to the code a sweep
// runs that moves any result fails here; when the change is meant to, -update
// (make drafts) rewrites the table.
func TestExpertDraftsCurrent(t *testing.T) {
	lib := liberty.Nangate45()
	corpus := buildCorpus()
	db, err := build(context.Background(), BuildConfig{Seed: 7, Lib: lib}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if from, swept := db.ExpertDrafts(); from != 0 || swept != len(corpus) {
		t.Fatalf("build without a table: %d from the table, %d swept, want 0 and %d", from, swept, len(corpus))
	}
	fp, names := lib.Fingerprint(), paletteNames()
	rows := make([]draftRow, len(corpus))
	for i, d := range corpus {
		rec := db.Strategies[d.Name]
		rows[i] = draftRow{d.Name, draftKey(fp, names, d), paletteResult{rec.Strategy, rec.QoR}}
	}
	src, err := renderDrafts(rows)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(draftsFile, src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", draftsFile, len(rows))
		return
	}

	if len(expertDrafts) != len(rows) {
		t.Errorf("the table has %d rows, the corpus %d designs; regenerate with %s", len(expertDrafts), len(rows), regenerate)
	}
	for _, r := range rows {
		got, ok := expertDrafts[r.key]
		switch {
		case !ok:
			t.Errorf("%s: no row for its key; regenerate with %s", r.design, regenerate)
		case !sameDraft(got, r.best):
			t.Errorf("%s: the table holds %s %+v, a fresh sweep %s %+v; regenerate with %s",
				r.design, got.name, got.qor, r.best.name, r.best.qor, regenerate)
		}
	}
	if onDisk, err := os.ReadFile(draftsFile); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(onDisk, src) {
		t.Errorf("%s is not what a fresh sweep writes; regenerate with %s", draftsFile, regenerate)
	}
}

// TestExpertDraftsMiss: a row answers only for the inputs it was swept under.
// A library with one cell's area changed misses every row; a design with one
// added comment line misses its own row only. Each missed design gets a fresh
// sweep's record, every other design the table's.
func TestExpertDraftsMiss(t *testing.T) {
	names := paletteNames()
	check := func(t *testing.T, lib *liberty.Library, corpus []*designs.Design, missed map[string]bool) {
		t.Helper()
		db, err := Build(BuildConfig{Seed: 7, Lib: lib, Designs: corpus, IndexOnly: []*designs.Design{}})
		if err != nil {
			t.Fatal(err)
		}
		if from, swept := db.ExpertDrafts(); from != len(corpus)-len(missed) || swept != len(missed) {
			t.Errorf("%d from the table, %d swept, want %d and %d", from, swept, len(corpus)-len(missed), len(missed))
		}
		fp := lib.Fingerprint()
		for _, d := range corpus {
			want, ok := expertDrafts[draftKey(fp, names, d)]
			if ok == missed[d.Name] {
				t.Errorf("%s: key in the table %v, want %v", d.Name, ok, !missed[d.Name])
			}
			if !ok {
				if want, err = bestStrategy(context.Background(), d, lib, names); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
			}
			rec := db.Strategies[d.Name]
			if got := (paletteResult{rec.Strategy, rec.QoR}); !sameDraft(got, want) {
				t.Errorf("%s: record %s %+v, want %s %+v", d.Name, got.name, got.qor, want.name, want.qor)
			}
		}
	}

	t.Run("library", func(t *testing.T) {
		lib := liberty.Nangate45()
		lib.Cell("NAND2_X1").Area += 0.01
		corpus := buildCorpus()
		missed := make(map[string]bool, len(corpus))
		for _, d := range corpus {
			missed[d.Name] = true
		}
		check(t, lib, corpus, missed)
	})
	t.Run("design", func(t *testing.T) {
		corpus := buildCorpus()
		edited := *corpus[3]
		edited.Source += "// one added comment line\n"
		corpus[3] = &edited
		check(t, liberty.Nangate45(), corpus, map[string]bool{edited.Name: true})
	})
}

// TestRecordsOwnTheirPlans: a record's plan is its own. Editing every record
// of one database edits neither StrategyPalette — whose plan lines every
// build's draft keys are over — nor the next database's records.
func TestRecordsOwnTheirPlans(t *testing.T) {
	saved := make(map[string][]string, len(StrategyPalette))
	for name, plan := range StrategyPalette {
		saved[name] = append([]string(nil), plan...)
	}
	t.Cleanup(func() { StrategyPalette = saved })

	cfg := BuildConfig{Seed: 7, IndexOnly: []*designs.Design{}}
	first, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range first.Strategies {
		rec.Plan[0] = "edited"
		rec.QoR.WNS = 99
	}
	if !reflect.DeepEqual(StrategyPalette, saved) {
		t.Fatal("editing a record's plan edited StrategyPalette")
	}

	second, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, swept := second.ExpertDrafts(); swept != 0 {
		t.Errorf("the second build swept %d designs, want 0", swept)
	}
	fp, names := liberty.Nangate45().Fingerprint(), paletteNames()
	for _, d := range buildCorpus() {
		rec := second.Strategies[d.Name]
		if !reflect.DeepEqual(rec.Plan, saved[rec.Strategy]) {
			t.Errorf("%s: plan %q, the palette's %s is %q", d.Name, rec.Plan, rec.Strategy, saved[rec.Strategy])
		}
		if want := expertDrafts[draftKey(fp, names, d)]; !sameDraft(paletteResult{rec.Strategy, rec.QoR}, want) {
			t.Errorf("%s: QoR %+v, the table's %+v", d.Name, rec.QoR, want.qor)
		}
	}
}

// TestBestStrategyKeepsTheCause: when no plan runs, the sweep's error names
// the first plan and wraps its error.
func TestBestStrategyKeepsTheCause(t *testing.T) {
	lib, names := liberty.Nangate45(), paletteNames()
	d := *designs.DatabaseDesigns()[0]
	d.Source = "module broken(input a;\n"
	_, err := bestStrategy(context.Background(), &d, lib, names)
	if err == nil {
		t.Fatal("a design that does not parse swept without error")
	}
	sess := synth.NewSession(lib)
	sess.AddSource(d.FileName, d.Source)
	_, cause := sess.RunContext(context.Background(), sweepScript(&d, StrategyPalette[names[0]]))
	if cause == nil {
		t.Fatal("the first plan ran")
	}
	if !strings.Contains(err.Error(), names[0]+": "+cause.Error()) {
		t.Errorf("error %q does not carry the first plan's (%s: %v)", err, names[0], cause)
	}
	if inner := errors.Unwrap(err); inner == nil || errors.Unwrap(inner) == nil {
		t.Errorf("error %q does not wrap the first plan's", err)
	}
}

// TestSweepFrontEndCounts pins the front-end work of a build that sweeps
// every expert-entry design: each is elaborated once (not once per palette
// plan) and parsed once for its sweep, beside one parse per corpus graph.
func TestSweepFrontEndCounts(t *testing.T) {
	t.Parallel()
	var c work.Counts
	db, err := build(work.With(context.Background(), &c), BuildConfig{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus, indexOnly := len(db.Strategies), len(designs.TrainingVariants())
	if got, want := c.Get(work.Elaborations), int64(corpus); got != want {
		t.Errorf("%d elaborations, want %d (one per expert-entry design)", got, want)
	}
	if got, want := c.Get(work.Parses), int64(corpus+indexOnly+corpus); got != want {
		t.Errorf("%d parses, want %d (one per corpus graph, one per sweep)", got, want)
	}
}

// TestTableBuildFrontEndCounts: a build from the checked-in expert-draft
// table sweeps no design, so it elaborates nothing and parses once per
// corpus graph.
func TestTableBuildFrontEndCounts(t *testing.T) {
	t.Parallel()
	var c work.Counts
	db, err := build(work.With(context.Background(), &c), BuildConfig{Seed: 7}, expertDrafts)
	if err != nil {
		t.Fatal(err)
	}
	if _, swept := db.ExpertDrafts(); swept != 0 {
		t.Fatalf("build swept %d expert-entry designs, want 0 (all from the table)", swept)
	}
	corpus, indexOnly := len(db.Strategies), len(designs.TrainingVariants())
	if got := c.Get(work.Elaborations); got != 0 {
		t.Errorf("%d elaborations, want 0", got)
	}
	if got, want := c.Get(work.Parses), int64(corpus+indexOnly); got != want {
		t.Errorf("%d parses, want %d (one per corpus graph)", got, want)
	}
}

// BenchmarkExpertSweep is the computing path the expert-draft table replaces
// at every start: one op sweeps each of the eleven expert-entry designs under
// the eight palette plans (88 synthesis runs), serially.
func BenchmarkExpertSweep(b *testing.B) {
	lib, names, corpus := liberty.Nangate45(), paletteNames(), buildCorpus()
	for i := 0; i < b.N; i++ {
		for _, d := range corpus {
			if _, err := bestStrategy(context.Background(), d, lib, names); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(corpus)*len(names)), "runs/op")
}
