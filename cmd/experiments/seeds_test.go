package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	chatls "repro"
	"repro/internal/synth"
)

// firstSeed..lastSeed is the fixed seed set the paper's shape is tallied over. It does not
// move: a seed set picked after the fact could hide the seeds a claim fails
// at.
const firstSeed, lastSeed = 1, 20

// seedRun is what one seed's Table III and ablation sweeps returned.
type seedRun struct {
	table3    []chatls.Table3Row
	ablations []chatls.AblationRow
}

// TestSeedTallies pins the paper's shape over seeds 1–20 instead of one draw:
// for every seed it builds the database and runs Table III and the ablations
// as `experiments -table 3 -seed s` and `-ablation -seed s` do, then tallies,
// per cell, how often ChatLS is ahead of, behind or tied with its reference —
// the better raw model in Table III, each ablated variant in the ablations —
// comparing WNS, then CPS as the tables print them (validity is not
// compared), and the worst and median count of valid samples. checkShape
// asserts the paper's shape over them; testdata/seeds.golden holds the
// tallies, regenerate it with
//
//	go test ./cmd/experiments -run TestSeedTallies -update
//
// and review the diff.
func TestSeedTallies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the SynthRAG database and runs Table III and the ablations at 20 seeds")
	}
	const golden = "testdata/seeds.golden"
	// The seeds run one after another: on one core this test leaves the
	// others that go test runs beside it the rest of the machine.
	var runs []seedRun
	for seed := int64(firstSeed); seed <= lastSeed; seed++ {
		runs = append(runs, runSeed(t, seed))
	}
	tl := tallyRuns(runs)
	checkShape(t, tl, len(runs))
	got := []byte(formatTallies(tl))
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the seed tallies differ from %s; run with -update and review the diff if the change is meant\n%s",
			golden, firstDifference(got, want))
	}
}

// runSeed runs one seed the way the command does: its own database and
// checkpoint store, the serial Pass@k protocol.
func runSeed(t *testing.T, seed int64) seedRun {
	t.Helper()
	cfg := chatls.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = 1
	cfg.Checkpoints = synth.NewCheckpointStore(0)
	db, err := chatls.BuildDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var r seedRun
	if r.table3, err = chatls.Table3(ctx, cfg, db); err != nil {
		t.Fatal(err)
	}
	if r.ablations, err = chatls.Ablations(ctx, cfg, db); err != nil {
		t.Fatal(err)
	}
	return r
}

// compareTiming orders a against b by WNS, then CPS, each read at the two
// decimals the tables print, so a difference no table shows is a tie: +1
// when a is ahead, -1 when it is behind, 0 on a tie.
func compareTiming(a, b synth.QoR) int {
	if c := cmp.Compare(printed(a.WNS), printed(b.WNS)); c != 0 {
		return c
	}
	return cmp.Compare(printed(a.CPS), printed(b.CPS))
}

// printed is x as a table prints it, in nanoseconds to two decimals.
func printed(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 2, 64), 64)
	return v
}

// tally is one cell's comparison over the seed set.
type tally struct{ ahead, behind, tie int }

func (t *tally) add(order int) {
	switch order {
	case 1:
		t.ahead++
	case -1:
		t.behind++
	default:
		t.tie++
	}
}

func (t *tally) String() string { return fmt.Sprintf("%d/%d/%d", t.ahead, t.behind, t.tie) }

// validity is the worst and the median valid count, "worst/median".
func validity(counts []int) string {
	v := slices.Clone(counts)
	slices.Sort(v)
	n := len(v)
	median := float64(v[n/2])
	if n%2 == 0 {
		median = float64(v[n/2-1]+v[n/2]) / 2
	}
	return fmt.Sprintf("%d/%g", v[0], median)
}

// tallies are the comparisons over the seed set: Table III's ChatLS cell
// against the better raw model, with every model's valid counts, and each
// ablated variant against the full pipeline, with the variant's valid counts.
type tallies struct {
	designs      []string
	vsRaw        map[string]*tally
	valid        map[string]map[string][]int // design -> model -> counts
	cells        []ablationCell
	vsFull       map[ablationCell]*tally
	variantValid map[ablationCell][]int
}

type ablationCell struct{ variant, design string }

func tallyRuns(runs []seedRun) tallies {
	tl := tallies{
		vsRaw: map[string]*tally{}, valid: map[string]map[string][]int{},
		vsFull: map[ablationCell]*tally{}, variantValid: map[ablationCell][]int{},
	}
	for _, r := range runs {
		for _, row := range r.table3 {
			if tl.vsRaw[row.Design] == nil {
				tl.designs = append(tl.designs, row.Design)
				tl.vsRaw[row.Design], tl.valid[row.Design] = &tally{}, map[string][]int{}
			}
			gpt, claude, full := row.Cells[0], row.Cells[1], row.Cells[2]
			raw := gpt
			if compareTiming(claude.QoR, gpt.QoR) > 0 {
				raw = claude
			}
			tl.vsRaw[row.Design].add(compareTiming(full.QoR, raw.QoR))
			for _, c := range row.Cells {
				tl.valid[row.Design][c.Model] = append(tl.valid[row.Design][c.Model], c.Valid)
			}
		}
		full := map[string]synth.QoR{}
		for _, row := range r.ablations {
			if row.Variant == "chatls" {
				full[row.Design] = row.QoR
			}
		}
		for _, row := range r.ablations {
			c := ablationCell{row.Variant, row.Design}
			if tl.vsFull[c] == nil {
				tl.cells = append(tl.cells, c)
				tl.vsFull[c] = &tally{}
			}
			tl.vsFull[c].add(compareTiming(full[row.Design], row.QoR))
			tl.variantValid[c] = append(tl.variantValid[c], row.Valid)
		}
	}
	return tl
}

// formatTallies renders the tallies.
func formatTallies(tl tallies) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Paper shape over seeds %d-%d: ahead/behind/tie by WNS, then CPS; valid samples worst/median of 5\n\n", firstSeed, lastSeed)
	b.WriteString("TABLE III  chatls against the better raw model; valid samples of each model\n")
	line := func(cols ...string) {
		l := fmt.Sprintf("%-14s %-10s", cols[0], cols[1])
		for _, c := range cols[2:] {
			l += fmt.Sprintf(" %-22s", c)
		}
		b.WriteString(strings.TrimRight(l, " ") + "\n")
	}
	line(append([]string{"Design", "a/b/t"}, chatls.Table3Models...)...)
	for _, d := range tl.designs {
		cols := []string{d, tl.vsRaw[d].String()}
		for _, m := range chatls.Table3Models {
			cols = append(cols, validity(tl.valid[d][m]))
		}
		line(cols...)
	}

	b.WriteString("\nABLATIONS  the full pipeline against each variant; valid samples of the variant\n")
	fmt.Fprintf(&b, "%-10s %-14s %-10s %s\n", "Variant", "Design", "a/b/t", "valid")
	for _, c := range tl.cells {
		abt := tl.vsFull[c].String()
		if c.variant == "chatls" {
			abt = "-"
		}
		fmt.Fprintf(&b, "%-10s %-14s %-10s %s\n", c.variant, c.design, abt, validity(tl.variantValid[c]))
	}
	return b.String()
}

// checkShape asserts the shapes EXPERIMENTS.md states in prose, as tallies
// over the seed set. −SynthRAG's tally is recorded in the golden and not
// asserted: over these seeds it is ahead as often as behind.
func checkShape(t *testing.T, tl tallies, seeds int) {
	t.Helper()
	for _, d := range []string{"aes", "riscv32i", "swerv"} {
		if got := tl.vsRaw[d]; got == nil || got.ahead != seeds {
			t.Errorf("Table III %s: ChatLS against the better raw model %v (ahead/behind/tie) over %d seeds, want ahead at every seed", d, got, seeds)
		}
	}
	for _, d := range tl.designs {
		if behind := tl.vsRaw[d].behind; 2*behind >= seeds {
			t.Errorf("Table III %s: ChatLS behind at %d of %d seeds, want fewer than half", d, behind, seeds)
		}
		if worst := slices.Min(tl.valid[d]["chatls"]); worst != 5 {
			t.Errorf("Table III %s: ChatLS's worst validity %d/5, want 5/5", d, worst)
		}
	}
	noExpert := 0
	for _, c := range tl.cells {
		if c.variant != "no-expert" {
			continue
		}
		noExpert++
		if worst := slices.Min(tl.variantValid[c]); worst >= 5 {
			t.Errorf("-SynthExpert on %s: worst validity %d/5, want below 5/5", c.design, worst)
		}
	}
	if noExpert == 0 {
		t.Error("no -SynthExpert ablation rows")
	}
	for _, c := range []ablationCell{{"no-mentor", "tinyRocket"}, {"raw", "aes"}} {
		if got := tl.vsFull[c]; got == nil || got.ahead != seeds {
			t.Errorf("ablation %s on %s: the full pipeline against it %v (ahead/behind/tie) over %d seeds, want ahead at every seed", c.variant, c.design, got, seeds)
		}
	}
}
