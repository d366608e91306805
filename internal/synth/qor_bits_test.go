package synth

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/designs"
)

var updateQoRBits = flag.Bool("update", false, "rewrite testdata/qor_bits.golden from this run instead of comparing against it")

// TestQoRFloatBits pins the exact bits of every field of the QoR a
// storeless run returns, for the seven benchmarks, after three scripts: the
// baseline script's commands up to its compile, the whole baseline script,
// and those commands with compile_ultra -retime in place of its compile. The
// experiment goldens print QoR rounded, so a change that moves only the low
// bits of a sum passes them and fails here: TNS added in the order the timer
// left the endpoints rather than the sorted one moves the linked ethmac and
// jpeg rows. -update rewrites the golden, only for a change meant to move
// QoR.
func TestQoRFloatBits(t *testing.T) {
	var b strings.Builder
	for _, d := range designs.Benchmarks() {
		baseline := d.BaselineScript()
		cut := strings.Index(baseline, "compile -map_effort")
		if cut < 0 {
			t.Fatalf("%s: baseline script has no compile line", d.Name)
		}
		for _, sc := range []struct{ name, script string }{
			{"linked", baseline[:cut]},
			{"baseline", baseline},
			{"retime", baseline[:cut] + "compile_ultra -retime\nreport_qor\n"},
		} {
			q := *mustRun(t, designSession(d, nil), sc.script).QoR
			fmt.Fprintf(&b, "%s %s", q.Design, sc.name)
			for _, f := range []struct {
				name string
				v    float64
			}{{"period", q.Period}, {"wns", q.WNS}, {"cps", q.CPS}, {"tns", q.TNS}, {"area", q.Area}, {"leakage", q.Leakage}} {
				fmt.Fprintf(&b, " %s=%016x", f.name, math.Float64bits(f.v))
			}
			fmt.Fprintf(&b, " cells=%d seq=%d violations=%d\n", q.Cells, q.Seq, q.Violations)
		}
	}

	const golden = "testdata/qor_bits.golden"
	if *updateQoRBits {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("QoR bits differ from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
