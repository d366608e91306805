package synth

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/designs"
)

// reverseModules returns src with its module declarations in reverse order.
// Lines outside every module — blanks, comments — stay in front. It also
// returns how many modules it moved.
func reverseModules(src string) (string, int) {
	var outside strings.Builder
	var modules []string
	var cur strings.Builder
	in := false
	for _, line := range strings.SplitAfter(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if !in && strings.HasPrefix(trimmed, "module ") {
			in = true
		}
		if !in {
			outside.WriteString(line)
			continue
		}
		cur.WriteString(line)
		if trimmed == "endmodule" {
			modules = append(modules, strings.TrimSuffix(cur.String(), "\n")+"\n")
			cur.Reset()
			in = false
		}
	}
	for i := len(modules) - 1; i >= 0; i-- {
		outside.WriteString(modules[i])
	}
	return outside.String(), len(modules)
}

var compileLine = regexp.MustCompile(`(?m)^compile .*$`)

// TestModuleOrderLeavesQoR: the order in which a source declares its modules
// is not part of the design. Reversing it in each benchmark design leaves the
// QoR of the baseline script, and of the same script compiling with
// compile_ultra -retime, bit-identical — run storeless, and three times
// through a checkpoint store holding the post-link snapshot of that source,
// which note, capture and then serve the compile.
func TestModuleOrderLeavesQoR(t *testing.T) {
	for _, d := range designs.Benchmarks() {
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			reversed, n := reverseModules(d.Source)
			if n < 2 || reversed == d.Source || len(reversed) != len(d.Source) {
				t.Fatalf("reversing %d modules left %d of %d bytes, changed %v", n, len(reversed), len(d.Source), reversed != d.Source)
			}
			baseline := d.BaselineScript()
			retime := compileLine.ReplaceAllString(baseline, "compile_ultra -retime")
			if retime == baseline {
				t.Fatal("the baseline script has no compile line")
			}
			want := map[string]string{} // script -> the declared order's QoR
			for _, src := range []string{d.Source, reversed} {
				v := *d
				v.Source = src
				store := NewCheckpointStore(0)
				mustRun(t, designSession(&v, store), linkOnly(&v))
				for _, script := range []string{baseline, retime} {
					q := fmt.Sprintf("%v", *mustRun(t, designSession(&v, nil), script).QoR)
					if _, ok := want[script]; !ok {
						want[script] = q
					} else if q != want[script] {
						t.Errorf("storeless, reversed modules: QoR %s, want %s\n%s", q, want[script], script)
					}
					before := store.Stats()
					for pass := 1; pass <= 3; pass++ {
						res, err := designSession(&v, store).Evaluate(context.Background(), script)
						if err != nil {
							t.Fatal(err)
						}
						if q := fmt.Sprintf("%v", *res.QoR); q != want[script] {
							t.Errorf("run %d through a store, reversed %v: QoR %s, want %s\n%s", pass, src != d.Source, q, want[script], script)
						}
					}
					if hits, _, _ := derivedDelta(before, store.Stats()); hits != 1 {
						t.Errorf("reversed %v: %d derived hits, want 1: the third run was not served\n%s", src != d.Source, hits, script)
					}
				}
			}
		})
	}
}
