package netlist_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/elab_digest.golden from this run instead of comparing against it")

// digestDesigns is the elaboration digest's input: the seven benchmarks, the
// Table II corpus with its variants, and ten SoCs drawn from a fixed seed.
func digestDesigns() []*designs.Design {
	ds := append(designs.Benchmarks(), designs.DatabaseDesigns()...)
	ds = append(ds, designs.DatabaseVariants()...)
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 10; i++ {
		ds = append(ds, designs.SoC(designs.RandomSoCConfig(fmt.Sprintf("d%d", i), rng)))
	}
	return ds
}

// TestElaborationDigest pins what Elaborate builds — every column, name,
// ID bound and edit generation of its frozen image — to a checked-in digest
// per design.
func TestElaborationDigest(t *testing.T) {
	const golden = "testdata/elab_digest.golden"
	var got strings.Builder
	for _, d := range digestDesigns() {
		f, err := verilog.Parse(d.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", d.Name, err)
		}
		nl, err := netlist.Elaborate(f, d.Top, nil, liberty.Nangate45())
		if err != nil {
			t.Fatalf("%s: elaborate: %v", d.Name, err)
		}
		h := sha256.New()
		netlist.DigestImage(h, netlist.Freeze(nl))
		fmt.Fprintf(&got, "%s %x\n", d.Name, h.Sum(nil))
	}
	if *updateDigest {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(want)))
	for sc.Scan() {
		name, sum, _ := strings.Cut(sc.Text(), " ")
		wantLines[name] = sum
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		if wantLines[name] != sum {
			t.Errorf("%s: digest %s, want %s", name, sum, wantLines[name])
		}
	}
	if len(wantLines) != strings.Count(got.String(), "\n") {
		t.Errorf("%d designs digested, golden has %d", strings.Count(got.String(), "\n"), len(wantLines))
	}
}
