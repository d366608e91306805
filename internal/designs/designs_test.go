package designs

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/verilog"
)

func elaborate(t *testing.T, d *Design) *netlist.Netlist {
	t.Helper()
	f, err := verilog.Parse(d.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", d.Name, err)
	}
	nl, err := netlist.Elaborate(f, d.Top, nil, liberty.Nangate45())
	if err != nil {
		t.Fatalf("%s: elaborate: %v", d.Name, err)
	}
	if err := nl.Check(); err != nil {
		t.Fatalf("%s: check: %v", d.Name, err)
	}
	return nl
}

func TestBenchmarksElaborate(t *testing.T) {
	for _, d := range Benchmarks() {
		nl := elaborate(t, d)
		s := nl.Summary()
		if s.Cells < 200 {
			t.Errorf("%s: only %d cells; benchmark designs must be non-trivial", d.Name, s.Cells)
		}
		if nl.ClkNet == nil {
			t.Errorf("%s: no clock identified", d.Name)
		}
		if d.Period <= 0 {
			t.Errorf("%s: no evaluation period", d.Name)
		}
	}
}

func TestDatabaseDesignsElaborate(t *testing.T) {
	for _, d := range DatabaseDesigns() {
		nl := elaborate(t, d)
		if len(nl.Cells) < 50 {
			t.Errorf("%s: only %d cells", d.Name, len(nl.Cells))
		}
		if d.Category == "" {
			t.Errorf("%s: missing category", d.Name)
		}
	}
}

func TestBaselineScriptsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis of all benchmarks is slow")
	}
	for _, d := range Benchmarks() {
		sess := synth.NewSession(liberty.Nangate45())
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Run(d.BaselineScript())
		if err != nil {
			t.Fatalf("%s: baseline script failed: %v", d.Name, err)
		}
		if res.QoR == nil {
			t.Fatalf("%s: no QoR", d.Name)
		}
		t.Logf("%-14s WNS %8.3f CPS %8.3f TNS %9.2f area %10.2f cells %6d",
			d.Name, res.QoR.WNS, res.QoR.CPS, res.QoR.TNS, res.QoR.Area, res.QoR.Cells)
	}
}

func TestDesignTraits(t *testing.T) {
	checks := map[string]string{
		"aes":          TraitWideArith,
		"dynamic_node": TraitHighFanout,
		"ethmac":       TraitDeepSerial,
		"jpeg":         TraitHierOverhead,
		"riscv32i":     TraitBalanced,
		"swerv":        TraitBalanced,
		"tinyRocket":   TraitRegisterImbalance,
	}
	for name, trait := range checks {
		d := ByName(name)
		if d == nil {
			t.Fatalf("design %s missing", name)
		}
		if !d.HasTrait(trait) {
			t.Errorf("%s should carry trait %s", name, trait)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown design")
	}
}

func TestModuleCategory(t *testing.T) {
	cases := map[string]string{
		"cpu_rocket":    CatProcessor,
		"rv_alu":        CatProcessor,
		"mac_gemmini":   CatMLAccel,
		"pe_cell":       CatMLAccel,
		"lane_simd":     CatVector,
		"vec_simd":      CatVector,
		"bfly_fft":      CatDSP,
		"keccak_sha3":   CatCrypto,
		"uncategorized": "",
	}
	for mod, want := range cases {
		if got := ModuleCategory(mod); got != want {
			t.Errorf("ModuleCategory(%s) = %q, want %q", mod, got, want)
		}
	}
}

func TestSoCGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		cfg := RandomSoCConfig("t"+string(rune('a'+i)), rng)
		if cfg.Components() < 2 {
			t.Fatalf("config %d has %d components", i, cfg.Components())
		}
		d := SoC(cfg)
		nl := elaborate(t, d)
		if len(nl.Cells) < 100 {
			t.Errorf("soc %d: only %d cells", i, len(nl.Cells))
		}
		if len(cfg.Categories()) != cfg.Components() {
			t.Errorf("soc %d: categories/components mismatch", i)
		}
	}
}

func TestSoCDeterministicForConfig(t *testing.T) {
	cfg := SoCConfig{Name: "det", CoreWidth: 32, FFTStages: 2}
	a, b := SoC(cfg), SoC(cfg)
	if a.Source != b.Source {
		t.Error("same config must generate identical RTL")
	}
	if !strings.Contains(a.Source, "cpu_det") || !strings.Contains(a.Source, "fft_det") {
		t.Error("configured components missing from SoC source")
	}
	if strings.Contains(a.Source, "sha_det") {
		t.Error("unconfigured component present in SoC source")
	}
}

func TestBaselineScriptContent(t *testing.T) {
	for _, d := range Benchmarks() {
		s := d.BaselineScript()
		for _, want := range []string{"read_verilog " + d.FileName, "current_design " + d.Top, "create_clock", "5K_heavy_1k", "compile"} {
			if !strings.Contains(s, want) {
				t.Errorf("%s baseline script missing %q", d.Name, want)
			}
		}
		issues := synth.ValidateScript(s)
		for _, is := range issues {
			if is.Severity == "error" {
				t.Errorf("%s baseline script invalid: %v", d.Name, is)
			}
		}
	}
	if !strings.Contains(JPEG().BaselineScript(), "map_effort low") {
		t.Error("jpeg baseline must use low effort (the under-optimized adapted script)")
	}
}
