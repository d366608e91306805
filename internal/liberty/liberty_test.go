package liberty

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNangate45Contents(t *testing.T) {
	l := Nangate45()
	if l.Name != "nangate45_sim" {
		t.Errorf("name = %q", l.Name)
	}
	for _, name := range []string{"INV_X1", "NAND2_X2", "XOR2_X1", "DFF_X1", "DFFR_X2", "BUF_X16", "MUX2_X2", "TIE0_X1"} {
		if l.Cell(name) == nil {
			t.Errorf("missing cell %s", name)
		}
	}
	if l.Cell("NONEXISTENT") != nil {
		t.Error("Cell should return nil for unknown name")
	}
	// Every combinational kind with inputs must have at least one cell.
	for kind, n := range KindInputs {
		if n > 0 && len(l.OfKind(kind)) == 0 {
			t.Errorf("no cells of kind %s", kind)
		}
	}
	if wl := l.WireLoad("5K_heavy_1k"); wl == nil || wl.Name != "5K_heavy_1k" {
		t.Error("missing 5K_heavy_1k wireload")
	}
	if wl := l.WireLoad("no_such_model"); wl == nil || wl.Name != "5K_heavy_1k" {
		t.Error("unknown wireload should fall back to default")
	}
}

func TestDriveOrdering(t *testing.T) {
	l := Nangate45()
	for _, kind := range []Kind{KindInv, KindBuf, KindNand2, KindXor2, KindDFF} {
		cells := l.OfKind(kind)
		for i := 1; i < len(cells); i++ {
			prev, cur := cells[i-1], cells[i]
			if cur.Drive <= prev.Drive {
				t.Errorf("%s: drives not ascending: %s then %s", kind, prev.Name, cur.Name)
			}
			if cur.DriveRes >= prev.DriveRes {
				t.Errorf("%s: stronger cell %s should have lower drive resistance", kind, cur.Name)
			}
			if cur.Area <= prev.Area {
				t.Errorf("%s: stronger cell %s should be larger", kind, cur.Name)
			}
			if cur.InputCap <= prev.InputCap {
				t.Errorf("%s: stronger cell %s should present more input cap", kind, cur.Name)
			}
		}
	}
}

func TestUpsizeDownsize(t *testing.T) {
	l := Nangate45()
	inv1 := l.Cell("INV_X1")
	inv2 := l.Upsize(inv1)
	if inv2 == nil || inv2.Name != "INV_X2" {
		t.Fatalf("Upsize(INV_X1) = %v, want INV_X2", inv2)
	}
	if back := l.Downsize(inv2); back == nil || back.Name != "INV_X1" {
		t.Errorf("Downsize(INV_X2) = %v, want INV_X1", back)
	}
	if l.Downsize(inv1) != nil {
		t.Error("Downsize of weakest should be nil")
	}
	if top := l.Strongest(KindInv); l.Upsize(top) != nil {
		t.Error("Upsize of strongest should be nil")
	}
	if l.Weakest(KindInv).Name != "INV_X1" {
		t.Error("Weakest(INV) != INV_X1")
	}
	if l.Weakest("BOGUS") != nil || l.Strongest("BOGUS") != nil {
		t.Error("Weakest/Strongest of unknown kind should be nil")
	}
}

func TestDelayModel(t *testing.T) {
	l := Nangate45()
	inv := l.Cell("INV_X1")
	d0 := inv.Delay(0)
	d1 := inv.Delay(0.01)
	if d0 != inv.Intrinsic {
		t.Errorf("Delay(0) = %g, want intrinsic %g", d0, inv.Intrinsic)
	}
	if d1 <= d0 {
		t.Error("delay must increase with load")
	}
	// A stronger inverter must be faster under the same heavy load.
	inv4 := l.Cell("INV_X4")
	if inv4.Delay(0.02) >= inv.Delay(0.02) {
		t.Error("INV_X4 should beat INV_X1 under load")
	}
	ff := l.Cell("DFF_X1")
	if ff.Delay(0.001) < ff.ClkToQ {
		t.Error("sequential delay must include clk-to-q")
	}
}

func TestWireLoadCap(t *testing.T) {
	wl := Nangate45().WireLoad("5K_heavy_1k")
	if got := wl.Cap(0); got != 0 {
		t.Errorf("Cap(0) = %g, want 0", got)
	}
	prev := 0.0
	for fo := 1; fo <= 20; fo++ {
		c := wl.Cap(fo)
		if c <= prev {
			t.Errorf("wire cap must be strictly increasing, Cap(%d)=%g Cap(%d)=%g", fo-1, prev, fo, c)
		}
		prev = c
	}
	// Extrapolation beyond the table uses the slope.
	n := len(wl.Table)
	want := wl.Table[n-1] + wl.Slope*2
	if got := wl.Cap(n + 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cap(%d) = %g, want %g", n+2, got, want)
	}
	var nilWL *WireLoad
	if nilWL.Cap(5) != 0 {
		t.Error("nil wireload should have zero cap")
	}
}

func TestHeavierWireloadIsSlower(t *testing.T) {
	l := Nangate45()
	heavy, medium, light := l.WireLoad("5K_heavy_1k"), l.WireLoad("5K_medium_1k"), l.WireLoad("5K_light_1k")
	for fo := 1; fo <= 12; fo++ {
		if !(heavy.Cap(fo) > medium.Cap(fo) && medium.Cap(fo) > light.Cap(fo)) {
			t.Errorf("wireload ordering violated at fanout %d", fo)
		}
	}
}

func TestAddCellDuplicate(t *testing.T) {
	l := NewLibrary("x")
	c := &Cell{Name: "A", Kind: KindInv, Drive: 1}
	if err := l.AddCell(c); err != nil {
		t.Fatal(err)
	}
	if err := l.AddCell(&Cell{Name: "A", Kind: KindInv, Drive: 2}); err == nil {
		t.Error("duplicate AddCell should fail")
	}
}

// TestBuildNangate45 proves the static builder cannot fail, which is what
// lets Nangate45() discard the error.
func TestBuildNangate45(t *testing.T) {
	l, err := BuildNangate45()
	if err != nil {
		t.Fatalf("BuildNangate45: %v", err)
	}
	if len(l.Cells()) == 0 {
		t.Fatal("built library has no cells")
	}
	if l.DefaultWL != "5K_heavy_1k" {
		t.Fatalf("DefaultWL = %q", l.DefaultWL)
	}
}

// Property: for every cell, delay is monotone nondecreasing in load.
func TestDelayMonotoneProperty(t *testing.T) {
	l := Nangate45()
	cells := l.Cells()
	f := func(idx uint, a, b float64) bool {
		c := cells[idx%uint(len(cells))]
		la, lb := math.Abs(a), math.Abs(b)
		if la > lb {
			la, lb = lb, la
		}
		return c.Delay(la) <= c.Delay(lb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: wireload cap is monotone in fanout for all models.
func TestWireLoadMonotoneProperty(t *testing.T) {
	l := Nangate45()
	f := func(fo uint8, which uint8) bool {
		names := []string{"5K_heavy_1k", "5K_medium_1k", "5K_light_1k"}
		wl := l.WireLoad(names[int(which)%3])
		n := int(fo)%64 + 1
		return wl.Cap(n+1) > wl.Cap(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The fingerprint is the library's identity in every content-keyed cache
// (checkpoints, QoR log): equal for equal content whatever the
// pointer, different as soon as one timing parameter is.
func TestFingerprintIsContentIdentity(t *testing.T) {
	base := Nangate45().Fingerprint()
	if len(base) != 32 {
		t.Fatalf("fingerprint is %d bytes, want a SHA-256", len(base))
	}
	if Nangate45().Fingerprint() != base {
		t.Error("two Nangate45() instances fingerprint differently")
	}
	for name, edit := range map[string]func(*Library){
		"name":           func(l *Library) { l.Name += "x" },
		"default wl":     func(l *Library) { l.DefaultWL = "5K_light_1k" },
		"cell intrinsic": func(l *Library) { l.Cell("NAND2_X1").Intrinsic += 1e-6 },
		"cell drive res": func(l *Library) { l.Cell("INV_X4").DriveRes *= 1.001 },
		"cell setup":     func(l *Library) { l.Cell("DFF_X1").Setup += 1e-6 },
		"wl table":       func(l *Library) { l.WireLoads["5K_heavy_1k"].Table[3] += 1e-6 },
		"wl slope":       func(l *Library) { l.WireLoads["5K_heavy_1k"].Slope += 1e-6 },
		"wl res":         func(l *Library) { l.WireLoads["5K_medium_1k"].Res += 1e-6 },
	} {
		l := Nangate45()
		edit(l)
		if l.Fingerprint() == base {
			t.Errorf("fingerprint ignores a changed %s", name)
		}
	}
}

// Fingerprint is computed once per library: goroutines racing on the first
// call all get one value, the content identity a fresh Nangate45 has, and a
// later call hashes nothing.
func TestFingerprintOnce(t *testing.T) {
	want := Nangate45().Fingerprint()
	l := Nangate45()
	const n = 8
	got := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = l.Fingerprint()
		}()
	}
	close(start)
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: fingerprint %x, want %x", i, fp, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Fingerprint() }); allocs != 0 {
		t.Errorf("a later Fingerprint call makes %v allocs, want 0", allocs)
	}
}
