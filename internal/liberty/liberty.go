// Package liberty models the standard-cell target library used by the
// synthesis simulator: cells with area, pin capacitance, a linear delay model
// (intrinsic + drive-resistance x load), leakage, sequential timing
// parameters, and wireload models. The one library the flow uses is the
// built-in Nangate45-like one, assembled in code by BuildNangate45: no input
// reaches the simulator as .lib text, so the package has no Liberty reader.
package liberty

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Kind identifies a cell's logic function.
type Kind string

// Supported cell functions. Combinational kinds list their input count in
// KindInputs; DFF/DFFR are the sequential elements.
const (
	KindInv   Kind = "INV"
	KindBuf   Kind = "BUF"
	KindNand2 Kind = "NAND2"
	KindNor2  Kind = "NOR2"
	KindAnd2  Kind = "AND2"
	KindOr2   Kind = "OR2"
	KindXor2  Kind = "XOR2"
	KindXnor2 Kind = "XNOR2"
	KindMux2  Kind = "MUX2"
	KindAoi21 Kind = "AOI21"
	KindOai21 Kind = "OAI21"
	KindNand3 Kind = "NAND3"
	KindNor3  Kind = "NOR3"
	KindAnd3  Kind = "AND3"
	KindOr3   Kind = "OR3"
	KindNand4 Kind = "NAND4"
	KindNor4  Kind = "NOR4"
	KindDFF   Kind = "DFF"
	KindDFFR  Kind = "DFFR" // DFF with asynchronous reset
	KindTie0  Kind = "TIE0" // constant driver
	KindTie1  Kind = "TIE1"
)

// KindInputs maps each kind to its number of logic inputs (excluding clock
// and reset pins on sequential cells).
var KindInputs = map[Kind]int{
	KindInv: 1, KindBuf: 1,
	KindNand2: 2, KindNor2: 2, KindAnd2: 2, KindOr2: 2,
	KindXor2: 2, KindXnor2: 2, KindMux2: 3,
	KindAoi21: 3, KindOai21: 3,
	KindNand3: 3, KindNor3: 3, KindAnd3: 3, KindOr3: 3,
	KindNand4: 4, KindNor4: 4,
	KindDFF: 1, KindDFFR: 1,
	KindTie0: 0, KindTie1: 0,
}

// IsSequential reports whether the kind is a flip-flop.
func (k Kind) IsSequential() bool { return k == KindDFF || k == KindDFFR }

// Cell is one library cell. Delay through the cell for an output load C (pF)
// is Intrinsic + DriveRes*C nanoseconds.
type Cell struct {
	Name      string
	Kind      Kind
	Drive     int     // drive strength: 1, 2, 4, 8...
	Area      float64 // um^2
	InputCap  float64 // pF per input pin
	Intrinsic float64 // ns
	DriveRes  float64 // ns per pF
	MaxCap    float64 // pF, maximum drivable load
	Leakage   float64 // nW
	Setup     float64 // ns, sequential only
	ClkToQ    float64 // ns, sequential only
}

// Delay returns the pin-to-pin delay driving load cap (pF).
func (c *Cell) Delay(loadCap float64) float64 {
	if c.Kind.IsSequential() {
		return c.ClkToQ + c.DriveRes*loadCap
	}
	return c.Intrinsic + c.DriveRes*loadCap
}

// Library is a set of cells plus wireload models. A library is built
// (NewLibrary and AddCell, or Nangate45, which finishes before it returns)
// and then only read: its Fingerprint is computed on first use and stored,
// so an edit made after that would go unseen by every cache keyed on it.
// Edit a library, if at all, before its first Fingerprint.
type Library struct {
	Name      string
	cells     map[string]*Cell
	byKind    map[Kind][]*Cell // sorted by ascending drive
	WireLoads map[string]*WireLoad
	DefaultWL string

	fpOnce sync.Once
	fp     string
}

// NewLibrary creates an empty library.
func NewLibrary(name string) *Library {
	return &Library{
		Name:      name,
		cells:     make(map[string]*Cell),
		byKind:    make(map[Kind][]*Cell),
		WireLoads: make(map[string]*WireLoad),
	}
}

// AddCell registers a cell. Duplicate names are an error.
func (l *Library) AddCell(c *Cell) error {
	if _, dup := l.cells[c.Name]; dup {
		return fmt.Errorf("library %s: duplicate cell %s", l.Name, c.Name)
	}
	l.cells[c.Name] = c
	l.byKind[c.Kind] = append(l.byKind[c.Kind], c)
	sort.Slice(l.byKind[c.Kind], func(i, j int) bool {
		return l.byKind[c.Kind][i].Drive < l.byKind[c.Kind][j].Drive
	})
	return nil
}

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// Cells returns all cells sorted by name.
func (l *Library) Cells() []*Cell {
	out := make([]*Cell, 0, len(l.cells))
	for _, c := range l.cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fingerprint identifies the library by content, not pointer: the name plus
// a SHA-256 digest of every cell's timing-relevant parameters and the
// wireload tables. Two libraries built the same way (e.g. two Nangate45()
// calls) fingerprint identically; a library differing in any delay model
// does not. Everything keyed on "the same library" uses it — elaboration
// checkpoints (and so what is kept on their snapshots) and the durable QoR
// log — so a library change invalidates them all. The digest is computed once per
// library, on the first call, and later calls return it; it is safe for
// concurrent use.
func (l *Library) Fingerprint() string {
	l.fpOnce.Do(func() { l.fp = l.fingerprint() })
	return l.fp
}

// fingerprint hashes the library's content: a sort of the cells and a few
// hundred small digest writes, which is why Fingerprint stores the result.
func (l *Library) fingerprint() string {
	h := sha256.New()
	hs := func(v string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
		h.Write(n[:])
		h.Write([]byte(v))
	}
	hf := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	hs(l.Name)
	hs(l.DefaultWL)
	for _, c := range l.Cells() { // sorted by name
		hs(c.Name)
		hs(string(c.Kind))
		hf(float64(c.Drive))
		hf(c.Area)
		hf(c.InputCap)
		hf(c.Intrinsic)
		hf(c.DriveRes)
		hf(c.MaxCap)
		hf(c.Leakage)
		hf(c.Setup)
		hf(c.ClkToQ)
	}
	wls := make([]string, 0, len(l.WireLoads))
	for name := range l.WireLoads {
		wls = append(wls, name)
	}
	sort.Strings(wls)
	for _, name := range wls {
		wl := l.WireLoads[name]
		hs(wl.Name)
		hf(wl.Res)
		hf(wl.Slope)
		for _, cap := range wl.Table {
			hf(cap)
		}
	}
	return string(h.Sum(nil))
}

// OfKind returns cells of a kind sorted by ascending drive strength.
func (l *Library) OfKind(k Kind) []*Cell { return l.byKind[k] }

// Weakest returns the lowest-drive cell of a kind, or nil.
func (l *Library) Weakest(k Kind) *Cell {
	cs := l.byKind[k]
	if len(cs) == 0 {
		return nil
	}
	return cs[0]
}

// Strongest returns the highest-drive cell of a kind, or nil.
func (l *Library) Strongest(k Kind) *Cell {
	cs := l.byKind[k]
	if len(cs) == 0 {
		return nil
	}
	return cs[len(cs)-1]
}

// Upsize returns the next stronger cell of the same kind, or nil if c is
// already the strongest.
func (l *Library) Upsize(c *Cell) *Cell {
	cs := l.byKind[c.Kind]
	for i, cand := range cs {
		if cand.Name == c.Name && i+1 < len(cs) {
			return cs[i+1]
		}
	}
	return nil
}

// Downsize returns the next weaker cell of the same kind, or nil.
func (l *Library) Downsize(c *Cell) *Cell {
	cs := l.byKind[c.Kind]
	for i, cand := range cs {
		if cand.Name == c.Name && i > 0 {
			return cs[i-1]
		}
	}
	return nil
}

// WireLoad returns the named wireload model, falling back to the default.
func (l *Library) WireLoad(name string) *WireLoad {
	if wl, ok := l.WireLoads[name]; ok {
		return wl
	}
	return l.WireLoads[l.DefaultWL]
}

// WireLoad estimates net parasitics from fanout, mirroring the
// wireload-model-based pre-layout estimation the paper's flow uses
// (5K_heavy_1k on Nangate45).
type WireLoad struct {
	Name  string
	Table []float64 // Table[i] = wire cap (pF) at fanout i+1
	Slope float64   // pF per additional fanout beyond the table
	Res   float64   // ns/pF equivalent wire resistance factor
}

// Cap returns the estimated wire capacitance (pF) for a net with the given
// fanout.
func (w *WireLoad) Cap(fanout int) float64 {
	if w == nil || fanout <= 0 {
		return 0
	}
	if fanout <= len(w.Table) {
		return w.Table[fanout-1]
	}
	return w.Table[len(w.Table)-1] + w.Slope*float64(fanout-len(w.Table))
}

// scale derives an X<drive> variant from X1 parameters: input capacitance and
// area grow with drive, drive resistance shrinks.
func scale(name string, kind Kind, drive int, area, cap1, intr, res1, leak float64) *Cell {
	d := float64(drive)
	return &Cell{
		Name:      fmt.Sprintf("%s_X%d", name, drive),
		Kind:      kind,
		Drive:     drive,
		Area:      area * (1 + 0.62*(d-1)),
		InputCap:  cap1 * (1 + 0.85*(d-1)),
		Intrinsic: intr * (1 + 0.06*(d-1)),
		DriveRes:  res1 / d,
		MaxCap:    0.060 * d,
		Leakage:   leak * d,
	}
}

// Nangate45 builds the built-in Nangate45-like library with the 5K_heavy_1k
// wireload model the paper uses, plus lighter alternatives. The cell set is
// static and collision-free (TestBuildNangate45 proves BuildNangate45 cannot
// fail on it), so this convenience form has no error to report.
func Nangate45() *Library {
	l, _ := BuildNangate45()
	return l
}

// BuildNangate45 is the error-returning builder behind Nangate45. Any
// AddCell failure propagates instead of panicking.
func BuildNangate45() (*Library, error) {
	l := NewLibrary("nangate45_sim")
	type proto struct {
		base   string
		kind   Kind
		drives []int
		area   float64 // X1 area, um^2 (close to Nangate45)
		cap1   float64 // X1 input cap, pF
		intr   float64 // X1 intrinsic delay, ns
		res1   float64 // X1 drive resistance, ns/pF
		leak   float64 // X1 leakage, nW
	}
	protos := []proto{
		{"INV", KindInv, []int{1, 2, 4, 8, 16}, 0.532, 0.0016, 0.008, 6.0, 1.5},
		{"BUF", KindBuf, []int{1, 2, 4, 8, 16}, 0.798, 0.0016, 0.022, 5.4, 1.8},
		{"NAND2", KindNand2, []int{1, 2, 4}, 0.798, 0.0016, 0.012, 7.4, 1.9},
		{"NOR2", KindNor2, []int{1, 2, 4}, 0.798, 0.0017, 0.014, 8.6, 2.0},
		{"AND2", KindAnd2, []int{1, 2, 4}, 1.064, 0.0015, 0.030, 6.6, 2.1},
		{"OR2", KindOr2, []int{1, 2, 4}, 1.064, 0.0015, 0.032, 6.9, 2.2},
		{"XOR2", KindXor2, []int{1, 2}, 1.596, 0.0030, 0.042, 8.8, 3.4},
		{"XNOR2", KindXnor2, []int{1, 2}, 1.596, 0.0030, 0.043, 8.9, 3.4},
		{"MUX2", KindMux2, []int{1, 2}, 1.862, 0.0022, 0.048, 8.2, 3.8},
		{"AOI21", KindAoi21, []int{1, 2}, 1.064, 0.0018, 0.020, 8.9, 2.3},
		{"OAI21", KindOai21, []int{1, 2}, 1.064, 0.0018, 0.021, 9.0, 2.3},
		{"NAND3", KindNand3, []int{1, 2}, 1.064, 0.0017, 0.018, 8.8, 2.3},
		{"NOR3", KindNor3, []int{1, 2}, 1.064, 0.0018, 0.022, 10.5, 2.4},
		{"AND3", KindAnd3, []int{1, 2}, 1.330, 0.0016, 0.038, 7.0, 2.6},
		{"OR3", KindOr3, []int{1, 2}, 1.330, 0.0016, 0.041, 7.4, 2.7},
		{"NAND4", KindNand4, []int{1, 2}, 1.330, 0.0018, 0.023, 10.0, 2.8},
		{"NOR4", KindNor4, []int{1, 2}, 1.330, 0.0019, 0.028, 12.4, 2.9},
	}
	for _, p := range protos {
		for _, d := range p.drives {
			if err := l.AddCell(scale(p.base, p.kind, d, p.area, p.cap1, p.intr, p.res1, p.leak)); err != nil {
				return l, err
			}
		}
	}
	for _, d := range []int{1, 2, 4} {
		ff := scale("DFF", KindDFF, d, 4.522, 0.0015, 0, 6.2, 8.5)
		ff.Setup = 0.055
		ff.ClkToQ = 0.085 * (1 + 0.05*(float64(d)-1))
		if err := l.AddCell(ff); err != nil {
			return l, err
		}
		ffr := scale("DFFR", KindDFFR, d, 5.054, 0.0015, 0, 6.4, 9.2)
		ffr.Setup = 0.058
		ffr.ClkToQ = 0.090 * (1 + 0.05*(float64(d)-1))
		if err := l.AddCell(ffr); err != nil {
			return l, err
		}
	}
	for _, tie := range []struct {
		name string
		kind Kind
	}{{"TIE0", KindTie0}, {"TIE1", KindTie1}} {
		if err := l.AddCell(&Cell{
			Name: tie.name + "_X1", Kind: tie.kind, Drive: 1,
			Area: 0.532, Intrinsic: 0, DriveRes: 4.0, MaxCap: 0.1, Leakage: 0.8,
		}); err != nil {
			return l, err
		}
	}

	// Wireload models. 5K_heavy_1k is the paper's choice: pessimistic wire
	// capacitance for ~5k-gate blocks. The lighter models are used by the
	// ablation benches.
	l.WireLoads["5K_heavy_1k"] = &WireLoad{
		Name:  "5K_heavy_1k",
		Table: []float64{0.0021, 0.0042, 0.0064, 0.0087, 0.0110, 0.0135, 0.0161, 0.0188},
		Slope: 0.0028,
		Res:   0.9,
	}
	l.WireLoads["5K_medium_1k"] = &WireLoad{
		Name:  "5K_medium_1k",
		Table: []float64{0.0013, 0.0026, 0.0040, 0.0054, 0.0069, 0.0085, 0.0101, 0.0118},
		Slope: 0.0018,
		Res:   0.6,
	}
	l.WireLoads["5K_light_1k"] = &WireLoad{
		Name:  "5K_light_1k",
		Table: []float64{0.0007, 0.0014, 0.0022, 0.0030, 0.0038, 0.0047, 0.0056, 0.0066},
		Slope: 0.0010,
		Res:   0.35,
	}
	l.DefaultWL = "5K_heavy_1k"
	return l, nil
}
