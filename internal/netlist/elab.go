package netlist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/liberty"
	"repro/internal/verilog"
)

// elaborations counts Elaborate calls; like sta's analysis counters it is a
// plain atomic, so the package stays free of a dependency on internal/metrics.
var elaborations atomic.Uint64

// Elaborations returns the number of elaborations started process-wide,
// surfaced by the serving daemon as netlist_elaborations_total.
func Elaborations() uint64 { return elaborations.Load() }

// Elaborate synthesizes a Verilog design into a flattened gate-level netlist
// on the target library: the "read_verilog + elaborate" step of the synthesis
// flow. Expressions become generic gates (mapped to the library's weakest
// drive cells, for the optimizer to size), always blocks become flip-flops
// with mux-based enable logic, and the module hierarchy is recorded on each
// cell as its optimization group.
func Elaborate(file *verilog.SourceFile, top string, overrides map[string]int64, lib *liberty.Library) (*Netlist, error) {
	elaborations.Add(1)
	m := file.FindModule(top)
	if m == nil {
		return nil, fmt.Errorf("top module %q not found", top)
	}
	el := &elab{
		file: file,
		nl:   New(top, lib),
		al:   newAliaser(),
	}
	params, err := el.resolveParams(m, overrides, nil)
	if err != nil {
		return nil, err
	}
	env := make(map[string]signal)
	for _, p := range m.Ports {
		w, _, err := verilog.RangeWidth(p.Range, params)
		if err != nil {
			return nil, fmt.Errorf("module %s port %s: %v", m.Name, p.Name, err)
		}
		bits := make([]*Net, w)
		for i := range bits {
			name := p.Name
			if w > 1 {
				name = intern.Bracket(p.Name, i)
			}
			n := el.nl.NewNet(name)
			bits[i] = n
			switch p.Dir {
			case verilog.DirInput:
				n.PI = true
			case verilog.DirOutput:
				n.PO = true
				el.nl.Outputs = append(el.nl.Outputs, n)
			default:
				return nil, fmt.Errorf("module %s port %s: inout not supported", m.Name, p.Name)
			}
		}
		env[p.Name] = signal{bits: bits}
	}
	if err := el.elabModule(m, params, env, "", 0); err != nil {
		return nil, err
	}
	if err := el.materialize(); err != nil {
		return nil, err
	}
	return el.nl, nil
}

// signal is a named bit vector within a module scope.
type signal struct {
	bits []*Net
	lsb  int
}

type elab struct {
	file *verilog.SourceFile
	nl   *Netlist
	al   *aliaser
}

// modScope is the per-module-instance elaboration context.
type modScope struct {
	m      *verilog.Module
	params map[string]int64
	env    map[string]signal
	b      *builder
	group  string
}

const maxDepth = 64

func (el *elab) resolveParams(m *verilog.Module, overrides map[string]int64, outer map[string]int64) (map[string]int64, error) {
	params := make(map[string]int64)
	for _, p := range m.Params {
		if v, ok := overrides[p.Name]; ok && !p.Local {
			params[p.Name] = v
			continue
		}
		v, err := verilog.ConstEval(p.Value, params)
		if err != nil {
			return nil, fmt.Errorf("module %s parameter %s: %v", m.Name, p.Name, err)
		}
		params[p.Name] = v
	}
	return params, nil
}

func (el *elab) elabModule(m *verilog.Module, params map[string]int64, env map[string]signal, group string, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("module %s: instantiation depth exceeds %d (recursive hierarchy?)", m.Name, maxDepth)
	}
	sc := &modScope{
		m:      m,
		params: params,
		env:    env,
		b:      newBuilder(el.nl, group, m.Name),
		group:  group,
	}

	// Pass 1: declare internal nets so assigns may reference them in any order.
	for _, item := range m.Items {
		decl, ok := item.(*verilog.NetDecl)
		if !ok {
			continue
		}
		w, lsb, err := verilog.RangeWidth(decl.Range, params)
		if err != nil {
			return fmt.Errorf("module %s: %v", m.Name, err)
		}
		for _, name := range decl.Names {
			if existing, ok := env[name]; ok {
				// Re-declaration of a port as reg/wire: widths must agree.
				if len(existing.bits) != w {
					return fmt.Errorf("module %s: %s redeclared with width %d (was %d)",
						m.Name, name, w, len(existing.bits))
				}
				continue
			}
			bits := make([]*Net, w)
			for i := range bits {
				bits[i] = el.nl.NewNet("")
			}
			env[name] = signal{bits: bits, lsb: lsb}
		}
	}

	// Pass 2: synthesize behaviour.
	for _, item := range m.Items {
		switch it := item.(type) {
		case *verilog.NetDecl:
			// handled in pass 1
		case *verilog.Assign:
			if err := el.elabAssign(sc, it); err != nil {
				return fmt.Errorf("module %s: %v", m.Name, err)
			}
		case *verilog.AlwaysFF:
			if err := el.elabAlways(sc, it); err != nil {
				return fmt.Errorf("module %s: %v", m.Name, err)
			}
		case *verilog.Instance:
			if err := el.elabInstance(sc, it, depth); err != nil {
				return err
			}
		case *verilog.GatePrim:
			if err := el.elabGate(sc, it); err != nil {
				return fmt.Errorf("module %s: %v", m.Name, err)
			}
		default:
			return fmt.Errorf("module %s: unsupported item %T", m.Name, item)
		}
	}
	return nil
}

func (el *elab) elabAssign(sc *modScope, a *verilog.Assign) error {
	tgt, err := el.lvalue(sc, a.LHS)
	if err != nil {
		return err
	}
	rhs, err := el.synth(sc, a.RHS, len(tgt))
	if err != nil {
		return err
	}
	rhs = sc.b.ext(rhs, len(tgt))
	for i := range tgt {
		if err := el.drive(sc, tgt[i], rhs[i]); err != nil {
			return fmt.Errorf("assign %s: %v", a.LHS.String(), err)
		}
	}
	return nil
}

// drive connects src as the logic behind dst. When dst is a primary output
// that would otherwise be shorted to a constant, a primary input, or another
// primary output, a tie cell or feedthrough buffer is inserted so every
// output port keeps its own net — the same port isolation a synthesis tool
// performs.
func (el *elab) drive(sc *modScope, dst, src *Net) error {
	d, s := el.al.find(dst), el.al.find(src)
	if d == s {
		return nil
	}
	if d.PI {
		return fmt.Errorf("cannot assign to primary input %s", d.Name)
	}
	if d.PO && (s.Const || s.PI || s.PO) {
		if s.Const {
			kind := liberty.KindTie0
			if s.Val {
				kind = liberty.KindTie1
			}
			if ref := el.nl.Lib.Weakest(kind); ref != nil {
				c, err := el.nl.AddCell(ref, sc.group, sc.m.Name)
				if err != nil {
					return err
				}
				return el.al.union(c.Output, d)
			}
		} else if ref := el.nl.Lib.Weakest(liberty.KindBuf); ref != nil {
			c, err := el.nl.AddCell(ref, sc.group, sc.m.Name, s)
			if err != nil {
				return err
			}
			return el.al.union(c.Output, d)
		}
	}
	return el.al.union(d, s)
}

// lvalue resolves an assignable expression to its target net slots, LSB first.
func (el *elab) lvalue(sc *modScope, e verilog.Expr) ([]*Net, error) {
	switch v := e.(type) {
	case *verilog.Ident:
		sig, ok := sc.env[v.Name]
		if !ok {
			return nil, fmt.Errorf("%s: unknown signal %q in lvalue", v.Pos, v.Name)
		}
		return sig.bits, nil
	case *verilog.Index:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: lvalue bit-select base must be an identifier", v.Pos)
		}
		sig, ok := sc.env[id.Name]
		if !ok {
			return nil, fmt.Errorf("%s: unknown signal %q", v.Pos, id.Name)
		}
		idx, err := verilog.ConstEval(v.I, sc.params)
		if err != nil {
			return nil, fmt.Errorf("%s: lvalue index must be constant: %v", v.Pos, err)
		}
		bit := int(idx) - sig.lsb
		if bit < 0 || bit >= len(sig.bits) {
			return nil, fmt.Errorf("%s: index %d out of range for %s", v.Pos, idx, id.Name)
		}
		return sig.bits[bit : bit+1], nil
	case *verilog.Slice:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: lvalue part-select base must be an identifier", v.Pos)
		}
		sig, ok := sc.env[id.Name]
		if !ok {
			return nil, fmt.Errorf("%s: unknown signal %q", v.Pos, id.Name)
		}
		msb, err := verilog.ConstEval(v.MSB, sc.params)
		if err != nil {
			return nil, err
		}
		lsb, err := verilog.ConstEval(v.LSB, sc.params)
		if err != nil {
			return nil, err
		}
		lo, hi := int(lsb)-sig.lsb, int(msb)-sig.lsb
		if lo < 0 || hi >= len(sig.bits) || lo > hi {
			return nil, fmt.Errorf("%s: part-select [%d:%d] out of range for %s", v.Pos, msb, lsb, id.Name)
		}
		return sig.bits[lo : hi+1], nil
	case *verilog.Concat:
		// Concatenation lists MSB first; result is LSB first.
		var bits []*Net
		for i := len(v.Parts) - 1; i >= 0; i-- {
			part, err := el.lvalue(sc, v.Parts[i])
			if err != nil {
				return nil, err
			}
			bits = append(bits, part...)
		}
		return bits, nil
	}
	return nil, fmt.Errorf("expression %s is not assignable", e.String())
}

// synth synthesizes an expression into gates, returning LSB-first bits.
// widthHint propagates the assignment context width into arithmetic.
func (el *elab) synth(sc *modScope, e verilog.Expr, widthHint int) ([]*Net, error) {
	b := sc.b
	switch v := e.(type) {
	case *verilog.Ident:
		if pval, ok := sc.params[v.Name]; ok {
			w := widthHint
			if w <= 0 {
				w = 32
			}
			return el.constBits(b, uint64(pval), w), nil
		}
		sig, ok := sc.env[v.Name]
		if !ok {
			return nil, fmt.Errorf("%s: unknown signal %q", v.Pos, v.Name)
		}
		return sig.bits, nil

	case *verilog.Number:
		w := v.Width
		if w == 0 {
			w = widthHint
		}
		if w <= 0 {
			w = 32
		}
		return el.constBits(b, v.Value, w), nil

	case *verilog.Unary:
		return el.synthUnary(sc, v, widthHint)

	case *verilog.Binary:
		return el.synthBinary(sc, v, widthHint)

	case *verilog.Ternary:
		condBits, err := el.synth(sc, v.Cond, 0)
		if err != nil {
			return nil, err
		}
		cond, err := b.boolVal(condBits)
		if err != nil {
			return nil, err
		}
		tb, err := el.synth(sc, v.T, widthHint)
		if err != nil {
			return nil, err
		}
		fb, err := el.synth(sc, v.F, widthHint)
		if err != nil {
			return nil, err
		}
		w := max(len(tb), len(fb))
		if widthHint > w {
			w = widthHint
		}
		tb, fb = b.ext(tb, w), b.ext(fb, w)
		out := make([]*Net, w)
		for i := 0; i < w; i++ {
			m, err := b.mux(cond, fb[i], tb[i])
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil

	case *verilog.Index:
		base, err := el.synth(sc, v.X, 0)
		if err != nil {
			return nil, err
		}
		lsbOff := el.lsbOffset(sc, v.X)
		if idx, err := verilog.ConstEval(v.I, sc.params); err == nil {
			bit := int(idx) - lsbOff
			if bit < 0 || bit >= len(base) {
				return nil, fmt.Errorf("%s: index %d out of range", v.Pos, idx)
			}
			return base[bit : bit+1], nil
		}
		// Variable index: shift right by index, take bit 0.
		amt, err := el.synth(sc, v.I, 0)
		if err != nil {
			return nil, err
		}
		shifted, err := b.barrel(base, amt, false)
		if err != nil {
			return nil, err
		}
		return shifted[:1], nil

	case *verilog.Slice:
		base, err := el.synth(sc, v.X, 0)
		if err != nil {
			return nil, err
		}
		lsbOff := el.lsbOffset(sc, v.X)
		msb, err := verilog.ConstEval(v.MSB, sc.params)
		if err != nil {
			return nil, fmt.Errorf("%s: part-select bounds must be constant: %v", v.Pos, err)
		}
		lsb, err := verilog.ConstEval(v.LSB, sc.params)
		if err != nil {
			return nil, fmt.Errorf("%s: part-select bounds must be constant: %v", v.Pos, err)
		}
		lo, hi := int(lsb)-lsbOff, int(msb)-lsbOff
		if lo < 0 || hi >= len(base) || lo > hi {
			return nil, fmt.Errorf("%s: part-select [%d:%d] out of range", v.Pos, msb, lsb)
		}
		return base[lo : hi+1], nil

	case *verilog.Concat:
		var bits []*Net
		for i := len(v.Parts) - 1; i >= 0; i-- {
			part, err := el.synth(sc, v.Parts[i], 0)
			if err != nil {
				return nil, err
			}
			bits = append(bits, part...)
		}
		return bits, nil

	case *verilog.Repl:
		n, err := verilog.ConstEval(v.N, sc.params)
		if err != nil {
			return nil, fmt.Errorf("%s: replication count must be constant: %v", v.Pos, err)
		}
		if n < 0 || n > 4096 {
			return nil, fmt.Errorf("%s: replication count %d out of range", v.Pos, n)
		}
		part, err := el.synth(sc, v.X, 0)
		if err != nil {
			return nil, err
		}
		var bits []*Net
		for i := int64(0); i < n; i++ {
			bits = append(bits, part...)
		}
		return bits, nil
	}
	return nil, fmt.Errorf("cannot synthesize expression %s", e.String())
}

// lsbOffset returns the declared LSB offset when indexing a plain signal.
func (el *elab) lsbOffset(sc *modScope, e verilog.Expr) int {
	if id, ok := e.(*verilog.Ident); ok {
		if sig, ok := sc.env[id.Name]; ok {
			return sig.lsb
		}
	}
	return 0
}

func (el *elab) constBits(b *builder, val uint64, w int) []*Net {
	bits := make([]*Net, w)
	for i := 0; i < w; i++ {
		bits[i] = b.constNet(val>>uint(i)&1 == 1)
	}
	return bits
}

func (el *elab) synthUnary(sc *modScope, v *verilog.Unary, widthHint int) ([]*Net, error) {
	b := sc.b
	x, err := el.synth(sc, v.X, widthHint)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "~":
		out := make([]*Net, len(x))
		for i, bit := range x {
			inv, err := b.inv(bit)
			if err != nil {
				return nil, err
			}
			out[i] = inv
		}
		return out, nil
	case "!":
		z, err := b.eqZero(x)
		if err != nil {
			return nil, err
		}
		return []*Net{z}, nil
	case "-":
		w := len(x)
		if widthHint > w {
			w = widthHint
			x = b.ext(x, w)
		}
		inv := make([]*Net, w)
		for i, bit := range x {
			n, err := b.inv(bit)
			if err != nil {
				return nil, err
			}
			inv[i] = n
		}
		zero := b.ext(nil, w)
		sum, _, err := b.adder(inv, zero, b.c1())
		if err != nil {
			return nil, err
		}
		return sum, nil
	case "&", "|", "^", "~&", "~|", "~^":
		var kind liberty.Kind
		invert := false
		switch v.Op {
		case "&":
			kind = liberty.KindAnd2
		case "|":
			kind = liberty.KindOr2
		case "^":
			kind = liberty.KindXor2
		case "~&":
			kind, invert = liberty.KindAnd2, true
		case "~|":
			kind, invert = liberty.KindOr2, true
		case "~^":
			kind, invert = liberty.KindXor2, true
		}
		r, err := b.reduce(kind, x)
		if err != nil {
			return nil, err
		}
		if invert {
			r, err = b.inv(r)
			if err != nil {
				return nil, err
			}
		}
		return []*Net{r}, nil
	}
	return nil, fmt.Errorf("%s: unsupported unary operator %q", v.Pos, v.Op)
}

func (el *elab) synthBinary(sc *modScope, v *verilog.Binary, widthHint int) ([]*Net, error) {
	b := sc.b
	switch v.Op {
	case "&", "|", "^", "~^", "^~":
		l, err := el.synth(sc, v.L, widthHint)
		if err != nil {
			return nil, err
		}
		r, err := el.synth(sc, v.R, widthHint)
		if err != nil {
			return nil, err
		}
		w := max(len(l), len(r))
		l, r = b.ext(l, w), b.ext(r, w)
		var kind liberty.Kind
		switch v.Op {
		case "&":
			kind = liberty.KindAnd2
		case "|":
			kind = liberty.KindOr2
		case "^":
			kind = liberty.KindXor2
		default:
			kind = liberty.KindXnor2
		}
		out := make([]*Net, w)
		for i := 0; i < w; i++ {
			g, err := b.gate2(kind, l[i], r[i])
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil

	case "&&", "||":
		l, err := el.synth(sc, v.L, 0)
		if err != nil {
			return nil, err
		}
		r, err := el.synth(sc, v.R, 0)
		if err != nil {
			return nil, err
		}
		lb, err := b.boolVal(l)
		if err != nil {
			return nil, err
		}
		rb, err := b.boolVal(r)
		if err != nil {
			return nil, err
		}
		kind := liberty.KindAnd2
		if v.Op == "||" {
			kind = liberty.KindOr2
		}
		g, err := b.gate2(kind, lb, rb)
		if err != nil {
			return nil, err
		}
		return []*Net{g}, nil

	case "==", "!=", "===", "!==":
		l, err := el.synth(sc, v.L, 0)
		if err != nil {
			return nil, err
		}
		r, err := el.synth(sc, v.R, 0)
		if err != nil {
			return nil, err
		}
		w := max(len(l), len(r))
		l, r = b.ext(l, w), b.ext(r, w)
		diffs := make([]*Net, w)
		for i := 0; i < w; i++ {
			d, err := b.gate2(liberty.KindXor2, l[i], r[i])
			if err != nil {
				return nil, err
			}
			diffs[i] = d
		}
		any, err := b.reduce(liberty.KindOr2, diffs)
		if err != nil {
			return nil, err
		}
		if v.Op == "!=" || v.Op == "!==" {
			return []*Net{any}, nil
		}
		eq, err := b.inv(any)
		if err != nil {
			return nil, err
		}
		return []*Net{eq}, nil

	case "<", "<=", ">", ">=":
		l, err := el.synth(sc, v.L, 0)
		if err != nil {
			return nil, err
		}
		r, err := el.synth(sc, v.R, 0)
		if err != nil {
			return nil, err
		}
		w := max(len(l), len(r))
		l, r = b.ext(l, w), b.ext(r, w)
		var res *Net
		switch v.Op {
		case ">=": // a >= b: no borrow in a-b
			_, res, err = b.sub(l, r)
		case "<": // !(a >= b)
			_, geq, e2 := b.sub(l, r)
			if e2 != nil {
				return nil, e2
			}
			res, err = b.inv(geq)
		case "<=": // b >= a
			_, res, err = b.sub(r, l)
		case ">": // !(b >= a)
			_, geq, e2 := b.sub(r, l)
			if e2 != nil {
				return nil, e2
			}
			res, err = b.inv(geq)
		}
		if err != nil {
			return nil, err
		}
		return []*Net{res}, nil

	case "+", "-":
		l, err := el.synth(sc, v.L, widthHint)
		if err != nil {
			return nil, err
		}
		r, err := el.synth(sc, v.R, widthHint)
		if err != nil {
			return nil, err
		}
		w := max(len(l), len(r))
		if widthHint > w {
			w = widthHint
		}
		l, r = b.ext(l, w), b.ext(r, w)
		if v.Op == "+" {
			sum, _, err := b.adder(l, r, b.c0())
			return sum, err
		}
		diff, _, err := b.sub(l, r)
		return diff, err

	case "*":
		l, err := el.synth(sc, v.L, 0)
		if err != nil {
			return nil, err
		}
		r, err := el.synth(sc, v.R, 0)
		if err != nil {
			return nil, err
		}
		return b.multiplier(l, r)

	case "<<", ">>", "<<<", ">>>":
		l, err := el.synth(sc, v.L, widthHint)
		if err != nil {
			return nil, err
		}
		if widthHint > len(l) {
			l = b.ext(l, widthHint)
		}
		if k, err := verilog.ConstEval(v.R, sc.params); err == nil {
			shift := int(k)
			if v.Op == ">>" || v.Op == ">>>" {
				shift = -shift
			}
			return b.shiftConst(l, shift), nil
		}
		amt, err := el.synth(sc, v.R, 0)
		if err != nil {
			return nil, err
		}
		return b.barrel(l, amt, v.Op == "<<" || v.Op == "<<<")

	case "/", "%":
		// Constant division only (used in parameter math that leaked into
		// expressions); general dividers are out of the subset.
		lv, lerr := verilog.ConstEval(v.L, sc.params)
		rv, rerr := verilog.ConstEval(v.R, sc.params)
		if lerr == nil && rerr == nil && rv != 0 {
			var res int64
			if v.Op == "/" {
				res = lv / rv
			} else {
				res = lv % rv
			}
			w := widthHint
			if w <= 0 {
				w = 32
			}
			return el.constBits(b, uint64(res), w), nil
		}
		return nil, fmt.Errorf("%s: non-constant %q not supported", v.Pos, v.Op)
	}
	return nil, fmt.Errorf("%s: unsupported binary operator %q", v.Pos, v.Op)
}
