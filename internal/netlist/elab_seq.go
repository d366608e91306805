package netlist

import (
	"fmt"
	"sort"

	"repro/internal/liberty"
	"repro/internal/verilog"
)

// elabAlways synthesizes a clocked always block into flip-flops. Each
// register bit assigned in the block gets a DFF (or DFFR when the block has
// an asynchronous reset) whose D input is the mux network describing the
// block's control flow, with hold paths fed back from Q.
func (el *elab) elabAlways(sc *modScope, ff *verilog.AlwaysFF) error {
	clkSig, ok := sc.env[ff.Clk]
	if !ok || len(clkSig.bits) != 1 {
		return fmt.Errorf("%s: clock %q is not a declared scalar signal", ff.Pos, ff.Clk)
	}
	clk := clkSig.bits[0]
	el.al.find(clk).IsClk = true

	body := ff.Body
	var rst *Net
	resetVals := make(map[*Net]bool) // reset target bit -> reset value
	if ff.Rst != "" {
		rstSig, ok := sc.env[ff.Rst]
		if !ok || len(rstSig.bits) != 1 {
			return fmt.Errorf("%s: reset %q is not a declared scalar signal", ff.Pos, ff.Rst)
		}
		rst = rstSig.bits[0]
		el.al.find(rst).IsRst = true
		if len(body) != 1 {
			return fmt.Errorf("%s: async-reset always block must be a single if statement", ff.Pos)
		}
		ifs, ok := body[0].(*verilog.IfStmt)
		if !ok {
			return fmt.Errorf("%s: async-reset always block must start with if (reset)", ff.Pos)
		}
		if !condIsReset(ifs.Cond, ff.Rst, ff.RstNeg) {
			return fmt.Errorf("%s: outer if condition must test reset %q", ff.Pos, ff.Rst)
		}
		// The reset arm must assign constants.
		for _, s := range ifs.Then {
			nb, ok := s.(*verilog.NonBlocking)
			if !ok {
				return fmt.Errorf("%s: reset arm must contain only nonblocking assignments", ff.Pos)
			}
			tgt, err := el.lvalue(sc, nb.LHS)
			if err != nil {
				return err
			}
			val, err := verilog.ConstEval(nb.RHS, sc.params)
			if err != nil {
				return fmt.Errorf("%s: reset value must be constant: %v", ff.Pos, err)
			}
			for i, t := range tgt {
				resetVals[t] = val>>uint(i)&1 == 1
			}
		}
		body = ifs.Else
	}

	updates, err := el.procStmts(sc, body)
	if err != nil {
		return err
	}

	// Collect all register bits touched by this block, deterministically.
	targets := make(map[*Net]bool)
	for t := range updates {
		targets[t] = true
	}
	for t := range resetVals {
		targets[t] = true
	}
	ordered := make([]*Net, 0, len(targets))
	for t := range targets {
		ordered = append(ordered, t)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	for _, cur := range ordered {
		next, ok := updates[cur]
		if !ok {
			next = cur // reset-only register holds its value otherwise
		}
		kind := liberty.KindDFF
		if rst != nil {
			kind = liberty.KindDFFR
		}
		ref := el.nl.Lib.Weakest(kind)
		if ref == nil {
			return fmt.Errorf("library has no %s cell", kind)
		}
		cell, err := el.nl.addCell(ref, sc.group, sc.m.Name, []*Net{next})
		if err != nil {
			return err
		}
		cell.Clock = clk
		cell.Reset = rst
		if err := el.drive(sc, cur, cell.Output); err != nil {
			return fmt.Errorf("%s: register output: %v", ff.Pos, err)
		}
	}
	return nil
}

// condIsReset checks that an expression tests the reset signal with the
// polarity implied by the sensitivity edge.
func condIsReset(e verilog.Expr, rst string, negedge bool) bool {
	if !negedge {
		if id, ok := e.(*verilog.Ident); ok {
			return id.Name == rst
		}
		return false
	}
	if u, ok := e.(*verilog.Unary); ok && (u.Op == "!" || u.Op == "~") {
		if id, ok := u.X.(*verilog.Ident); ok {
			return id.Name == rst
		}
	}
	return false
}

// procStmts folds a statement list into a next-value map from register bit
// (its current Q net) to the net holding its next value.
func (el *elab) procStmts(sc *modScope, stmts []verilog.Stmt) (map[*Net]*Net, error) {
	upd := make(map[*Net]*Net)
	for _, s := range stmts {
		switch v := s.(type) {
		case *verilog.NonBlocking:
			tgt, err := el.lvalue(sc, v.LHS)
			if err != nil {
				return nil, err
			}
			rhs, err := el.synth(sc, v.RHS, len(tgt))
			if err != nil {
				return nil, err
			}
			rhs = sc.b.ext(rhs, len(tgt))
			for i, t := range tgt {
				upd[t] = rhs[i]
			}

		case *verilog.IfStmt:
			condBits, err := el.synth(sc, v.Cond, 0)
			if err != nil {
				return nil, err
			}
			cond, err := sc.b.boolVal(condBits)
			if err != nil {
				return nil, err
			}
			thenU, err := el.procStmts(sc, v.Then)
			if err != nil {
				return nil, err
			}
			elseU, err := el.procStmts(sc, v.Else)
			if err != nil {
				return nil, err
			}
			keys := make(map[*Net]bool)
			for k := range thenU {
				keys[k] = true
			}
			for k := range elseU {
				keys[k] = true
			}
			orderedKeys := make([]*Net, 0, len(keys))
			for k := range keys {
				orderedKeys = append(orderedKeys, k)
			}
			sort.Slice(orderedKeys, func(i, j int) bool { return orderedKeys[i].ID < orderedKeys[j].ID })
			for _, k := range orderedKeys {
				prior, hasPrior := upd[k]
				hold := k
				if hasPrior {
					hold = prior
				}
				tv, ok := thenU[k]
				if !ok {
					tv = hold
				}
				ev, ok := elseU[k]
				if !ok {
					ev = hold
				}
				m, err := sc.b.mux(cond, ev, tv)
				if err != nil {
					return nil, err
				}
				upd[k] = m
			}

		default:
			return nil, fmt.Errorf("unsupported statement %T in always block", s)
		}
	}
	return upd, nil
}

// elabInstance elaborates a submodule instance, binding ports by alias.
func (el *elab) elabInstance(sc *modScope, inst *verilog.Instance, depth int) error {
	sub := el.file.FindModule(inst.ModuleName)
	if sub == nil {
		return fmt.Errorf("%s: unknown module %q", inst.Pos, inst.ModuleName)
	}
	// Parameter overrides.
	overrides := make(map[string]int64)
	for i, po := range inst.ParamOver {
		val, err := verilog.ConstEval(po.Expr, sc.params)
		if err != nil {
			return fmt.Errorf("%s: parameter override: %v", inst.Pos, err)
		}
		name := po.Name
		if name == "" {
			// Ordered overrides bind to non-local params in declaration order.
			idx := 0
			for _, p := range sub.Params {
				if p.Local {
					continue
				}
				if idx == i {
					name = p.Name
					break
				}
				idx++
			}
			if name == "" {
				return fmt.Errorf("%s: too many ordered parameter overrides", inst.Pos)
			}
		}
		overrides[name] = val
	}
	subParams, err := el.resolveParams(sub, overrides, sc.params)
	if err != nil {
		return err
	}

	// Bind connections.
	connFor := make(map[string]verilog.Expr)
	connSet := make(map[string]bool)
	for i, c := range inst.Conns {
		if c.Name != "" {
			connFor[c.Name] = c.Expr
			connSet[c.Name] = true
			continue
		}
		if i >= len(sub.Ports) {
			return fmt.Errorf("%s: too many ordered connections for %s", inst.Pos, sub.Name)
		}
		connFor[sub.Ports[i].Name] = c.Expr
		connSet[sub.Ports[i].Name] = true
	}

	childGroup := inst.Name
	if sc.group != "" {
		childGroup = sc.group + "/" + inst.Name
	}
	subEnv := make(map[string]signal)
	for _, port := range sub.Ports {
		w, _, err := verilog.RangeWidth(port.Range, subParams)
		if err != nil {
			return fmt.Errorf("%s port %s: %v", sub.Name, port.Name, err)
		}
		expr, bound := connFor[port.Name]
		switch port.Dir {
		case verilog.DirInput:
			var bits []*Net
			if !bound || expr == nil {
				bits = sc.b.ext(nil, w) // unconnected input ties to 0
			} else {
				bits, err = el.synth(sc, expr, w)
				if err != nil {
					return fmt.Errorf("%s.%s: %v", inst.Name, port.Name, err)
				}
				bits = sc.b.ext(bits, w)
			}
			subEnv[port.Name] = signal{bits: bits}

		case verilog.DirOutput:
			bits := make([]*Net, w)
			for i := range bits {
				bits[i] = el.nl.NewNet("")
			}
			subEnv[port.Name] = signal{bits: bits}
			if bound && expr != nil {
				lv, err := el.lvalue(sc, expr)
				if err != nil {
					return fmt.Errorf("%s.%s: %v", inst.Name, port.Name, err)
				}
				n := min(len(lv), w)
				for i := 0; i < n; i++ {
					if err := el.drive(sc, lv[i], bits[i]); err != nil {
						return fmt.Errorf("%s.%s: %v", inst.Name, port.Name, err)
					}
				}
				// A wider lvalue gets its upper bits tied to 0.
				for i := n; i < len(lv); i++ {
					if err := el.drive(sc, lv[i], sc.b.c0()); err != nil {
						return fmt.Errorf("%s.%s: %v", inst.Name, port.Name, err)
					}
				}
			}

		default:
			return fmt.Errorf("%s: inout port %s not supported", inst.Pos, port.Name)
		}
	}
	return el.elabModule(sub, subParams, subEnv, childGroup, depth+1)
}

// elabGate synthesizes a Verilog gate primitive. Multi-input gates beyond
// the library's widest cell decompose into balanced trees.
func (el *elab) elabGate(sc *modScope, g *verilog.GatePrim) error {
	if len(g.Args) < 2 {
		return fmt.Errorf("%s: gate %s needs an output and at least one input", g.Pos, g.Kind)
	}
	out, err := el.lvalue(sc, g.Args[0])
	if err != nil {
		return err
	}
	if len(out) != 1 {
		return fmt.Errorf("%s: gate %s output must be a single bit", g.Pos, g.Kind)
	}
	ins := make([]*Net, 0, len(g.Args)-1)
	for _, a := range g.Args[1:] {
		bits, err := el.synth(sc, a, 1)
		if err != nil {
			return err
		}
		if len(bits) != 1 {
			return fmt.Errorf("%s: gate %s input %s must be a single bit", g.Pos, g.Kind, a.String())
		}
		ins = append(ins, bits[0])
	}
	b := sc.b
	var res *Net
	switch g.Kind {
	case "not":
		if len(ins) != 1 {
			return fmt.Errorf("%s: not takes one input", g.Pos)
		}
		res, err = b.inv(ins[0])
	case "buf":
		if len(ins) != 1 {
			return fmt.Errorf("%s: buf takes one input", g.Pos)
		}
		res = ins[0]
	case "and":
		res, err = b.reduce(liberty.KindAnd2, ins)
	case "or":
		res, err = b.reduce(liberty.KindOr2, ins)
	case "xor":
		res, err = b.reduce(liberty.KindXor2, ins)
	case "nand":
		res, err = b.reduce(liberty.KindAnd2, ins)
		if err == nil {
			res, err = b.inv(res)
		}
	case "nor":
		res, err = b.reduce(liberty.KindOr2, ins)
		if err == nil {
			res, err = b.inv(res)
		}
	case "xnor":
		res, err = b.reduce(liberty.KindXor2, ins)
		if err == nil {
			res, err = b.inv(res)
		}
	default:
		return fmt.Errorf("%s: unknown gate primitive %q", g.Pos, g.Kind)
	}
	if err != nil {
		return err
	}
	return el.drive(sc, out[0], res)
}
