package verilog

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/inputlimits"
)

// parses counts ParseWithBudget calls, a plain atomic like sta's analysis
// counters.
var parses atomic.Uint64

// Parses returns the number of source-file parses started process-wide,
// surfaced by the serving daemon as verilog_parses_total.
func Parses() uint64 { return parses.Load() }

// Parse parses a Verilog source file under the process-default input budget.
// Untrusted sources — external netlists, pipeline-generated RTL — always
// come through here, so parsing provably terminates within the budget and
// returns a typed *inputlimits.LimitError when an input exceeds it.
func Parse(src string) (*SourceFile, error) {
	return ParseWithBudget(src, inputlimits.For(inputlimits.SurfaceVerilog))
}

// ParseWithBudget parses a Verilog source file under an explicit budget.
// The zero budget disables all limits.
func ParseWithBudget(src string, budget inputlimits.Budget) (*SourceFile, error) {
	parses.Add(1)
	m := inputlimits.NewMeter(inputlimits.SurfaceVerilog, budget)
	if err := m.CheckBytes(len(src)); err != nil {
		return nil, err
	}
	p := &parser{lx: newLexer(src), src: src, meter: m}
	if err := p.advance(); err != nil {
		return nil, err
	}
	file := &SourceFile{}
	for p.tok.kind != tokEOF {
		if !p.isKeyword("module") {
			return nil, p.errorf("expected 'module', got %q", p.tok.text)
		}
		mod, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		file.Modules = append(file.Modules, mod)
	}
	return file, nil
}

// ParseModule parses a source file expected to contain exactly one module.
func ParseModule(src string) (*Module, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(f.Modules) != 1 {
		return nil, fmt.Errorf("expected exactly one module, got %d", len(f.Modules))
	}
	return f.Modules[0], nil
}

type parser struct {
	lx    *lexer
	src   string
	tok   token
	meter *inputlimits.Meter

	// lineStart[i] is the byte offset of line i+1; built lazily so module
	// source capture is O(1) per module instead of rescanning the file.
	lineStart []int

	// Typed arenas for the hot expression and declaration nodes. A large
	// design allocates hundreds of thousands of AST nodes; carving them from
	// chunks cuts that to a few hundred allocations. The nodes' lifetime is
	// unchanged: a Module retains essentially every node parsed for it, so
	// the chunks were going to stay reachable either way.
	idents   arena.Arena[Ident]
	numbers  arena.Arena[Number]
	binaries arena.Arena[Binary]
	unaries  arena.Arena[Unary]
	ternarys arena.Arena[Ternary]
	indexes  arena.Arena[Index]
	slices   arena.Arena[Slice]
	ranges   arena.Arena[Range]
	ports    arena.Arena[Port]
}

func (p *parser) advance() error {
	if err := p.meter.Token(); err != nil {
		return err
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// enter guards one level of recursive descent; pair with p.meter.Exit().
func (p *parser) enter() error { return p.meter.Enter() }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) isPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errorf("expected %q, got %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %q, got %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

// sourceOffset approximates the byte offset of a position for source
// capture. The line-start index is built once per parse so capture stays
// O(1) per module even on files with very many modules.
func (p *parser) sourceOffset(pos Position) int {
	if p.lineStart == nil {
		p.lineStart = append(p.lineStart, 0)
		for i := 0; i < len(p.src); i++ {
			if p.src[i] == '\n' {
				p.lineStart = append(p.lineStart, i+1)
			}
		}
	}
	if pos.Line < 1 || pos.Line > len(p.lineStart) {
		return len(p.src)
	}
	off := p.lineStart[pos.Line-1] + pos.Col - 1
	if off < 0 || off > len(p.src) {
		off = len(p.src)
	}
	return off
}

func (p *parser) parseModule() (*Module, error) {
	startPos := p.tok.pos
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Pos: startPos}

	// Optional parameter list: #(parameter W = 8, ...)
	if p.isPunct("#") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			if p.isKeyword("parameter") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			pname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &Param{Name: pname, Value: val})
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}

	// Port list.
	classicPorts := []string{} // names awaiting direction declarations in body
	if p.isPunct("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isPunct(")") {
			for {
				if p.tok.kind == tokKeyword &&
					(p.tok.text == "input" || p.tok.text == "output" || p.tok.text == "inout") {
					// ANSI-style port declarations.
					ports, err := p.parseANSIPortGroup()
					if err != nil {
						return nil, err
					}
					m.Ports = append(m.Ports, ports...)
				} else {
					// Classic style: just names.
					pname, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					classicPorts = append(classicPorts, pname)
				}
				if p.isPunct(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}

	// Body.
	classicDecl := map[string]*Port{}
	items := 0
	for !p.isKeyword("endmodule") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected EOF inside module %s", m.Name)
		}
		items++
		if err := p.meter.Statement(items); err != nil {
			return nil, err
		}
		item, ports, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		for _, pt := range ports {
			classicDecl[pt.Name] = pt
		}
		if item != nil {
			m.Items = append(m.Items, item)
		}
	}
	endPos := p.tok.pos
	if err := p.advance(); err != nil { // consume endmodule
		return nil, err
	}

	// Resolve classic ports in declared order.
	for _, pname := range classicPorts {
		pt, ok := classicDecl[pname]
		if !ok {
			return nil, fmt.Errorf("module %s: port %s has no direction declaration", m.Name, pname)
		}
		m.Ports = append(m.Ports, pt)
	}

	startOff := p.sourceOffset(startPos)
	endOff := p.sourceOffset(endPos) + len("endmodule")
	if startOff < endOff && endOff <= len(p.src) {
		m.Source = p.src[startOff:endOff]
	}
	Normalize(m)
	return m, nil
}

// parseANSIPortGroup parses "input [7:0] a, b" inside an ANSI port list,
// stopping before the comma that precedes the next direction keyword.
func (p *parser) parseANSIPortGroup() ([]*Port, error) {
	var dir PortDir
	switch p.tok.text {
	case "input":
		dir = DirInput
	case "output":
		dir = DirOutput
	case "inout":
		dir = DirInout
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	isReg := false
	if p.isKeyword("reg") {
		isReg = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if p.isKeyword("wire") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	var ports []*Port
	for {
		pos := p.tok.pos
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		pt := p.ports.New()
		*pt = Port{Name: name, Dir: dir, Range: rng, Reg: isReg, Pos: pos}
		ports = append(ports, pt)
		// Continue only if the next token is "," followed by an identifier
		// (same group). A "," followed by a keyword starts a new group and
		// is handled by the caller.
		if p.isPunct(",") {
			save := *p.lx
			savedTok := p.tok
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind == tokIdent {
				continue
			}
			*p.lx = save
			p.tok = savedTok
		}
		break
	}
	return ports, nil
}

func (p *parser) parseOptRange() (*Range, error) {
	if !p.isPunct("[") {
		return nil, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	r := p.ranges.New()
	r.MSB, r.LSB = msb, lsb
	return r, nil
}

// parseItem parses one module body item. It returns classic-style port
// declarations separately so the caller can bind them to the port list.
func (p *parser) parseItem() (Item, []*Port, error) {
	pos := p.tok.pos
	switch {
	case p.isKeyword("input") || p.isKeyword("output") || p.isKeyword("inout"):
		var dir PortDir
		switch p.tok.text {
		case "input":
			dir = DirInput
		case "output":
			dir = DirOutput
		default:
			dir = DirInout
		}
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		isReg := false
		if p.isKeyword("reg") {
			isReg = true
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		} else if p.isKeyword("wire") {
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		}
		rng, err := p.parseOptRange()
		if err != nil {
			return nil, nil, err
		}
		var ports []*Port
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, nil, err
			}
			pt := p.ports.New()
			*pt = Port{Name: name, Dir: dir, Range: rng, Reg: isReg, Pos: pos}
			ports = append(ports, pt)
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, nil, err
				}
				continue
			}
			break
		}
		return nil, ports, p.expectPunct(";")

	case p.isKeyword("wire"), p.isKeyword("reg"):
		isReg := p.tok.text == "reg"
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		rng, err := p.parseOptRange()
		if err != nil {
			return nil, nil, err
		}
		decl := &NetDecl{Range: rng, Reg: isReg, Pos: pos}
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, nil, err
			}
			decl.Names = append(decl.Names, name)
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, nil, err
				}
				continue
			}
			break
		}
		return decl, nil, p.expectPunct(";")

	case p.isKeyword("parameter"), p.isKeyword("localparam"):
		local := p.tok.text == "localparam"
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		var firstErr error
		var items []Item
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			items = append(items, &paramItem{&Param{Name: name, Value: val, Local: local, Pos: pos}})
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, nil, err
		}
		// Parameters are hoisted onto the module by the caller via paramItem.
		if len(items) == 1 {
			return items[0], nil, firstErr
		}
		return &itemGroup{items}, nil, firstErr

	case p.isKeyword("assign"):
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		lhs, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		return &Assign{LHS: lhs, RHS: rhs, Pos: pos}, nil, p.expectPunct(";")

	case p.isKeyword("always"):
		item, err := p.parseAlways(pos)
		return item, nil, err

	case p.tok.kind == tokKeyword && gateKinds[p.tok.text]:
		kind := p.tok.text
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		gname := ""
		if p.tok.kind == tokIdent {
			var err error
			gname, err = p.expectIdent()
			if err != nil {
				return nil, nil, err
			}
		}
		if err := p.expectPunct("("); err != nil {
			return nil, nil, err
		}
		var args []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			args = append(args, e)
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, nil, err
		}
		return &GatePrim{Kind: kind, Name: gname, Args: args, Pos: pos}, nil, p.expectPunct(";")

	case p.tok.kind == tokIdent:
		return p.parseInstance(pos)

	default:
		return nil, nil, p.errorf("unexpected token %q in module body", p.tok.text)
	}
}

var gateKinds = map[string]bool{
	"and": true, "or": true, "nand": true, "nor": true,
	"xor": true, "xnor": true, "not": true, "buf": true,
}

// paramItem and itemGroup are internal wrappers letting parameter
// declarations flow through parseItem; Normalize hoists them.
type paramItem struct{ p *Param }
type itemGroup struct{ items []Item }

func (*paramItem) itemNode() {}
func (*itemGroup) itemNode() {}

func (p *parser) parseInstance(pos Position) (Item, []*Port, error) {
	modName, err := p.expectIdent()
	if err != nil {
		return nil, nil, err
	}
	inst := &Instance{ModuleName: modName, Pos: pos}
	if p.isPunct("#") {
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, nil, err
		}
		conns, err := p.parseConnList()
		if err != nil {
			return nil, nil, err
		}
		inst.ParamOver = conns
		if err := p.expectPunct(")"); err != nil {
			return nil, nil, err
		}
	}
	iname, err := p.expectIdent()
	if err != nil {
		return nil, nil, err
	}
	inst.Name = iname
	if err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	if !p.isPunct(")") {
		conns, err := p.parseConnList()
		if err != nil {
			return nil, nil, err
		}
		inst.Conns = conns
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, nil, err
	}
	return inst, nil, p.expectPunct(";")
}

func (p *parser) parseConnList() ([]Connection, error) {
	var conns []Connection
	for {
		if p.isPunct(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var e Expr
			if !p.isPunct(")") {
				var err error
				e, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			conns = append(conns, Connection{Name: name, Expr: e})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			conns = append(conns, Connection{Expr: e})
		}
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return conns, nil
}

func (p *parser) parseAlways(pos Position) (Item, error) {
	if err := p.expectKeyword("always"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("@"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	ff := &AlwaysFF{Pos: pos}
	// posedge clk [or (posedge|negedge) rst]
	if err := p.expectKeyword("posedge"); err != nil {
		return nil, err
	}
	clk, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ff.Clk = clk
	if p.tok.kind == tokIdent && p.tok.text == "or" || p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if p.isKeyword("negedge") {
			neg = true
		} else if !p.isKeyword("posedge") {
			return nil, p.errorf("expected posedge/negedge in sensitivity list")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		rst, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ff.Rst = rst
		ff.RstNeg = neg
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtBlock()
	if err != nil {
		return nil, err
	}
	ff.Body = body
	return ff, nil
}

// parseStmtBlock parses either a begin/end block or a single statement.
// Statement nesting (if/else chains, nested begin/end) recurses through
// here, so the depth guard bounds it.
func (p *parser) parseStmtBlock() ([]Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.meter.Exit()
	if p.isKeyword("begin") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var stmts []Stmt
		for !p.isKeyword("end") {
			if p.tok.kind == tokEOF {
				return nil, p.errorf("unexpected EOF in begin/end block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, s)
		}
		return stmts, p.advance()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.tok.pos
	if p.isKeyword("if") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmtBlock()
		if err != nil {
			return nil, err
		}
		stmt := &IfStmt{Cond: cond, Then: then, Pos: pos}
		if p.isKeyword("else") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			els, err := p.parseStmtBlock()
			if err != nil {
				return nil, err
			}
			stmt.Else = els
		}
		return stmt, nil
	}
	// Nonblocking assignment. The LHS is a postfix expression (identifier,
	// bit/part select, or concatenation) so that "<=" is not consumed as a
	// comparison operator.
	lhs, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if !p.isPunct("<=") {
		return nil, p.errorf("expected '<=' in always block, got %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &NonBlocking{LHS: lhs, RHS: rhs, Pos: pos}, p.expectPunct(";")
}

// Expression parsing with precedence climbing.

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4, "^~": 4, "~^": 4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (Expr, error) {
	// Every expression recursion path — parenthesized primaries, concat
	// parts, ternary arms — re-enters here, so this guard alone bounds
	// expression nesting (unary chains are guarded separately).
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.meter.Exit()
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	t, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	tn := p.ternarys.New()
	*tn = Ternary{Cond: cond, T: t, F: f, Pos: pos}
	return tn, nil
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.kind != tokPunct {
			return left, nil
		}
		prec, ok := binaryPrec[p.tok.text]
		if !ok || prec < minPrec {
			return left, nil
		}
		op := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		b := p.binaries.New()
		*b = Binary{Op: op, L: left, R: right, Pos: pos}
		left = b
	}
}

var unaryOps = map[string]bool{
	"~": true, "!": true, "-": true, "+": true,
	"&": true, "|": true, "^": true, "~&": true, "~|": true, "~^": true,
}

func (p *parser) parseUnary() (Expr, error) {
	// "~~~~...x" recurses without passing through parseTernary; bound it.
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.meter.Exit()
	if p.tok.kind == tokPunct && unaryOps[p.tok.text] {
		op := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			return x, nil
		}
		u := p.unaries.New()
		*u = Unary{Op: op, X: x, Pos: pos}
		return u, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.isPunct("[") {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.isPunct(":") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			s := p.slices.New()
			*s = Slice{X: e, MSB: first, LSB: lsb, Pos: pos}
			e = s
		} else {
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			ix := p.indexes.New()
			*ix = Index{X: e, I: first, Pos: pos}
			e = ix
		}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.tok.pos
	switch {
	case p.tok.kind == tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		id := p.idents.New()
		id.Name, id.Pos = name, pos
		return id, nil

	case p.tok.kind == tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		an := p.numbers.New()
		if err := decodeNumberInto(an, text, pos); err != nil {
			return nil, err
		}
		return an, nil

	case p.isPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")

	case p.isPunct("{"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.isPunct("{") {
			// Replication {N{X}}.
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			return &Repl{N: first, X: x, Pos: pos}, nil
		}
		parts := []Expr{first}
		for p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return &Concat{Parts: parts, Pos: pos}, nil

	default:
		return nil, p.errorf("unexpected token %q in expression", p.tok.text)
	}
}

// decodeNumber converts a Verilog literal into a Number.
func decodeNumber(text string, pos Position) (*Number, error) {
	n := &Number{}
	if err := decodeNumberInto(n, text, pos); err != nil {
		return nil, err
	}
	return n, nil
}

// decodeNumberInto decodes a literal into an existing (arena-allocated)
// Number, avoiding a per-literal allocation on the parse hot path.
func decodeNumberInto(n *Number, text string, pos Position) error {
	clean := strings.ReplaceAll(text, "_", "")
	tick := strings.IndexByte(clean, '\'')
	if tick < 0 {
		v, err := strconv.ParseUint(clean, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: bad number %q: %v", pos, text, err)
		}
		*n = Number{Value: v, Pos: pos}
		return nil
	}
	width := 0
	if tick > 0 {
		w, err := strconv.Atoi(clean[:tick])
		if err != nil {
			return fmt.Errorf("%s: bad width in %q: %v", pos, text, err)
		}
		width = w
	}
	if tick+1 >= len(clean) {
		return fmt.Errorf("%s: bad literal %q", pos, text)
	}
	base := 10
	switch clean[tick+1] {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'd', 'D':
		base = 10
	case 'h', 'H':
		base = 16
	}
	digits := clean[tick+2:]
	// x/z/? digits are out of the synthesizable subset; map them to 0.
	digits = strings.Map(func(r rune) rune {
		switch r {
		case 'x', 'X', 'z', 'Z', '?':
			return '0'
		}
		return r
	}, digits)
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return fmt.Errorf("%s: bad digits in %q: %v", pos, text, err)
	}
	*n = Number{Width: width, Value: v, Pos: pos}
	return nil
}

// Normalize hoists parameter declarations from module items onto the module
// and flattens item groups. Parse calls it implicitly via parseModule's
// callers; exported for tests building ASTs by hand.
func Normalize(m *Module) {
	var items []Item
	var walk func(it Item)
	walk = func(it Item) {
		switch v := it.(type) {
		case *paramItem:
			m.Params = append(m.Params, v.p)
		case *itemGroup:
			for _, sub := range v.items {
				walk(sub)
			}
		default:
			items = append(items, it)
		}
	}
	for _, it := range m.Items {
		walk(it)
	}
	m.Items = items
}
