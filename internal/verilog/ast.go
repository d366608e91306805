// Package verilog implements a lexer, parser, and AST for the synthesizable
// Verilog subset consumed by the ChatLS pipeline.
//
// The subset covers what the design generators in internal/designs emit and
// what the elaborator in internal/netlist consumes: module declarations with
// ANSI or classic port lists, parameter/localparam declarations with constant
// expressions, wire/reg declarations, continuous assignments, clocked always
// blocks describing registers, module instantiation (named or ordered
// connections, with parameter overrides), and the Verilog gate primitives.
package verilog

import (
	"fmt"
	"strings"
)

// Position locates a token or node in the source text.
type Position struct {
	Line int // 1-based line number
	Col  int // 1-based column (byte offset within the line)
}

func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SourceFile is the root of a parsed Verilog file.
type SourceFile struct {
	Modules []*Module
}

// FindModule returns the module with the given name, or nil.
func (f *SourceFile) FindModule(name string) *Module {
	for _, m := range f.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// PortDir is the direction of a module port.
type PortDir int

const (
	DirInput PortDir = iota
	DirOutput
	DirInout
)

func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	case DirInout:
		return "inout"
	}
	return "?"
}

// Range is a bit range [MSB:LSB]. Both bounds are constant expressions.
type Range struct {
	MSB Expr
	LSB Expr
}

// Module is a Verilog module declaration.
type Module struct {
	Name   string
	Pos    Position
	Params []*Param
	Ports  []*Port
	Items  []Item // body items in source order
	Source string // raw source text of the module, for RAG code retrieval
}

// Param is a parameter or localparam declaration.
type Param struct {
	Name  string
	Value Expr
	Local bool
	Pos   Position
}

// Port is a module port. Width is resolved at elaboration time from Range.
type Port struct {
	Name  string
	Dir   PortDir
	Range *Range // nil means scalar
	Reg   bool   // declared as "output reg"
	Pos   Position
}

// Item is any module body item.
type Item interface{ itemNode() }

// NetDecl declares one or more wires or regs sharing a range.
type NetDecl struct {
	Names []string
	Range *Range
	Reg   bool
	Pos   Position
}

// Assign is a continuous assignment: assign LHS = RHS;
type Assign struct {
	LHS Expr
	RHS Expr
	Pos Position
}

// AlwaysFF is a clocked always block: always @(posedge Clk [or posedge/negedge Rst]) ...
type AlwaysFF struct {
	Clk    string
	Rst    string // asynchronous reset signal name, "" if none
	RstNeg bool   // reset triggers on negedge
	Body   []Stmt
	Pos    Position
}

// Instance is a module or primitive-gate instantiation.
type Instance struct {
	ModuleName string
	Name       string
	ParamOver  []Connection // parameter overrides, named or ordered
	Conns      []Connection
	Pos        Position
}

// Connection binds a port (or parameter) to an expression. Name is "" for
// ordered connections.
type Connection struct {
	Name string
	Expr Expr // nil for explicitly unconnected: .port()
}

// GatePrim is a built-in gate primitive instantiation: nand g (out, a, b);
type GatePrim struct {
	Kind string // and, or, nand, nor, xor, xnor, not, buf
	Name string
	Args []Expr // first is output
	Pos  Position
}

func (*NetDecl) itemNode()  {}
func (*Assign) itemNode()   {}
func (*AlwaysFF) itemNode() {}
func (*Instance) itemNode() {}
func (*GatePrim) itemNode() {}

// Stmt is a statement inside an always block.
type Stmt interface{ stmtNode() }

// NonBlocking is a nonblocking assignment: LHS <= RHS;
type NonBlocking struct {
	LHS Expr
	RHS Expr
	Pos Position
}

// IfStmt is if (Cond) Then else Else within an always block.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Position
}

func (*NonBlocking) stmtNode() {}
func (*IfStmt) stmtNode()      {}

// Expr is any Verilog expression.
type Expr interface {
	exprNode()
	String() string
}

// Ident is a plain identifier reference.
type Ident struct {
	Name string
	Pos  Position
}

// Number is a literal, optionally sized: 8'hFF, 4'b1010, 12, 'd3.
type Number struct {
	Width int // 0 if unsized
	Value uint64
	Pos   Position
}

// Unary is a unary operation. Op is one of ~ ! - & | ^ ~& ~| ~^.
type Unary struct {
	Op  string
	X   Expr
	Pos Position
}

// Binary is a binary operation.
type Binary struct {
	Op   string
	L, R Expr
	Pos  Position
}

// Ternary is Cond ? T : F.
type Ternary struct {
	Cond, T, F Expr
	Pos        Position
}

// Index is a bit select X[I].
type Index struct {
	X   Expr
	I   Expr
	Pos Position
}

// Slice is a part select X[MSB:LSB].
type Slice struct {
	X        Expr
	MSB, LSB Expr
	Pos      Position
}

// Concat is a concatenation {A, B, ...}.
type Concat struct {
	Parts []Expr
	Pos   Position
}

// Repl is a replication {N{X}}.
type Repl struct {
	N   Expr
	X   Expr
	Pos Position
}

func (*Ident) exprNode()   {}
func (*Number) exprNode()  {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}
func (*Ternary) exprNode() {}
func (*Index) exprNode()   {}
func (*Slice) exprNode()   {}
func (*Concat) exprNode()  {}
func (*Repl) exprNode()    {}

func (e *Ident) String() string { return e.Name }

func (e *Number) String() string {
	if e.Width > 0 {
		return fmt.Sprintf("%d'h%x", e.Width, e.Value)
	}
	return fmt.Sprintf("%d", e.Value)
}

func (e *Unary) String() string  { return e.Op + parenthesize(e.X) }
func (e *Binary) String() string { return parenthesize(e.L) + " " + e.Op + " " + parenthesize(e.R) }
func (e *Ternary) String() string {
	return parenthesize(e.Cond) + " ? " + parenthesize(e.T) + " : " + parenthesize(e.F)
}
func (e *Index) String() string { return parenthesize(e.X) + "[" + e.I.String() + "]" }
func (e *Slice) String() string {
	return parenthesize(e.X) + "[" + e.MSB.String() + ":" + e.LSB.String() + "]"
}
func (e *Concat) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (e *Repl) String() string { return "{" + e.N.String() + "{" + e.X.String() + "}}" }

func parenthesize(e Expr) string {
	switch e.(type) {
	case *Binary, *Ternary:
		return "(" + e.String() + ")"
	case *Unary:
		// Nested unaries must be parenthesized: "&&x" would lex as the
		// logical-and operator rather than two reductions.
		return "(" + e.String() + ")"
	}
	return e.String()
}
