package graphdb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/inputlimits"
)

// The Cypher subset grammar:
//
//	query   := CREATE patterns
//	         | MATCH patterns [WHERE expr] RETURN items [ORDER BY expr [DESC]] [LIMIT n]
//	pattern := node (rel node)*
//	node    := '(' [var] (':' label)* ['{' props '}'] ')'
//	rel     := '-[' [var] [':' type] ['*' [min] '..' [max]] ']->' | '<-[' ... ']-'
//	item    := expr [AS name]
//	expr    := literals, $params, var.prop, comparisons, AND/OR/NOT, count(var)
type cypherQuery struct {
	create    []*patternAST
	match     []*patternAST
	where     exprAST
	returns   []returnItem
	orderBy   exprAST
	orderDesc bool
	limit     int // 0 = no limit
}

type patternAST struct {
	nodes []*nodePat
	rels  []*relPat // len(rels) == len(nodes)-1
}

type nodePat struct {
	variable string
	labels   []string
	props    map[string]exprAST
}

type relPat struct {
	variable string
	relType  string
	reverse  bool // <-[...]-
	varLen   bool
	minHops  int
	maxHops  int
}

type returnItem struct {
	expr  exprAST
	alias string
}

// exprAST is an expression node.
type exprAST interface{ cypherExpr() }

type litExpr struct{ val any }
type paramExpr struct{ name string }
type varExpr struct{ name string }
type propExpr struct {
	variable string
	prop     string
}
type cmpExpr struct {
	op   string // = <> < <= > >= CONTAINS STARTS_WITH
	l, r exprAST
}
type boolExpr struct {
	op   string // AND OR
	l, r exprAST
}
type notExpr struct{ x exprAST }
type countExpr struct{ variable string }

func (litExpr) cypherExpr()   {}
func (paramExpr) cypherExpr() {}
func (varExpr) cypherExpr()   {}
func (propExpr) cypherExpr()  {}
func (cmpExpr) cypherExpr()   {}
func (boolExpr) cypherExpr()  {}
func (notExpr) cypherExpr()   {}
func (countExpr) cypherExpr() {}

// cypherLexer tokenizes a query. Token production is metered; when the
// budget trips, the lexer pins itself to EOF and records the limit error so
// the parser terminates and the caller surfaces the typed error instead of
// whatever syntax error the truncation would otherwise produce.
type cypherLexer struct {
	src      string
	pos      int
	tok      string
	meter    *inputlimits.Meter
	limitErr error
}

func (lx *cypherLexer) next() string {
	if err := lx.meter.Token(); err != nil {
		if lx.limitErr == nil {
			lx.limitErr = err
		}
		lx.pos = len(lx.src)
		lx.tok = ""
		return ""
	}
	for lx.pos < len(lx.src) && unicode.IsSpace(rune(lx.src[lx.pos])) {
		lx.pos++
	}
	if lx.pos >= len(lx.src) {
		lx.tok = ""
		return ""
	}
	c := lx.src[lx.pos]
	start := lx.pos
	switch {
	case isWordChar(c) || c == '$':
		lx.pos++
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			if isWordChar(ch) {
				lx.pos++
				continue
			}
			// '.' joins identifiers (m.code) and decimals (2.5) but a ".."
			// range operator must stay its own token.
			if ch == '.' && !(lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '.') {
				lx.pos++
				continue
			}
			break
		}
	case c == '\'' || c == '"':
		quote := c
		lx.pos++
		for lx.pos < len(lx.src) && lx.src[lx.pos] != quote {
			lx.pos++
		}
		if lx.pos < len(lx.src) {
			lx.pos++ // closing quote; absent when the string is unterminated
		}
	case strings.HasPrefix(lx.src[lx.pos:], "<-["):
		lx.pos += 3
	case strings.HasPrefix(lx.src[lx.pos:], "]->"):
		lx.pos += 3
	case strings.HasPrefix(lx.src[lx.pos:], "-["):
		lx.pos += 2
	case strings.HasPrefix(lx.src[lx.pos:], "]-"):
		lx.pos += 2
	case strings.HasPrefix(lx.src[lx.pos:], "<="), strings.HasPrefix(lx.src[lx.pos:], ">="),
		strings.HasPrefix(lx.src[lx.pos:], "<>"), strings.HasPrefix(lx.src[lx.pos:], ".."):
		lx.pos += 2
	default:
		lx.pos++
	}
	lx.tok = lx.src[start:lx.pos]
	return lx.tok
}

func isWordChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (lx *cypherLexer) peekWord() string {
	save := lx.pos
	tok := lx.next()
	lx.pos = save
	return tok
}

type cypherParser struct {
	lx    *cypherLexer
	meter *inputlimits.Meter
}

// parseCypher parses a query string under the given meter (nil = unmetered).
// A tripped token budget pins the lexer to EOF, so the recursive-descent
// parser unwinds with some syntax error; the recorded limit error takes
// precedence so callers see the typed limit, not the truncation artifact.
func parseCypher(q string, m *inputlimits.Meter) (*cypherQuery, error) {
	lx := &cypherLexer{src: q, meter: m}
	p := &cypherParser{lx: lx, meter: m}
	out, err := p.parseQuery()
	if lx.limitErr != nil {
		return nil, lx.limitErr
	}
	return out, err
}

func (p *cypherParser) parseQuery() (*cypherQuery, error) {
	out := &cypherQuery{}
	kw := strings.ToUpper(p.lx.next())
	switch kw {
	case "CREATE":
		pats, err := p.parsePatterns()
		if err != nil {
			return nil, err
		}
		out.create = pats
		return out, nil
	case "MATCH":
		pats, err := p.parsePatterns()
		if err != nil {
			return nil, err
		}
		out.match = pats
	default:
		return nil, fmt.Errorf("query must start with MATCH or CREATE, got %q", kw)
	}
	// lx.tok currently holds the token that ended the pattern list.
	for {
		switch strings.ToUpper(p.lx.tok) {
		case "":
			if len(out.returns) == 0 {
				return nil, fmt.Errorf("MATCH query needs a RETURN clause")
			}
			return out, nil
		case "WHERE":
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out.where = e
		case "RETURN":
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item := returnItem{expr: e, alias: exprLabel(e)}
				if strings.ToUpper(p.lx.tok) == "AS" {
					item.alias = p.lx.next()
					p.lx.next()
				}
				out.returns = append(out.returns, item)
				if err := p.meter.Statement(len(out.returns)); err != nil {
					return nil, err
				}
				if p.lx.tok != "," {
					break
				}
				// comma consumed by loop
			}
		case "ORDER":
			if strings.ToUpper(p.lx.next()) != "BY" {
				return nil, fmt.Errorf("expected BY after ORDER")
			}
			p.lx.next()
			e, err := p.parseExprNoAdvance()
			if err != nil {
				return nil, err
			}
			out.orderBy = e
			if strings.ToUpper(p.lx.tok) == "DESC" {
				out.orderDesc = true
				p.lx.next()
			} else if strings.ToUpper(p.lx.tok) == "ASC" {
				p.lx.next()
			}
		case "LIMIT":
			n, err := strconv.Atoi(p.lx.next())
			if err != nil || n < 0 {
				return nil, fmt.Errorf("invalid LIMIT")
			}
			out.limit = n
			p.lx.next()
		default:
			return nil, fmt.Errorf("unexpected token %q", p.lx.tok)
		}
	}
}

func exprLabel(e exprAST) string {
	switch v := e.(type) {
	case propExpr:
		return v.variable + "." + v.prop
	case varExpr:
		return v.name
	case countExpr:
		return "count(" + v.variable + ")"
	}
	return "expr"
}

// parsePatterns parses comma-separated patterns; on return, lx.tok holds the
// first token after the pattern list.
func (p *cypherParser) parsePatterns() ([]*patternAST, error) {
	var pats []*patternAST
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if err := p.meter.Statement(len(pats)); err != nil {
			return nil, err
		}
		if p.lx.tok == "," {
			// parsePattern's leading next() will consume the '(' itself.
			continue
		}
		return pats, nil
	}
}

func (p *cypherParser) parsePattern() (*patternAST, error) {
	pat := &patternAST{}
	if p.lx.next() != "(" {
		return nil, fmt.Errorf("expected '(' to start node pattern, got %q", p.lx.tok)
	}
	n, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	pat.nodes = append(pat.nodes, n)
	for {
		tok := p.lx.next()
		if tok != "-[" && tok != "<-[" {
			return pat, nil // tok is the lookahead for the caller
		}
		rel, err := p.parseRel(tok == "<-[")
		if err != nil {
			return nil, err
		}
		pat.rels = append(pat.rels, rel)
		if p.lx.next() != "(" {
			return nil, fmt.Errorf("expected '(' after relationship, got %q", p.lx.tok)
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		pat.nodes = append(pat.nodes, n)
	}
}

// parseNode parses the inside of (var:Label {k: v}) with '(' consumed.
func (p *cypherParser) parseNode() (*nodePat, error) {
	n := &nodePat{props: make(map[string]exprAST)}
	tok := p.lx.next()
	if tok != ":" && tok != "{" && tok != ")" {
		n.variable = tok
		tok = p.lx.next()
	}
	for tok == ":" {
		n.labels = append(n.labels, p.lx.next())
		tok = p.lx.next()
	}
	if tok == "{" {
		for {
			key := p.lx.next()
			if key == "}" {
				break
			}
			if p.lx.next() != ":" {
				return nil, fmt.Errorf("expected ':' in property map")
			}
			p.lx.next()
			e, err := p.parsePrimaryNoAdvance()
			if err != nil {
				return nil, err
			}
			n.props[key] = e
			tok = p.lx.next()
			if tok == "," {
				continue
			}
			if tok == "}" {
				break
			}
			return nil, fmt.Errorf("expected ',' or '}' in property map, got %q", tok)
		}
		tok = p.lx.next()
	}
	if tok != ")" {
		return nil, fmt.Errorf("expected ')' to close node pattern, got %q", tok)
	}
	return n, nil
}

// parseRel parses [var:TYPE*1..3] with the opener consumed; consumes the
// closing ]-> or ]-.
func (p *cypherParser) parseRel(reverse bool) (*relPat, error) {
	r := &relPat{reverse: reverse, minHops: 1, maxHops: 1}
	tok := p.lx.next()
	if tok != ":" && tok != "*" && tok != "]->" && tok != "]-" {
		r.variable = tok
		tok = p.lx.next()
	}
	if tok == ":" {
		r.relType = p.lx.next()
		tok = p.lx.next()
	}
	if tok == "*" {
		r.varLen = true
		r.minHops, r.maxHops = 1, 8
		tok = p.lx.next()
		if n, err := strconv.Atoi(tok); err == nil {
			r.minHops = n
			tok = p.lx.next()
		}
		if tok == ".." {
			tok = p.lx.next()
			if n, err := strconv.Atoi(tok); err == nil {
				r.maxHops = n
				tok = p.lx.next()
			} else {
				r.maxHops = 16
			}
		} else {
			r.maxHops = r.minHops
		}
	}
	want := "]->"
	if reverse {
		want = "]-"
	}
	if tok != want {
		return nil, fmt.Errorf("expected %q to close relationship, got %q", want, tok)
	}
	return r, nil
}

// parseExpr advances then parses; on return lx.tok is the lookahead.
func (p *cypherParser) parseExpr() (exprAST, error) {
	p.lx.next()
	return p.parseExprNoAdvance()
}

func (p *cypherParser) parseExprNoAdvance() (exprAST, error) {
	return p.parseOr()
}

func (p *cypherParser) parseOr() (exprAST, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for strings.ToUpper(p.lx.tok) == "OR" {
		p.lx.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = boolExpr{op: "OR", l: l, r: r}
	}
	return l, nil
}

func (p *cypherParser) parseAnd() (exprAST, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for strings.ToUpper(p.lx.tok) == "AND" {
		p.lx.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = boolExpr{op: "AND", l: l, r: r}
	}
	return l, nil
}

// parseNot binds looser than comparisons so "NOT a = b" negates the whole
// comparison.
func (p *cypherParser) parseNot() (exprAST, error) {
	if strings.ToUpper(p.lx.tok) == "NOT" {
		// The only unbounded recursion in the grammar: "NOT NOT NOT ...".
		if err := p.meter.Enter(); err != nil {
			return nil, err
		}
		defer p.meter.Exit()
		p.lx.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notExpr{x: x}, nil
	}
	return p.parseCmp()
}

func (p *cypherParser) parseCmp() (exprAST, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	op := p.lx.tok
	switch strings.ToUpper(op) {
	case "=", "<>", "<", "<=", ">", ">=":
		p.lx.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return cmpExpr{op: op, l: l, r: r}, nil
	case "CONTAINS":
		p.lx.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return cmpExpr{op: "CONTAINS", l: l, r: r}, nil
	case "STARTS":
		if strings.ToUpper(p.lx.next()) != "WITH" {
			return nil, fmt.Errorf("expected WITH after STARTS")
		}
		p.lx.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return cmpExpr{op: "STARTS_WITH", l: l, r: r}, nil
	}
	return l, nil
}

// parsePrimary parses the current token as a primary and advances past it.
func (p *cypherParser) parsePrimary() (exprAST, error) {
	e, err := p.parsePrimaryNoAdvance()
	if err != nil {
		return nil, err
	}
	p.lx.next()
	return e, nil
}

// parsePrimaryNoAdvance interprets the current token without consuming the
// lookahead (used inside property maps where the caller manages commas).
func (p *cypherParser) parsePrimaryNoAdvance() (exprAST, error) {
	tok := p.lx.tok
	if tok == "" {
		return nil, fmt.Errorf("unexpected end of query")
	}
	upper := strings.ToUpper(tok)
	switch {
	case upper == "TRUE":
		return litExpr{val: true}, nil
	case upper == "FALSE":
		return litExpr{val: false}, nil
	case tok[0] == '\'' || tok[0] == '"':
		return litExpr{val: strings.Trim(tok, "'\"")}, nil
	case tok[0] == '$':
		return paramExpr{name: tok[1:]}, nil
	case tok[0] >= '0' && tok[0] <= '9' || tok[0] == '-' && len(tok) > 1:
		if strings.Contains(tok, ".") {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("bad number %q", tok)
			}
			return litExpr{val: f}, nil
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", tok)
		}
		return litExpr{val: n}, nil
	case upper == "COUNT":
		if p.lx.next() != "(" {
			return nil, fmt.Errorf("expected '(' after count")
		}
		v := p.lx.next()
		if p.lx.next() != ")" {
			return nil, fmt.Errorf("expected ')' after count variable")
		}
		return countExpr{variable: v}, nil
	case strings.Contains(tok, "."):
		parts := strings.SplitN(tok, ".", 2)
		return propExpr{variable: parts[0], prop: parts[1]}, nil
	case isWordChar(tok[0]):
		return varExpr{name: tok}, nil
	}
	return nil, fmt.Errorf("unexpected token %q in expression", tok)
}
