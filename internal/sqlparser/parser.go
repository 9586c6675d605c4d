package sqlparser

import (
	"fmt"
	"strings"
)

// Parse parses one SQL statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	return p.parse()
}

// parse parses the whole token stream as one statement.
func (p *parser) parse() (Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlparser: trailing input at %s", p.peek())
	}
	return stmt, nil
}

// MustParse parses sql and panics on error; intended for tests and
// statically known query templates.
func MustParse(sql string) Statement {
	s, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []token
	i    int
	src  string
	// lits, when track is set, collects the literals made from literal
	// tokens in the order the tokens were consumed (see
	// TemplateScanner.Parse).
	track bool
	lits  []*Literal
}

// literal returns a literal node for the token just consumed.
func (p *parser) literal(l *Literal) *Literal {
	if p.track {
		p.lits = append(p.lits, l)
	}
	return l
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %s, found %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

// accept consumes the punctuation token if present.
func (p *parser) accept(punct string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == punct {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(punct string) error {
	if !p.accept(punct) {
		return fmt.Errorf("sqlparser: expected %q, found %s", punct, p.peek())
	}
	return nil
}

var reservedAfterTable = map[string]bool{
	"where": true, "group": true, "order": true, "having": true,
	"join": true, "inner": true, "left": true, "right": true, "on": true,
	"set": true, "values": true, "and": true, "or": true, "union": true,
	"top": true, "as": true, "from": true, "desc": true, "asc": true,
	"between": true, "in": true, "like": true, "not": true, "distinct": true,
	"option": true, "limit": true,
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("select"):
		return p.parseSelect()
	case p.isKeyword("insert"):
		return p.parseInsert()
	case p.isKeyword("update"):
		return p.parseUpdate()
	case p.isKeyword("delete"):
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("sqlparser: expected statement, found %s", p.peek())
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("distinct") {
		sel.Distinct = true
	}
	if p.acceptKeyword("top") {
		t := p.advance()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqlparser: TOP expects a number, found %s", t)
		}
		sel.Top = int(t.num)
	}
	// Select list.
	for {
		if p.accept("*") {
			sel.Items = append(sel.Items, SelectItem{Expr: nil})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("as") {
				a := p.advance()
				if a.kind != tokIdent {
					return nil, fmt.Errorf("sqlparser: expected alias, found %s", a)
				}
				item.Alias = strings.ToLower(a.text)
			} else if t := p.peek(); t.kind == tokIdent && !reservedAfterTable[strings.ToLower(t.text)] {
				item.Alias = strings.ToLower(p.advance().text)
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	var joinConds []Expr
	if err := p.parseFromList(sel, &joinConds); err != nil {
		return nil, err
	}
	if p.acceptKeyword("where") {
		w, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		joinConds = append(joinConds, w)
	}
	sel.Where = AndAll(joinConds)
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColName()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		h, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				it.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			sel.OrderBy = append(sel.OrderBy, it)
			if !p.accept(",") {
				break
			}
		}
	}
	return sel, nil
}

// parseFromList parses "t1 a, t2 b" and "t1 a JOIN t2 b ON cond ..." forms,
// appending ON conditions to joinConds (they are folded into WHERE).
func (p *parser) parseFromList(sel *Select, joinConds *[]Expr) error {
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return err
		}
		sel.From = append(sel.From, ref)
		for {
			inner := p.acceptKeyword("inner")
			if !p.isKeyword("join") {
				if inner {
					return fmt.Errorf("sqlparser: expected JOIN after INNER, found %s", p.peek())
				}
				break
			}
			p.advance() // join
			jref, err := p.parseTableRef()
			if err != nil {
				return err
			}
			sel.From = append(sel.From, jref)
			if err := p.expectKeyword("on"); err != nil {
				return err
			}
			cond, err := p.parseOrExpr()
			if err != nil {
				return err
			}
			*joinConds = append(*joinConds, cond)
		}
		if !p.accept(",") {
			return nil
		}
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return TableRef{}, fmt.Errorf("sqlparser: expected table name, found %s", t)
	}
	ref := TableRef{Name: strings.ToLower(t.text)}
	if p.acceptKeyword("as") {
		a := p.advance()
		if a.kind != tokIdent {
			return TableRef{}, fmt.Errorf("sqlparser: expected alias, found %s", a)
		}
		ref.Alias = strings.ToLower(a.text)
	} else if nt := p.peek(); nt.kind == tokIdent && !reservedAfterTable[strings.ToLower(nt.text)] {
		ref.Alias = strings.ToLower(p.advance().text)
	}
	return ref, nil
}

func (p *parser) parseColName() (*ColName, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected column name, found %s", t)
	}
	c := &ColName{Name: strings.ToLower(t.text)}
	if p.accept(".") {
		n := p.advance()
		if n.kind != tokIdent {
			return nil, fmt.Errorf("sqlparser: expected column after '.', found %s", n)
		}
		c.Qualifier = c.Name
		c.Name = strings.ToLower(n.text)
	}
	return c, nil
}

// Boolean expression grammar: or → and → not → predicate.
func (p *parser) parseOrExpr() (Expr, error) {
	left, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		left = &OrExpr{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAndExpr() (Expr, error) {
	left, err := p.parseNotExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parseNotExpr()
		if err != nil {
			return nil, err
		}
		left = &AndExpr{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNotExpr() (Expr, error) {
	if p.acceptKeyword("not") {
		inner, err := p.parseNotExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	// A '(' here may open either a boolean group "(a = 1 OR b = 2)" or a
	// parenthesized scalar "(a + b) > 5". Try the boolean reading first and
	// backtrack to the scalar reading if it fails.
	if p.peek().kind == tokPunct && p.peek().text == "(" {
		save, saveLits := p.i, len(p.lits)
		p.advance()
		e, err := p.parseOrExpr()
		if err == nil && p.accept(")") {
			// "(x) = 5" parses x as a lone scalar and fails inside
			// parseOrExpr, so reaching here means a genuine boolean group.
			return e, nil
		}
		p.i, p.lits = save, p.lits[:saveLits] // backtrack: parse as scalar comparison below
	}
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("between") {
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi}, nil
	}
	if p.acceptKeyword("not") {
		if p.acceptKeyword("like") {
			right, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &NotExpr{Inner: &ComparisonExpr{Op: "like", Left: left, Right: right}}, nil
		}
		if p.acceptKeyword("in") {
			in, err := p.parseInList(left)
			if err != nil {
				return nil, err
			}
			return &NotExpr{Inner: in}, nil
		}
		return nil, fmt.Errorf("sqlparser: expected LIKE or IN after NOT, found %s", p.peek())
	}
	if p.acceptKeyword("like") {
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ComparisonExpr{Op: "like", Left: left, Right: right}, nil
	}
	if p.acceptKeyword("in") {
		return p.parseInList(left)
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "<", ">", "<=", ">=", "<>":
			p.advance()
			right, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &ComparisonExpr{Op: t.text, Left: left, Right: right}, nil
		}
	}
	return nil, fmt.Errorf("sqlparser: expected comparison operator, found %s", t)
}

func (p *parser) parseInList(left Expr) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	in := &InExpr{Expr: left}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return in, nil
}

// Scalar expression grammar: addsub → muldiv → primary.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.advance()
			right, err := p.parseMulDiv()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMulDiv() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokPunct && (t.text == "*" || t.text == "/") {
			p.advance()
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

var aggFuncs = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		return p.literal(&Literal{Kind: LitNumber, F: t.num}), nil
	case tokString:
		p.advance()
		return p.literal(&Literal{Kind: LitString, S: t.text}), nil
	case tokParam:
		p.advance()
		return p.literal(&Literal{Kind: LitParam}), nil
	case tokIdent:
		name := strings.ToLower(t.text)
		if aggFuncs[name] && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "(" {
			p.advance() // func name
			p.advance() // (
			f := &FuncExpr{Name: name}
			if p.accept("*") {
				f.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Arg = arg
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		return p.parseColName()
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			p.advance()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: "*", Left: &Literal{Kind: LitNumber, F: -1}, Right: e}, nil
		}
	}
	return nil, fmt.Errorf("sqlparser: expected expression, found %s", t)
}

func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	t := p.advance()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected table name, found %s", t)
	}
	ins := &Insert{Table: strings.ToLower(t.text)}
	if p.accept("(") {
		for {
			c := p.advance()
			if c.kind != tokIdent {
				return nil, fmt.Errorf("sqlparser: expected column name, found %s", c)
			}
			ins.Columns = append(ins.Columns, strings.ToLower(c.text))
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	if err := p.expectKeyword("update"); err != nil {
		return nil, err
	}
	t := p.advance()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected table name, found %s", t)
	}
	u := &Update{Table: strings.ToLower(t.text)}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	for {
		c := p.advance()
		if c.kind != tokIdent {
			return nil, fmt.Errorf("sqlparser: expected column name, found %s", c)
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: strings.ToLower(c.text), Value: v})
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		w, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	t := p.advance()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected table name, found %s", t)
	}
	d := &Delete{Table: strings.ToLower(t.text)}
	if p.acceptKeyword("where") {
		w, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}
