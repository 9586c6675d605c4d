package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	// String deparses the statement back to SQL text.
	String() string
	// Memo returns the statement's memo slot, in which a consumer caches a
	// value it derives from the statement — the optimizer keeps its catalog
	// analysis there — so the value lives exactly as long as the statement
	// and nothing has to bound or evict it. The parser never sets or reads
	// it; the optimizer is its one writer, as an atomic.Value holds a single
	// concrete type.
	Memo() *atomic.Value
	// textSlot is the slot Text keeps the deparsed statement in.
	textSlot() *atomic.Value
}

// deparsed is a statement's entry in its text slot. The stmt check rejects
// an entry copied along with a statement value.
type deparsed struct {
	stmt Statement
	text string
}

// Text returns s.String(), deparsing each statement node once: a parsed
// statement is never modified, so its text is a pure function of the node,
// and a caller that keys on the text of the same statements over and over
// (the what-if server's plan cache) pays for the deparse once. Safe for
// concurrent use.
func Text(s Statement) string {
	slot := s.textSlot()
	if d, _ := slot.Load().(*deparsed); d != nil && d.stmt == s {
		return d.text
	}
	text := s.String()
	slot.Store(&deparsed{stmt: s, text: text})
	return text
}

// Expr is any scalar or boolean expression.
type Expr interface {
	exprNode()
	String() string
}

// ColName references a column, optionally qualified by a table name or
// alias. Both parts are stored lower-cased.
type ColName struct {
	Qualifier string
	Name      string
}

func (*ColName) exprNode() {}

// String renders "qualifier.name" or "name".
func (c *ColName) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// LitKind distinguishes literal value kinds.
type LitKind int

// Literal kinds.
const (
	LitNumber LitKind = iota
	LitString
	LitParam // a '?' placeholder from a templatized workload
)

// Literal is a constant in the query text.
type Literal struct {
	Kind LitKind
	F    float64
	S    string
}

func (*Literal) exprNode() {}

// String renders the literal as SQL.
func (l *Literal) String() string {
	switch l.Kind {
	case LitNumber:
		return trimNum(l.F)
	case LitString:
		return "'" + strings.ReplaceAll(l.S, "'", "''") + "'"
	default:
		return "?"
	}
}

// trimNum renders a number in the shortest decimal form that reads back as
// the same float64, never in exponent form, which the lexer does not read:
// %g would render 7700000 as 7.7e+06.
func trimNum(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// Value returns the literal's numeric interpretation: the number itself, or
// a stable fold of a string used for dictionary ordering.
func (l *Literal) Value() float64 { return l.F }

// BinaryExpr is a scalar arithmetic expression.
type BinaryExpr struct {
	Op          string // + - * /
	Left, Right Expr
}

func (*BinaryExpr) exprNode() {}

// String renders "(l op r)", and a unary minus — which the parser reads as
// the product (-1 * e) — as "-(e)", which parses back to that product: the
// literal form would re-parse to ((-1 * 1) * e) and grow on every round
// trip, and "-e" would turn "- -5" into "--5", a comment.
func (b *BinaryExpr) String() string {
	if l, ok := b.Left.(*Literal); ok && b.Op == "*" && l.Kind == LitNumber && l.F == -1 {
		return "-(" + b.Right.String() + ")"
	}
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// FuncExpr is a function call; in this subset, always an aggregate.
type FuncExpr struct {
	Name string // lower-case: count, sum, avg, min, max
	Star bool   // COUNT(*)
	Arg  Expr   // nil when Star
}

func (*FuncExpr) exprNode() {}

// String renders "NAME(arg)".
func (f *FuncExpr) String() string {
	if f.Star {
		return strings.ToUpper(f.Name) + "(*)"
	}
	return strings.ToUpper(f.Name) + "(" + f.Arg.String() + ")"
}

// ComparisonExpr is a boolean comparison: col op expr, expr op expr.
// Ops: = < > <= >= <> LIKE.
type ComparisonExpr struct {
	Op          string
	Left, Right Expr
}

func (*ComparisonExpr) exprNode() {}

// String renders "l op r".
func (c *ComparisonExpr) String() string {
	return c.Left.String() + " " + c.Op + " " + c.Right.String()
}

// BetweenExpr is "expr BETWEEN lo AND hi".
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
}

func (*BetweenExpr) exprNode() {}

// String renders the BETWEEN form.
func (b *BetweenExpr) String() string {
	return b.Expr.String() + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String()
}

// InExpr is "expr IN (v1, v2, ...)".
type InExpr struct {
	Expr Expr
	List []Expr
}

func (*InExpr) exprNode() {}

// String renders the IN form.
func (i *InExpr) String() string {
	items := make([]string, len(i.List))
	for k, e := range i.List {
		items[k] = e.String()
	}
	return i.Expr.String() + " IN (" + strings.Join(items, ", ") + ")"
}

// AndExpr is a boolean conjunction.
type AndExpr struct{ Left, Right Expr }

func (*AndExpr) exprNode() {}

// String renders "l AND r".
func (a *AndExpr) String() string { return a.Left.String() + " AND " + a.Right.String() }

// OrExpr is a boolean disjunction.
type OrExpr struct{ Left, Right Expr }

func (*OrExpr) exprNode() {}

// String renders "(l OR r)".
func (o *OrExpr) String() string { return "(" + o.Left.String() + " OR " + o.Right.String() + ")" }

// NotExpr is boolean negation.
type NotExpr struct{ Inner Expr }

func (*NotExpr) exprNode() {}

// String renders "NOT (inner)".
func (n *NotExpr) String() string { return "NOT (" + n.Inner.String() + ")" }

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	Expr  Expr // nil means '*'
	Alias string
}

// String renders "expr AS alias".
func (s SelectItem) String() string {
	if s.Expr == nil {
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// TableRef is a FROM-list table with an optional alias (lower-cased).
type TableRef struct {
	Name  string
	Alias string
}

// String renders "name alias".
func (t TableRef) String() string {
	if t.Alias != "" && t.Alias != t.Name {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// Binding returns the name the query text uses to qualify columns of this
// table: the alias if present, else the table name.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// String renders "expr [DESC]".
func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// Select is a parsed SELECT statement. JOIN ... ON syntax is normalized at
// parse time into the flat From list with the ON condition folded into Where,
// which is the shape the optimizer's join enumeration consumes.
type Select struct {
	Top      int // 0 = no TOP clause
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil = no predicate
	GroupBy  []*ColName
	Having   Expr
	OrderBy  []OrderItem

	memo atomic.Value
	text atomic.Value
}

func (*Select) stmtNode() {}

// Memo returns the statement's memo slot (see Statement).
func (s *Select) Memo() *atomic.Value { return &s.memo }

func (s *Select) textSlot() *atomic.Value { return &s.text }

// String deparses the SELECT.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Top > 0 {
		fmt.Fprintf(&b, "TOP %d ", s.Top)
	}
	if len(s.Items) == 0 {
		b.WriteString("*")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	return b.String()
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Insert is a parsed INSERT statement.
type Insert struct {
	Table   string
	Columns []string // may be empty (positional)
	Rows    [][]Expr

	memo atomic.Value
	text atomic.Value
}

func (*Insert) stmtNode() {}

// Memo returns the statement's memo slot (see Statement).
func (ins *Insert) Memo() *atomic.Value { return &ins.memo }

func (ins *Insert) textSlot() *atomic.Value { return &ins.text }

// String deparses the INSERT.
func (ins *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(ins.Table)
	if len(ins.Columns) > 0 {
		b.WriteString(" (" + strings.Join(ins.Columns, ", ") + ")")
	}
	b.WriteString(" VALUES ")
	for i, row := range ins.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Update is a parsed UPDATE statement.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr

	memo atomic.Value
	text atomic.Value
}

func (*Update) stmtNode() {}

// Memo returns the statement's memo slot (see Statement).
func (u *Update) Memo() *atomic.Value { return &u.memo }

func (u *Update) textSlot() *atomic.Value { return &u.text }

// String deparses the UPDATE.
func (u *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(u.Table)
	b.WriteString(" SET ")
	for i, a := range u.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.Value.String())
	}
	if u.Where != nil {
		b.WriteString(" WHERE " + u.Where.String())
	}
	return b.String()
}

// Delete is a parsed DELETE statement.
type Delete struct {
	Table string
	Where Expr

	memo atomic.Value
	text atomic.Value
}

func (*Delete) stmtNode() {}

// Memo returns the statement's memo slot (see Statement).
func (d *Delete) Memo() *atomic.Value { return &d.memo }

func (d *Delete) textSlot() *atomic.Value { return &d.text }

// String deparses the DELETE.
func (d *Delete) String() string {
	s := "DELETE FROM " + d.Table
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// WalkExprs calls fn for every expression node reachable from e, pre-order.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *BinaryExpr:
		WalkExprs(v.Left, fn)
		WalkExprs(v.Right, fn)
	case *FuncExpr:
		WalkExprs(v.Arg, fn)
	case *ComparisonExpr:
		WalkExprs(v.Left, fn)
		WalkExprs(v.Right, fn)
	case *BetweenExpr:
		WalkExprs(v.Expr, fn)
		WalkExprs(v.Lo, fn)
		WalkExprs(v.Hi, fn)
	case *InExpr:
		WalkExprs(v.Expr, fn)
		for _, x := range v.List {
			WalkExprs(x, fn)
		}
	case *AndExpr:
		WalkExprs(v.Left, fn)
		WalkExprs(v.Right, fn)
	case *OrExpr:
		WalkExprs(v.Left, fn)
		WalkExprs(v.Right, fn)
	case *NotExpr:
		WalkExprs(v.Inner, fn)
	}
}

// WalkStatement calls fn for every expression in the statement.
func WalkStatement(s Statement, fn func(Expr)) {
	switch v := s.(type) {
	case *Select:
		for _, it := range v.Items {
			WalkExprs(it.Expr, fn)
		}
		WalkExprs(v.Where, fn)
		for _, g := range v.GroupBy {
			WalkExprs(g, fn)
		}
		WalkExprs(v.Having, fn)
		for _, o := range v.OrderBy {
			WalkExprs(o.Expr, fn)
		}
	case *Insert:
		for _, row := range v.Rows {
			for _, e := range row {
				WalkExprs(e, fn)
			}
		}
	case *Update:
		for _, a := range v.Set {
			WalkExprs(a.Value, fn)
		}
		WalkExprs(v.Where, fn)
	case *Delete:
		WalkExprs(v.Where, fn)
	}
}

// Conjuncts flattens an AND tree into its conjunct list. A nil expression
// yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*AndExpr); ok {
		return append(Conjuncts(a.Left), Conjuncts(a.Right)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from a list (nil for empty).
func AndAll(list []Expr) Expr {
	var out Expr
	for _, e := range list {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &AndExpr{Left: out, Right: e}
		}
	}
	return out
}
