package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// StmtKind classifies analyzed statements.
type StmtKind int

// Statement kinds.
const (
	KindSelect StmtKind = iota
	KindInsert
	KindUpdate
	KindDelete
)

// PredKind classifies local predicates on one table.
type PredKind int

// Predicate kinds. Eq, Range and In are sargable (an index with a matching
// leading key column can seek on them); Like with a literal prefix seeks as
// a range; Residual predicates can only filter rows after access.
const (
	PredEq PredKind = iota
	PredRange
	PredIn
	PredLike
	PredResidual
)

// Pred is one local predicate on a column of one table.
type Pred struct {
	Column string
	Kind   PredKind

	// Eq / In.
	Value    float64
	StrValue string
	IsStr    bool
	InSize   int

	// Range: (Lo, Hi) with inclusivity flags; use ±Inf for open ends.
	Lo, Hi       float64
	IncLo, IncHi bool

	// Like keeps the pattern; a pattern with a literal prefix is sargable.
	Pattern string

	// DefaultSel is the guess used for residual predicates.
	DefaultSel float64
	// Cols lists the columns a residual predicate reads (Column is empty
	// for residuals spanning arithmetic); used by view matching.
	Cols []string
}

// InputColumns returns every column the predicate reads.
func (p Pred) InputColumns() []string {
	if p.Column != "" {
		return []string{p.Column}
	}
	return p.Cols
}

// Sargable reports whether the predicate can drive an index seek.
func (p Pred) Sargable() bool {
	switch p.Kind {
	case PredEq, PredRange, PredIn:
		return true
	case PredLike:
		return likePrefix(p.Pattern) != ""
	default:
		return false
	}
}

// likePrefix returns the literal prefix of a LIKE pattern ("" if none).
func likePrefix(pattern string) string {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern
	}
	return pattern[:i]
}

// Scope is one table instance of the query with its local predicates and the
// columns the query needs from it.
type Scope struct {
	Binding string // alias or table name used in the query text
	Table   *catalog.Table
	Preds   []Pred
	// Required are the columns the plan must produce from this table
	// (projections, join keys, grouping, ordering, aggregate arguments,
	// residual-predicate inputs), sorted.
	Required []string

	required map[string]bool
}

func (s *Scope) need(col string) {
	if s.required == nil {
		s.required = map[string]bool{}
	}
	col = strings.ToLower(col)
	if !s.required[col] {
		s.required[col] = true
		s.Required = append(s.Required, col)
		sort.Strings(s.Required)
	}
}

// ScopedCol names a column of one scope.
type ScopedCol struct {
	Scope  int
	Column string
}

// JoinEdge is one equality join between two scopes.
type JoinEdge struct {
	L, R       int // scope indices
	LCol, RCol string
}

// ResidualFilter is a non-sargable filter that may span several scopes; it
// is applied after the join with the given selectivity estimate.
type ResidualFilter struct {
	Scopes []int
	Sel    float64
	Cols   []ScopedCol
}

// QueryInfo is the analyzed, catalog-bound form of a statement — the shape
// both the optimizer and the advisor's candidate-generation step consume.
type QueryInfo struct {
	Kind   StmtKind
	Stmt   sqlparser.Statement
	Scopes []*Scope
	Joins  []JoinEdge

	GroupBy     []ScopedCol
	OrderBy     []ScopedCol
	OrderDesc   []bool
	Aggs        []catalog.Agg
	PostFilters []ResidualFilter
	HasHaving   bool
	Distinct    bool
	Top         int

	// PlainSelectCols are columns projected outside of aggregates; together
	// with grouping, ordering and predicate columns they form the column
	// set a materialized view must expose to answer the query.
	PlainSelectCols []ScopedCol

	// AggCanon maps each aggregate FuncExpr node in the statement to its
	// canonical catalog form (qualifiers rewritten to table names), so the
	// engine and view matching agree on aggregate identity.
	AggCanon map[*sqlparser.FuncExpr]catalog.Agg

	// DML fields (Target duplicates Scopes[0] for Update/Delete).
	InsertRowCount int
	SetColumns     []string
}

// Analyze resolves a statement against the catalog: tables, per-table
// predicates, join edges, grouping/ordering/aggregation, and the column sets
// each table must produce.
func Analyze(cat *catalog.Catalog, stmt sqlparser.Statement) (*QueryInfo, error) {
	a := &analyzer{cat: cat}
	switch s := stmt.(type) {
	case *sqlparser.Select:
		return a.analyzeSelect(s)
	case *sqlparser.Insert:
		return a.analyzeInsert(s)
	case *sqlparser.Update:
		return a.analyzeUpdate(s)
	case *sqlparser.Delete:
		return a.analyzeDelete(s)
	default:
		return nil, fmt.Errorf("optimizer: unsupported statement type %T", stmt)
	}
}

type analyzer struct {
	cat *catalog.Catalog
	q   *QueryInfo
}

func (a *analyzer) analyzeSelect(s *sqlparser.Select) (*QueryInfo, error) {
	q := &QueryInfo{Kind: KindSelect, Stmt: s, Distinct: s.Distinct, Top: s.Top, AggCanon: map[*sqlparser.FuncExpr]catalog.Agg{}}
	a.q = q
	for _, ref := range s.From {
		t := a.cat.ResolveTable(ref.Name)
		if t == nil {
			return nil, fmt.Errorf("optimizer: unknown table %q", ref.Name)
		}
		q.Scopes = append(q.Scopes, &Scope{Binding: ref.Binding(), Table: t})
	}

	// Predicates.
	for _, conj := range sqlparser.Conjuncts(s.Where) {
		if err := a.addCondition(conj); err != nil {
			return nil, err
		}
	}

	// Projections and aggregates.
	for _, it := range s.Items {
		if it.Expr == nil { // SELECT *
			for i, sc := range q.Scopes {
				for _, c := range sc.Table.Columns {
					q.Scopes[i].need(c.Name)
					q.PlainSelectCols = append(q.PlainSelectCols, ScopedCol{Scope: i, Column: strings.ToLower(c.Name)})
				}
			}
			continue
		}
		if f, ok := it.Expr.(*sqlparser.FuncExpr); ok {
			q.Aggs = append(q.Aggs, a.aggOf(f))
			a.needExprCols(f.Arg)
			continue
		}
		if c, ok := it.Expr.(*sqlparser.ColName); ok {
			// A bare column projection must resolve.
			if _, _, err := a.resolve(c); err != nil {
				return nil, err
			}
		}
		a.needExprCols(it.Expr)
		q.PlainSelectCols = append(q.PlainSelectCols, a.exprCols(it.Expr)...)
	}

	// Grouping.
	for _, g := range s.GroupBy {
		si, col, err := a.resolve(g)
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, ScopedCol{Scope: si, Column: col})
		q.Scopes[si].need(col)
	}

	// Having: walk for aggregates and columns; costed as a residual.
	if s.Having != nil {
		q.HasHaving = true
		sqlparser.WalkExprs(s.Having, func(e sqlparser.Expr) {
			if f, ok := e.(*sqlparser.FuncExpr); ok {
				q.Aggs = append(q.Aggs, a.aggOf(f))
				a.needExprCols(f.Arg)
			}
		})
	}

	// Ordering. Order-by over aggregates, arithmetic, or select-list aliases
	// is a plain sort; only direct column references participate in sort
	// avoidance.
	for _, o := range s.OrderBy {
		expr := o.Expr
		// An unqualified name matching a select-list alias refers to that
		// item (SQL resolution order prefers the alias).
		if c, ok := expr.(*sqlparser.ColName); ok && c.Qualifier == "" {
			for _, it := range s.Items {
				if it.Alias == c.Name && it.Expr != nil {
					expr = it.Expr
					break
				}
			}
		}
		if f, ok := expr.(*sqlparser.FuncExpr); ok {
			q.Aggs = append(q.Aggs, a.aggOf(f))
			a.needExprCols(f.Arg)
			q.OrderBy = append(q.OrderBy, ScopedCol{Scope: -1})
			q.OrderDesc = append(q.OrderDesc, o.Desc)
			continue
		}
		if c, ok := expr.(*sqlparser.ColName); ok {
			si, col, err := a.resolve(c)
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, ScopedCol{Scope: si, Column: col})
			q.OrderDesc = append(q.OrderDesc, o.Desc)
			q.Scopes[si].need(col)
		} else {
			a.needExprCols(expr)
			q.OrderBy = append(q.OrderBy, ScopedCol{Scope: -1})
			q.OrderDesc = append(q.OrderDesc, o.Desc)
		}
	}

	dedupAggs(q)
	return q, nil
}

// aggOf converts a parsed aggregate into the catalog's canonical form.
// Aggregates over arithmetic expressions get a synthetic column name equal
// to the deparsed expression with alias qualifiers rewritten to table names,
// so structurally identical aggregates (in a query and in a view candidate)
// compare equal regardless of aliasing.
func (a *analyzer) aggOf(f *sqlparser.FuncExpr) catalog.Agg {
	ag := a.aggOfInner(f)
	if a.q.AggCanon != nil {
		a.q.AggCanon[f] = ag
	}
	return ag
}

func (a *analyzer) aggOfInner(f *sqlparser.FuncExpr) catalog.Agg {
	if f.Star {
		return catalog.Agg{Func: strings.ToUpper(f.Name)}
	}
	if c, ok := f.Arg.(*sqlparser.ColName); ok {
		if si, col, err := a.resolve(c); err == nil {
			return catalog.Agg{Func: strings.ToUpper(f.Name), Col: catalog.NewColRef(a.q.Scopes[si].Table.Name, col)}
		}
	}
	tbl := ""
	if cols := a.exprCols(f.Arg); len(cols) > 0 {
		tbl = a.q.Scopes[cols[0].Scope].Table.Name
	}
	canon := a.canonExpr(f.Arg)
	return catalog.Agg{Func: strings.ToUpper(f.Name), Col: catalog.ColRef{Table: strings.ToLower(tbl), Column: "expr:" + strings.ToLower(canon.String())}}
}

// canonExpr clones an expression rewriting every column qualifier to the
// owning table's name.
func (a *analyzer) canonExpr(e sqlparser.Expr) sqlparser.Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *sqlparser.ColName:
		if si, col, err := a.resolve(v); err == nil {
			return &sqlparser.ColName{Qualifier: a.q.Scopes[si].Table.Name, Name: col}
		}
		return &sqlparser.ColName{Qualifier: v.Qualifier, Name: v.Name}
	case *sqlparser.Literal:
		l := *v
		return &l
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: v.Op, Left: a.canonExpr(v.Left), Right: a.canonExpr(v.Right)}
	case *sqlparser.FuncExpr:
		return &sqlparser.FuncExpr{Name: v.Name, Star: v.Star, Arg: a.canonExpr(v.Arg)}
	default:
		return e
	}
}

func dedupAggs(q *QueryInfo) {
	seen := map[string]bool{}
	out := q.Aggs[:0]
	for _, ag := range q.Aggs {
		if k := ag.String(); !seen[k] {
			seen[k] = true
			out = append(out, ag)
		}
	}
	q.Aggs = out
}

func (a *analyzer) analyzeInsert(s *sqlparser.Insert) (*QueryInfo, error) {
	t := a.cat.ResolveTable(s.Table)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unknown table %q", s.Table)
	}
	q := &QueryInfo{Kind: KindInsert, Stmt: s, InsertRowCount: len(s.Rows)}
	q.Scopes = []*Scope{{Binding: strings.ToLower(s.Table), Table: t}}
	a.q = q
	return q, nil
}

func (a *analyzer) analyzeUpdate(s *sqlparser.Update) (*QueryInfo, error) {
	t := a.cat.ResolveTable(s.Table)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unknown table %q", s.Table)
	}
	q := &QueryInfo{Kind: KindUpdate, Stmt: s}
	q.Scopes = []*Scope{{Binding: strings.ToLower(s.Table), Table: t}}
	a.q = q
	for _, asn := range s.Set {
		q.SetColumns = append(q.SetColumns, strings.ToLower(asn.Column))
		a.needExprCols(asn.Value)
	}
	for _, conj := range sqlparser.Conjuncts(s.Where) {
		if err := a.addCondition(conj); err != nil {
			return nil, err
		}
	}
	return q, nil
}

func (a *analyzer) analyzeDelete(s *sqlparser.Delete) (*QueryInfo, error) {
	t := a.cat.ResolveTable(s.Table)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unknown table %q", s.Table)
	}
	q := &QueryInfo{Kind: KindDelete, Stmt: s}
	q.Scopes = []*Scope{{Binding: strings.ToLower(s.Table), Table: t}}
	a.q = q
	for _, conj := range sqlparser.Conjuncts(s.Where) {
		if err := a.addCondition(conj); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// resolve binds a column reference to a scope.
func (a *analyzer) resolve(c *sqlparser.ColName) (int, string, error) {
	if c.Qualifier != "" {
		for i, s := range a.q.Scopes {
			if s.Binding == c.Qualifier || s.Table.Name == c.Qualifier {
				if !s.Table.HasColumn(c.Name) {
					return 0, "", fmt.Errorf("optimizer: table %q has no column %q", s.Table.Name, c.Name)
				}
				return i, strings.ToLower(c.Name), nil
			}
		}
		return 0, "", fmt.Errorf("optimizer: unknown qualifier %q", c.Qualifier)
	}
	found := -1
	for i, s := range a.q.Scopes {
		if s.Table.HasColumn(c.Name) {
			if found >= 0 {
				return 0, "", fmt.Errorf("optimizer: ambiguous column %q", c.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, "", fmt.Errorf("optimizer: unknown column %q", c.Name)
	}
	return found, strings.ToLower(c.Name), nil
}

// exprCols returns the scoped columns referenced by an expression,
// silently skipping unresolvable references.
func (a *analyzer) exprCols(e sqlparser.Expr) []ScopedCol {
	var out []ScopedCol
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) {
		if c, ok := x.(*sqlparser.ColName); ok {
			if si, col, err := a.resolve(c); err == nil {
				out = append(out, ScopedCol{Scope: si, Column: col})
			}
		}
	})
	return out
}

// needExprCols marks every column in the expression as required.
func (a *analyzer) needExprCols(e sqlparser.Expr) {
	for _, sc := range a.exprCols(e) {
		a.q.Scopes[sc.Scope].need(sc.Column)
	}
}

// addCondition classifies one WHERE conjunct as a join edge, a sargable
// local predicate, or a residual filter.
func (a *analyzer) addCondition(e sqlparser.Expr) error {
	q := a.q
	switch v := e.(type) {
	case *sqlparser.ComparisonExpr:
		lc, lok := v.Left.(*sqlparser.ColName)
		rc, rok := v.Right.(*sqlparser.ColName)
		ll, llit := v.Right.(*sqlparser.Literal)
		rl, rlit := v.Left.(*sqlparser.Literal)
		switch {
		case lok && rok:
			li, lcol, err := a.resolve(lc)
			if err != nil {
				return err
			}
			ri, rcol, err := a.resolve(rc)
			if err != nil {
				return err
			}
			if li == ri {
				// Same-table column comparison: residual.
				a.addResidualCols([]ScopedCol{{Scope: li, Column: lcol}, {Scope: li, Column: rcol}}, 0.1)
				q.Scopes[li].need(lcol)
				q.Scopes[li].need(rcol)
				return nil
			}
			if v.Op != "=" {
				// Non-equality joins are residual post-join filters.
				a.addResidualCols([]ScopedCol{{Scope: li, Column: lcol}, {Scope: ri, Column: rcol}}, 0.3)
				q.Scopes[li].need(lcol)
				q.Scopes[ri].need(rcol)
				return nil
			}
			q.Joins = append(q.Joins, JoinEdge{L: li, R: ri, LCol: lcol, RCol: rcol})
			q.Scopes[li].need(lcol)
			q.Scopes[ri].need(rcol)
			return nil
		case lok && llit:
			return a.addComparisonPred(lc, v.Op, ll)
		case rok && rlit:
			return a.addComparisonPred(rc, flipOp(v.Op), rl)
		default:
			// Arithmetic or otherwise non-sargable comparison.
			a.addResidualCols(a.exprCols(e), defaultSelForOp(v.Op))
			a.needExprCols(e)
			return nil
		}
	case *sqlparser.BetweenExpr:
		c, ok := v.Expr.(*sqlparser.ColName)
		lo, lok := v.Lo.(*sqlparser.Literal)
		hi, hok := v.Hi.(*sqlparser.Literal)
		if ok && lok && hok {
			si, col, err := a.resolve(c)
			if err != nil {
				return err
			}
			q.Scopes[si].Preds = append(q.Scopes[si].Preds, Pred{
				Column: col, Kind: PredRange,
				Lo: litNum(lo), Hi: litNum(hi), IncLo: true, IncHi: true,
				IsStr: lo.Kind == sqlparser.LitString,
			})
			q.Scopes[si].need(col)
			return nil
		}
		a.addResidualCols(a.exprCols(e), 0.25)
		a.needExprCols(e)
		return nil
	case *sqlparser.InExpr:
		if c, ok := v.Expr.(*sqlparser.ColName); ok {
			si, col, err := a.resolve(c)
			if err != nil {
				return err
			}
			p := Pred{Column: col, Kind: PredIn, InSize: len(v.List)}
			if len(v.List) > 0 {
				if l, ok := v.List[0].(*sqlparser.Literal); ok {
					p.IsStr = l.Kind == sqlparser.LitString
					p.Value = l.F
					p.StrValue = l.S
				}
			}
			q.Scopes[si].Preds = append(q.Scopes[si].Preds, p)
			q.Scopes[si].need(col)
			return nil
		}
		a.addResidualCols(a.exprCols(e), 0.2)
		a.needExprCols(e)
		return nil
	case *sqlparser.OrExpr, *sqlparser.NotExpr:
		a.addResidualCols(a.exprCols(e), orSelectivity(e))
		a.needExprCols(e)
		return nil
	default:
		a.addResidualCols(a.exprCols(e), 0.3)
		a.needExprCols(e)
		return nil
	}
}

func (a *analyzer) addComparisonPred(c *sqlparser.ColName, op string, lit *sqlparser.Literal) error {
	si, col, err := a.resolve(c)
	if err != nil {
		return err
	}
	q := a.q
	sc := q.Scopes[si]
	isStr := lit.Kind == sqlparser.LitString
	switch op {
	case "=":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredEq, Value: lit.F, StrValue: lit.S, IsStr: isStr})
	case "<":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredRange, Lo: negInf, Hi: lit.F, IsStr: isStr})
	case "<=":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredRange, Lo: negInf, Hi: lit.F, IncHi: true, IsStr: isStr})
	case ">":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredRange, Lo: lit.F, Hi: posInf, IsStr: isStr})
	case ">=":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredRange, Lo: lit.F, Hi: posInf, IncLo: true, IsStr: isStr})
	case "<>":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredResidual, DefaultSel: 0.9})
	case "like":
		sc.Preds = append(sc.Preds, Pred{Column: col, Kind: PredLike, Pattern: lit.S})
	default:
		return fmt.Errorf("optimizer: unsupported comparison op %q", op)
	}
	sc.need(col)
	return nil
}

func (a *analyzer) addResidualCols(cols []ScopedCol, sel float64) {
	scopes := scopeSet(cols)
	if len(scopes) == 1 {
		var names []string
		seen := map[string]bool{}
		for _, c := range cols {
			if !seen[c.Column] {
				seen[c.Column] = true
				names = append(names, c.Column)
			}
		}
		a.q.Scopes[scopes[0]].Preds = append(a.q.Scopes[scopes[0]].Preds,
			Pred{Kind: PredResidual, DefaultSel: sel, Cols: names})
		return
	}
	if len(scopes) == 0 {
		return // constant condition; ignore
	}
	a.q.PostFilters = append(a.q.PostFilters, ResidualFilter{Scopes: scopes, Sel: sel, Cols: cols})
}

func scopeSet(cols []ScopedCol) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cols {
		if !seen[c.Scope] {
			seen[c.Scope] = true
			out = append(out, c.Scope)
		}
	}
	sort.Ints(out)
	return out
}

func litNum(l *sqlparser.Literal) float64 { return l.F }

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	default:
		return op
	}
}

func defaultSelForOp(op string) float64 {
	switch op {
	case "=":
		return 0.05
	case "<>":
		return 0.9
	default:
		return 0.3
	}
}

// orSelectivity gives a structural guess for OR/NOT residuals.
func orSelectivity(e sqlparser.Expr) float64 {
	switch v := e.(type) {
	case *sqlparser.OrExpr:
		l, r := orSelectivity(v.Left), orSelectivity(v.Right)
		return clampSel(l + r - l*r)
	case *sqlparser.NotExpr:
		return clampSel(1 - orSelectivity(v.Inner))
	case *sqlparser.ComparisonExpr:
		return defaultSelForOp(v.Op)
	case *sqlparser.AndExpr:
		return clampSel(orSelectivity(v.Left) * orSelectivity(v.Right))
	case *sqlparser.BetweenExpr:
		return 0.25
	case *sqlparser.InExpr:
		return 0.15
	default:
		return 0.3
	}
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)
