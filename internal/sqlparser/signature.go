package sqlparser

// Signature returns the templatization key of a statement: the deparsed SQL
// with every constant replaced by a '?' placeholder. Two statements have the
// same signature iff they are identical in all respects except for the
// constants referenced (paper §5.1). Workload compression partitions the
// workload by this key.
func Signature(s Statement) string {
	return stripConstants(s).String()
}

// stripConstants deep-copies the statement with all literals replaced by
// parameter placeholders.
func stripConstants(s Statement) Statement {
	switch v := s.(type) {
	case *Select:
		out := &Select{Top: v.Top, Distinct: v.Distinct}
		for _, it := range v.Items {
			out.Items = append(out.Items, SelectItem{Expr: stripExpr(it.Expr), Alias: it.Alias})
		}
		out.From = append(out.From, v.From...)
		out.Where = stripExpr(v.Where)
		for _, g := range v.GroupBy {
			out.GroupBy = append(out.GroupBy, &ColName{Qualifier: g.Qualifier, Name: g.Name})
		}
		out.Having = stripExpr(v.Having)
		for _, o := range v.OrderBy {
			out.OrderBy = append(out.OrderBy, OrderItem{Expr: stripExpr(o.Expr), Desc: o.Desc})
		}
		return out
	case *Insert:
		out := &Insert{Table: v.Table, Columns: append([]string(nil), v.Columns...)}
		for _, row := range v.Rows {
			nr := make([]Expr, len(row))
			for i, e := range row {
				nr[i] = stripExpr(e)
			}
			out.Rows = append(out.Rows, nr)
		}
		return out
	case *Update:
		out := &Update{Table: v.Table, Where: stripExpr(v.Where)}
		for _, a := range v.Set {
			out.Set = append(out.Set, Assignment{Column: a.Column, Value: stripExpr(a.Value)})
		}
		return out
	case *Delete:
		return &Delete{Table: v.Table, Where: stripExpr(v.Where)}
	default:
		return s
	}
}

func stripExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case *Literal:
		return &Literal{Kind: LitParam}
	case *ColName:
		return &ColName{Qualifier: v.Qualifier, Name: v.Name}
	case *BinaryExpr:
		return &BinaryExpr{Op: v.Op, Left: stripExpr(v.Left), Right: stripExpr(v.Right)}
	case *FuncExpr:
		return &FuncExpr{Name: v.Name, Star: v.Star, Arg: stripExpr(v.Arg)}
	case *ComparisonExpr:
		return &ComparisonExpr{Op: v.Op, Left: stripExpr(v.Left), Right: stripExpr(v.Right)}
	case *BetweenExpr:
		return &BetweenExpr{Expr: stripExpr(v.Expr), Lo: stripExpr(v.Lo), Hi: stripExpr(v.Hi)}
	case *InExpr:
		out := &InExpr{Expr: stripExpr(v.Expr)}
		// IN lists of different lengths still share a template; collapse the
		// list to a single placeholder so "IN (1,2)" matches "IN (1,2,3)".
		out.List = []Expr{&Literal{Kind: LitParam}}
		return out
	case *AndExpr:
		return &AndExpr{Left: stripExpr(v.Left), Right: stripExpr(v.Right)}
	case *OrExpr:
		return &OrExpr{Left: stripExpr(v.Left), Right: stripExpr(v.Right)}
	case *NotExpr:
		return &NotExpr{Inner: stripExpr(v.Inner)}
	default:
		return e
	}
}

// Constants returns every literal in the statement in deterministic walk
// order. Workload compression's distance function compares the constant
// vectors of two statements sharing a signature.
func Constants(s Statement) []*Literal {
	var out []*Literal
	WalkStatement(s, func(e Expr) {
		if l, ok := e.(*Literal); ok {
			out = append(out, l)
		}
	})
	return out
}
