package sqlparser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleSelect(t *testing.T) {
	s := MustParse("SELECT a, COUNT(*) FROM T WHERE X < 10 GROUP BY A").(*Select)
	if len(s.Items) != 2 {
		t.Fatalf("items = %d", len(s.Items))
	}
	if _, ok := s.Items[1].Expr.(*FuncExpr); !ok {
		t.Fatal("second item should be aggregate")
	}
	if len(s.From) != 1 || s.From[0].Name != "t" {
		t.Fatalf("from = %+v", s.From)
	}
	cmp, ok := s.Where.(*ComparisonExpr)
	if !ok || cmp.Op != "<" {
		t.Fatalf("where = %#v", s.Where)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "a" {
		t.Fatalf("group by = %+v", s.GroupBy)
	}
}

func TestParseJoinFolding(t *testing.T) {
	s := MustParse(`SELECT c.name, SUM(o.total) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.total > 100 GROUP BY c.name ORDER BY c.name DESC`).(*Select)
	if len(s.From) != 2 {
		t.Fatalf("from = %+v", s.From)
	}
	conj := Conjuncts(s.Where)
	if len(conj) != 2 {
		t.Fatalf("JOIN ON should fold into WHERE: %d conjuncts", len(conj))
	}
	if !s.OrderBy[0].Desc {
		t.Fatal("DESC lost")
	}
}

func TestParseCommaJoin(t *testing.T) {
	s := MustParse(`SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y AND a.z = 3`).(*Select)
	if len(s.From) != 3 {
		t.Fatalf("from = %+v", s.From)
	}
	if len(Conjuncts(s.Where)) != 3 {
		t.Fatal("conjunct count")
	}
	if s.Items[0].Expr != nil {
		t.Fatal("star select should have nil Expr")
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []string{
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE name LIKE 'abc%'",
		"SELECT a FROM t WHERE name NOT LIKE 'abc%'",
		"SELECT a FROM t WHERE a NOT IN (1, 2)",
		"SELECT a FROM t WHERE NOT a = 1",
		"SELECT a FROM t WHERE (a = 1 OR b = 2) AND c <> 3",
		"SELECT a FROM t WHERE (a + b) > 5",
		"SELECT a FROM t WHERE a >= 1 AND a <= 2 OR b = 3",
		"SELECT a FROM t WHERE a = ?",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseTPCHStyle(t *testing.T) {
	q := `SELECT l_returnflag, l_linestatus, SUM(l_quantity) sum_qty,
	  SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
	  AVG(l_discount) avg_disc, COUNT(*) AS count_order
	FROM lineitem
	WHERE l_shipdate <= 2400
	GROUP BY l_returnflag, l_linestatus
	ORDER BY l_returnflag, l_linestatus`
	s := MustParse(q).(*Select)
	if len(s.Items) != 6 {
		t.Fatalf("items = %d", len(s.Items))
	}
	if s.Items[2].Alias != "sum_qty" {
		t.Fatalf("implicit alias lost: %+v", s.Items[2])
	}
	if s.Items[3].Alias != "sum_disc_price" {
		t.Fatal("AS alias lost")
	}
}

func TestParseDML(t *testing.T) {
	ins := MustParse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	ins2 := MustParse("INSERT INTO t VALUES (1, 2)").(*Insert)
	if len(ins2.Columns) != 0 || len(ins2.Rows) != 1 {
		t.Fatalf("insert2 = %+v", ins2)
	}
	up := MustParse("UPDATE t SET a = a + 1, b = 'z' WHERE id = 5").(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	del := MustParse("DELETE FROM t WHERE id < 100").(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseTopDistinct(t *testing.T) {
	s := MustParse("SELECT DISTINCT TOP 10 a FROM t ORDER BY a").(*Select)
	if !s.Distinct || s.Top != 10 {
		t.Fatalf("select = %+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT a FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ==",
		"SELECT a FROM t GROUP a",
		"INSERT INTO t",
		"UPDATE t SET",
		"DELETE t",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t trailing garbage here",
		"SELECT 'unterminated FROM t",
		// Invalid UTF-8 must be rejected at the lexer: 0xFF read as a
		// Latin-1 rune is the letter 'ÿ', and accepting it as an identifier
		// produces an AST whose deparsed signature no longer parses (found
		// by FuzzParse; crasher kept in testdata/fuzz/FuzzParse).
		"SELECT(0)FROM \xff",
		"SELECT a\xc3\x28 FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestDeparseRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10 ORDER BY a DESC",
		"SELECT DISTINCT TOP 5 a, b FROM t1, t2 WHERE t1.x = t2.y",
		"INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, 'y')",
		"UPDATE t SET a = 1 WHERE b = 2",
		"DELETE FROM t WHERE id IN (1, 2, 3)",
		"SELECT SUM(p * (1 - d)) FROM t HAVING SUM(p) > 100",
		// The three shapes of a minus: unary, doubled, and the product the
		// parser reads a unary minus as, spelled out.
		"SELECT a FROM t WHERE x = -5",
		"SELECT a FROM t WHERE x = - -5",
		"SELECT a FROM t WHERE x = (-1 * 5)",
		// Numbers %g would render in exponent form.
		"SELECT a FROM t WHERE x > 7700000 AND y < 0.00001",
	}
	for _, sql := range cases {
		s1, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		text := s1.String()
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q (deparsed %q): %v", sql, text, err)
		}
		if s2.String() != text {
			t.Errorf("deparse not a fixpoint:\n 1: %s\n 2: %s", text, s2.String())
		}
	}
}

func TestSignature(t *testing.T) {
	a := MustParse("SELECT a FROM t WHERE x = 5 AND name = 'bob'")
	b := MustParse("SELECT a FROM t WHERE x = 99 AND name = 'alice'")
	c := MustParse("SELECT a FROM t WHERE y = 5 AND name = 'bob'")
	if Signature(a) != Signature(b) {
		t.Fatalf("same template must share signature:\n%s\n%s", Signature(a), Signature(b))
	}
	if Signature(a) == Signature(c) {
		t.Fatal("different columns must differ")
	}
	if SignatureHash(a) != SignatureHash(b) {
		t.Fatal("hash mismatch on same template")
	}
	// IN lists of different lengths share a template.
	d := MustParse("SELECT a FROM t WHERE x IN (1, 2)")
	e := MustParse("SELECT a FROM t WHERE x IN (3, 4, 5, 6)")
	if Signature(d) != Signature(e) {
		t.Fatal("IN lists should collapse in signature")
	}
}

func TestSignatureDoesNotMutate(t *testing.T) {
	a := MustParse("SELECT a FROM t WHERE x = 5")
	before := a.String()
	_ = Signature(a)
	if a.String() != before {
		t.Fatal("Signature must not mutate the statement")
	}
}

func TestConstants(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE x = 5 AND y BETWEEN 2 AND 8 AND name = 'q'")
	consts := Constants(s)
	if len(consts) != 4 {
		t.Fatalf("constants = %d, want 4", len(consts))
	}
}

// Property: for randomly generated selects from a template grammar, parse ∘
// deparse is a fixpoint and signatures are constant-invariant.
func TestParsePropertyRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func(v1, v2 int, s string) string {
		cols := []string{"a", "b", "c", "d"}
		col := cols[abs(v1)%len(cols)]
		col2 := cols[abs(v2)%len(cols)]
		if len(s) > 6 {
			s = s[:6]
		}
		s = strings.ReplaceAll(s, "'", "")
		return fmt.Sprintf(
			"SELECT %s, SUM(%s) FROM t WHERE %s < %d AND name = '%s' GROUP BY %s ORDER BY %s",
			col, col2, col2, abs(v1)%1000, s, col, col)
	}
	f := func(v1, v2 int, s string) bool {
		sql := gen(v1, v2, s)
		st, err := Parse(sql)
		if err != nil {
			t.Logf("parse error on %q: %v", sql, err)
			return false
		}
		re, err := Parse(st.String())
		if err != nil || re.String() != st.String() {
			return false
		}
		// Changing only constants preserves the signature.
		sql2 := gen(v1, v2, s+"zz")
		st2, err := Parse(sql2)
		if err != nil {
			return false
		}
		return Signature(st) == Signature(st2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}

func TestWalkStatementCoversAllClauses(t *testing.T) {
	s := MustParse("SELECT a, SUM(b) FROM t WHERE c = 1 GROUP BY a HAVING SUM(b) > 2 ORDER BY a")
	var cols, lits int
	WalkStatement(s, func(e Expr) {
		switch e.(type) {
		case *ColName:
			cols++
		case *Literal:
			lits++
		}
	})
	if cols < 5 {
		t.Fatalf("cols = %d, want >= 5 (select, agg arg, where, group, having, order)", cols)
	}
	if lits != 2 {
		t.Fatalf("lits = %d, want 2", lits)
	}
}

func TestConjunctsAndAll(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3").(*Select)
	conj := Conjuncts(s.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if AndAll(nil) != nil {
		t.Fatal("AndAll(nil) should be nil")
	}
	rebuilt := AndAll(conj)
	if len(Conjuncts(rebuilt)) != 3 {
		t.Fatal("AndAll should rebuild the conjunction")
	}
}

func TestLexerEdgeCases(t *testing.T) {
	if _, err := Parse("SELECT a FROM t -- a comment\nWHERE a = 1"); err != nil {
		t.Fatalf("comment handling: %v", err)
	}
	if _, err := Parse("SELECT a FROM t WHERE a != 3"); err != nil {
		t.Fatalf("!= should normalize to <>: %v", err)
	}
	s := MustParse("SELECT a FROM t WHERE a != 3").(*Select)
	if !strings.Contains(s.String(), "<>") {
		t.Fatal("!= should deparse as <>")
	}
	if _, err := Parse("SELECT a FROM t WHERE a = 1.5 AND b = .25"); err != nil {
		t.Fatalf("decimal numbers: %v", err)
	}
	if _, err := Parse("SELECT a FROM t WHERE a = -.5"); err != nil {
		t.Fatalf("negative numbers: %v", err)
	}
}
