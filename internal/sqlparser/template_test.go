package sqlparser

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestLexNumberMatchesSscanf pins the lexer's strconv.ParseFloat conversion
// to the fmt.Sscanf("%g") one it replaced, bit for bit, over the lexer's
// whole number language: digit strings with at most one dot, which may
// lead or trail. Digit strings too large for a float64 must be rejected by
// both.
func TestLexNumberMatchesSscanf(t *testing.T) {
	var texts []string
	for _, digits := range []string{
		"0", "7", "42", "0000", "0123", "9007199254740993", "18446744073709551616",
		"17976931348623157", "17976931348623159", "4940656458412465441765687928682213723651",
		strings.Repeat("9", 40), strings.Repeat("1", 308), strings.Repeat("9", 309),
		strings.Repeat("9", 400), "1" + strings.Repeat("0", 308), "1" + strings.Repeat("0", 309),
		strings.Repeat("0", 350) + "5",
	} {
		texts = append(texts, digits, "."+digits, digits+".")
		for cut := 1; cut < len(digits); cut += 1 + len(digits)/7 {
			texts = append(texts, digits[:cut]+"."+digits[cut:])
		}
	}
	overflowed := 0
	for _, text := range texts {
		var want float64
		_, serr := fmt.Sscanf(text, "%g", &want)
		toks, lerr := lex(text)
		if (serr == nil) != (lerr == nil) {
			t.Fatalf("%q: Sscanf err %v, lexer err %v", text, serr, lerr)
		}
		if serr != nil {
			overflowed++
			if !strings.Contains(lerr.Error(), "bad number") {
				t.Fatalf("%q: lexer error %v is not a bad number", text, lerr)
			}
			continue
		}
		if len(toks) != 2 || toks[0].kind != tokNumber || toks[0].text != text {
			t.Fatalf("%q lexed to %v, want one number token", text, toks)
		}
		if got := toks[0].num; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: lexer %v (%#x), Sscanf %v (%#x)", text, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if overflowed == 0 {
		t.Fatal("no overflowing digit string in the table")
	}
}

// scanKey returns sql's template key, token literals and the scan's Parse.
func scanKey(t *testing.T, sql string) (string, []Literal, Statement, bool) {
	t.Helper()
	var sc TemplateScanner
	if err := sc.Scan(sql); err != nil {
		t.Fatalf("scan %q: %v", sql, err)
	}
	key, lits := string(sc.Key()), append([]Literal(nil), sc.Literals()...)
	stmt, exact, err := sc.Parse()
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return key, lits, stmt, exact
}

// literalValues dereferences Constants for comparison with token literals.
func literalValues(s Statement) []Literal {
	var out []Literal
	for _, l := range Constants(s) {
		out = append(out, *l)
	}
	return out
}

func TestTemplateKeyCases(t *testing.T) {
	cases := []struct {
		name           string
		a, b           string
		sameKey        bool
		sameSignature  bool
		exactA, exactB bool
	}{
		{"constants differ", "SELECT a FROM t WHERE x = 1 AND s = 'p'", "SELECT a FROM t WHERE x = 2.5 AND s = 'q''r'", true, true, true, true},
		{"TOP counts are templates", "SELECT TOP 5 a FROM t WHERE x = 1", "SELECT TOP 10 a FROM t WHERE x = 1", false, false, true, true},
		{"top in any case", "select top 5 a from t", "select top 5 a from t where x = 1", false, false, true, true},
		{"unary minus is not exact", "SELECT a FROM t WHERE x = -5", "SELECT a FROM t WHERE x = -7", true, true, false, false},
		{"IN-list length", "SELECT a FROM t WHERE x IN (1, 2)", "SELECT a FROM t WHERE x IN (1, 2, 3)", false, true, true, true},
		{"keyword case", "SELECT a FROM t WHERE x = 1", "select a from t where x = 9", false, true, true, true},
		{"white space and comments", "SELECT a FROM t WHERE x = 1", "SELECT  a\tFROM t\nWHERE x=3 -- note", true, true, true, true},
		{"parentheses", "SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE (x = 1)", false, true, true, true},
		{"literal kinds", "SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 'one'", false, true, true, true},
		{"parameter", "SELECT a FROM t WHERE x = ?", "SELECT a FROM t WHERE x = ?", true, true, true, true},
		{"backtracked group", "SELECT a FROM t WHERE (x + 1) > 5 AND y BETWEEN 2 AND 3", "SELECT a FROM t WHERE (x + 4) > 6 AND y BETWEEN 7 AND 8", true, true, true, true},
		{"DML", "UPDATE t SET a = 1, b = 'x' WHERE id = 5", "UPDATE t SET a = 2, b = 'y' WHERE id = 6", true, true, true, true},
		{"INSERT rows", "INSERT INTO t VALUES (1, 'a'), (2, 'b')", "INSERT INTO t VALUES (3, 'c'), (4, 'd')", true, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, la, sa, ea := scanKey(t, tc.a)
			kb, lb, sb, eb := scanKey(t, tc.b)
			if (ka == kb) != tc.sameKey {
				t.Fatalf("keys %q and %q: equal %v, want %v", ka, kb, ka == kb, tc.sameKey)
			}
			if (Signature(sa) == Signature(sb)) != tc.sameSignature {
				t.Fatalf("signatures %q and %q: equal %v, want %v", Signature(sa), Signature(sb), !tc.sameSignature, tc.sameSignature)
			}
			if ea != tc.exactA || eb != tc.exactB {
				t.Fatalf("exact %v, %v; want %v, %v", ea, eb, tc.exactA, tc.exactB)
			}
			for _, x := range []struct {
				lits  []Literal
				stmt  Statement
				exact bool
			}{{la, sa, ea}, {lb, sb, eb}} {
				if x.exact && !reflect.DeepEqual(x.lits, literalValues(x.stmt)) {
					t.Fatalf("exact key: token literals %v, constants %v", x.lits, literalValues(x.stmt))
				}
			}
		})
	}
}

func TestTemplateScannerErrorsMatchParse(t *testing.T) {
	var sc TemplateScanner
	for _, sql := range []string{
		"SELECT a FROM t WHERE s = 'open",                       // lexer
		"SELECT a FROM t WHERE x = " + strings.Repeat("9", 400), // lexer: overflow
		"SELECT a FROM t WHERE x = 1 1",                         // parser
		"SELECT a FROM",                                         // parser
	} {
		_, want := Parse(sql)
		if want == nil {
			t.Fatalf("%q parses", sql)
		}
		err := sc.Scan(sql)
		if err == nil {
			_, _, err = sc.Parse()
		}
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%q: scanner error %v, Parse error %v", sql, err, want)
		}
	}
}

// rewriteLiterals returns sql with every literal token's value replaced —
// numbers by non-negative numbers, strings by other strings — and the TOP
// count left alone: a statement of the same template key. vals picks the
// replacement values.
func rewriteLiterals(sql string, vals []byte) (string, bool) {
	toks, err := lex(sql)
	if err != nil {
		return "", false
	}
	var b strings.Builder
	last := 0
	for i, tk := range toks {
		if tk.kind != tokNumber && tk.kind != tokString {
			continue
		}
		if tk.kind == tokNumber && i > 0 && toks[i-1].kind == tokIdent && strings.EqualFold(toks[i-1].text, "top") {
			continue
		}
		l := &lexer{src: sql, pos: tk.pos}
		if _, err := l.next(); err != nil {
			return "", false
		}
		v := byte(i)
		if len(vals) > 0 {
			v = vals[i%len(vals)]
		}
		b.WriteString(sql[last:tk.pos])
		// Spaces keep the replacement one token: "1.2.3" lexes as 1.2 and
		// .3, and a bare "7" in place of ".3" would merge into "1.27".
		if tk.kind == tokNumber {
			fmt.Fprintf(&b, " %s ", []string{"0", "7", "2.5", ".125", "123456789012", "5."}[v%6])
		} else {
			fmt.Fprintf(&b, " %s ", []string{"''", "'x'", "'it''s'", "'ÿ'"}[v%4])
		}
		last = l.pos
	}
	b.WriteString(sql[last:])
	return b.String(), true
}

// FuzzTemplateKey is the template key's metamorphic test: rewriting the
// value of every literal token keeps the key, the accept/reject decision
// and the signature, and an exact key's token literals are the statement's
// constants.
func FuzzTemplateKey(f *testing.F) {
	for _, seed := range []string{
		"SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a",
		"SELECT DISTINCT TOP 10 a FROM t WHERE name LIKE 'abc%' ORDER BY a DESC",
		"SELECT a FROM t WHERE a IN (1, 2.5, 'x') AND (b = 2 OR c <> -3)",
		"SELECT a FROM t WHERE (a + 1) * 2 > .5 AND b NOT IN ('p', 'q''r')",
		"SELECT t.a, s.b FROM t JOIN s ON t.id = s.id WHERE s.v BETWEEN 1. AND 9",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1, b = 'z' WHERE id = 5",
		"DELETE FROM t WHERE id < 100 AND name = ?",
		"SELECT a FROM t WHERE x = 1.2.3",
		"SELECT a FROM t WHERE x = 1 1",
		"SELECT TOP 'x' a FROM t",
	} {
		f.Add(seed, []byte{1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, sql string, vals []byte) {
		var sc TemplateScanner
		if sc.Scan(sql) != nil {
			return
		}
		key := string(sc.Key())
		lits := append([]Literal(nil), sc.Literals()...)
		stmt, exact, perr := sc.Parse()
		if st, err := Parse(sql); (err == nil) != (perr == nil) || (err == nil && Signature(st) != Signature(stmt)) {
			t.Fatalf("scanner parse and Parse disagree on %q: %v vs %v", sql, perr, err)
		}
		if exact && !reflect.DeepEqual(lits, literalValues(stmt)) {
			t.Fatalf("exact key of %q: token literals %v, constants %v", sql, lits, literalValues(stmt))
		}
		re, ok := rewriteLiterals(sql, vals)
		if !ok {
			return
		}
		if err := sc.Scan(re); err != nil {
			t.Fatalf("rewrite %q of %q does not lex: %v", re, sql, err)
		}
		if got := string(sc.Key()); got != key {
			t.Fatalf("rewrite changed the key:\n%q → %q\n%q → %q", sql, key, re, got)
		}
		relits := append([]Literal(nil), sc.Literals()...)
		restmt, reexact, reerr := sc.Parse()
		if (perr == nil) != (reerr == nil) {
			t.Fatalf("rewrite changed accept/reject: %q: %v, %q: %v", sql, perr, re, reerr)
		}
		if perr != nil {
			return
		}
		if Signature(restmt) != Signature(stmt) {
			t.Fatalf("rewrite changed the signature: %q → %q", Signature(stmt), Signature(restmt))
		}
		if reexact != exact {
			t.Fatalf("rewrite changed exactness of %q: %v → %v", sql, exact, reexact)
		}
		if reexact && !reflect.DeepEqual(relits, literalValues(restmt)) {
			t.Fatalf("exact key of %q: token literals %v, constants %v", re, relits, literalValues(restmt))
		}
	})
}
