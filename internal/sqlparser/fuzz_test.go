package sqlparser

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse throws arbitrary byte soup at the SQL parser. The parser sits on
// the trace-ingestion boundary — every line of an untrusted profiler trace
// reaches it — so it must reject garbage with an error, never a panic, and
// whatever it does accept must survive deparsing and templatization: its
// String() (the what-if plan cache's statement key) must re-parse to a
// statement with the same text, and Signature (the workload-compression
// partition key) must be deterministic, parseable, and a fixed point under
// its own re-parse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10 ORDER BY a",
		"SELECT DISTINCT TOP 10 a FROM t WHERE name LIKE 'abc%'",
		"SELECT a FROM t WHERE a IN (1, 2, 3) AND (b = 2 OR c <> 3)",
		"SELECT t.a, s.b FROM t, s WHERE t.id = s.id",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1, b = 'z' WHERE id = 5",
		"DELETE FROM t WHERE id < 100",
		"SELECT SUM(amt) FROM t WHERE a = ?;",
		"SELECT a FROM t WHERE a ==",
		"select\t*\nfrom t",
		"'unterminated",
		"SELECT (((((((1",
		// Long digit strings: the lexer's number conversion at and past
		// the float64 range, which must be rejected, not turned into ±Inf.
		"SELECT a FROM t WHERE x = " + strings.Repeat("9", 308),
		"SELECT a FROM t WHERE x = " + strings.Repeat("9", 309),
		"SELECT a FROM t WHERE x = 1" + strings.Repeat("0", 400) + ".5",
		"SELECT a FROM t WHERE x = ." + strings.Repeat("0", 400) + "1",
		"SELECT TOP " + strings.Repeat("9", 30) + " a FROM t",
		// Unary minus and numbers %g would print in exponent form: the
		// deparse must read back as itself.
		"SELECT a FROM t WHERE x = -5 AND y > - -2.5",
		"SELECT a FROM t WHERE x = (-1 * 5) AND y < -(b + 1)",
		"SELECT a FROM t WHERE x > 7700000 AND y < 0.00001",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("deparse %q of accepted statement %q does not re-parse: %v", text, sql, err)
		}
		if text2 := again.String(); text2 != text {
			t.Fatalf("deparse is not a fixed point: %q → %q", text, text2)
		}
		if Text(stmt) != text {
			t.Fatalf("Text(%q) differs from its String()", sql)
		}
		sig := Signature(stmt)
		if strings.TrimSpace(sig) == "" {
			t.Fatalf("accepted statement %q has empty signature", sql)
		}
		if h := SignatureHash(stmt); len(h) != 16 {
			t.Fatalf("signature hash %q is not 8 bytes hex", h)
		}
		if !utf8.ValidString(sig) {
			// The deparser only ever concatenates input substrings and ASCII,
			// so invalid UTF-8 in a signature means a literal was mangled.
			t.Fatalf("signature %q of %q is not valid UTF-8", sig, sql)
		}
		// The signature is deparsed SQL: it must parse, and templatizing it
		// again must be a fixed point (all constants already stripped).
		stmt2, err := Parse(sig)
		if err != nil {
			t.Fatalf("signature %q of accepted statement %q does not re-parse: %v", sig, sql, err)
		}
		if sig2 := Signature(stmt2); sig2 != sig {
			t.Fatalf("signature is not a fixed point: %q → %q", sig, sig2)
		}
	})
}
