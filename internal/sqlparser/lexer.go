// Package sqlparser implements a lexer, abstract syntax tree, and
// recursive-descent parser for the SQL subset the tuning advisor consumes:
// SELECT with joins / WHERE / GROUP BY / ORDER BY / aggregates / TOP,
// and INSERT / UPDATE / DELETE. It also provides statement deparsing and the
// constant-insensitive query signature used by workload compression
// (paper §5.1: two queries have the same signature if they are identical in
// all respects except for the constants referenced in the query).
package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , . * and operators
	tokParam // '?' placeholder
)

type token struct {
	kind tokenKind
	text string // for idents: original text; keyword matching is case-insensitive
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front; SQL statements are short enough
// that this is simpler and faster than a streaming lexer.
func lex(src string) ([]token, error) { return lexInto(nil, src) }

// lexInto is lex appending to dst[:0], so a caller that lexes many
// statements reuses one token buffer.
func lexInto(dst []token, src string) ([]token, error) {
	l := &lexer{src: src, toks: dst[:0]}
	for {
		t, err := l.next()
		if err != nil {
			return l.toks[:0], err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	// Identifiers are scanned as decoded runes, not bytes: classifying a raw
	// byte with the unicode tables accepts any 0x80–0xFF byte whose Latin-1
	// codepoint happens to be a letter (0xFF = 'ÿ'), yielding ident tokens
	// that are not valid UTF-8. Those survive into the AST, and the first
	// case-mapping in deparse silently rewrites them to U+FFFD — so the
	// statement's own signature no longer parses. Reject invalid UTF-8 here,
	// with the offset, while the byte is still addressable.
	r := rune(c)
	if c >= utf8.RuneSelf {
		var rSize int
		if r, rSize = utf8.DecodeRuneInString(l.src[l.pos:]); r == utf8.RuneError && rSize == 1 {
			return token{}, fmt.Errorf("sqlparser: invalid UTF-8 byte 0x%02x at %d", c, start)
		}
	}
	switch {
	case isIdentStart(r):
		for l.pos < len(l.src) {
			if b := l.src[l.pos]; b < utf8.RuneSelf { // ASCII: no decoding
				if !isIdentPart(rune(b)) {
					break
				}
				l.pos++
				continue
			}
			pr, prSize := utf8.DecodeRuneInString(l.src[l.pos:])
			if pr == utf8.RuneError && prSize == 1 {
				return token{}, fmt.Errorf("sqlparser: invalid UTF-8 byte 0x%02x at %d", l.src[l.pos], l.pos)
			}
			if !isIdentPart(pr) {
				break
			}
			l.pos += prSize
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
		seenDot := false
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d == '.' {
				if seenDot {
					break
				}
				seenDot = true
				l.pos++
				continue
			}
			if d < '0' || d > '9' {
				break
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		// ParseFloat rejects an overflowing digit string (±Inf with
		// ErrRange), so every number token is finite.
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("sqlparser: bad number %q at %d", text, start)
		}
		return token{kind: tokNumber, text: text, num: f, pos: start}, nil
	case c == '\'':
		l.pos++
		// A string without an escaped quote is its own source slice; only
		// an escaped quote needs a copy.
		if end := strings.IndexByte(l.src[l.pos:], '\''); end >= 0 &&
			(l.pos+end+1 >= len(l.src) || l.src[l.pos+end+1] != '\'') {
			text := l.src[l.pos : l.pos+end]
			l.pos += end + 1
			return token{kind: tokString, text: text, pos: start}, nil
		}
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("sqlparser: unterminated string at %d", start)
			}
			d := l.src[l.pos]
			if d == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(d)
			l.pos++
		}
		return token{kind: tokString, text: b.String(), pos: start}, nil
	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
		return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokPunct, text: "<>", pos: start}, nil
		}
		return token{}, fmt.Errorf("sqlparser: unexpected '!' at %d", start)
	case strings.ContainsRune("(),.*=+-/;", rune(c)):
		l.pos++
		return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, fmt.Errorf("sqlparser: unexpected character %q at %d", r, start)
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '['
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '[' || r == ']'
}
