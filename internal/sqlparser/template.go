package sqlparser

import "strings"

// TemplateScanner computes a statement's template key in one lexer pass, so
// a trace reader can recognise a repeat of a known template without parsing
// it (paper §5.1: a huge trace costs about as much as its few hundred
// templates).
//
// The key is the statement's token texts with the value of every literal
// token masked; only its kind is kept (number, string or '?'). The count
// after TOP stays verbatim: it is the one number the grammar does not turn
// into a Literal, and the signature keeps it. The parser reads nothing of a
// literal token but its kind, and lexing fails the same way whatever the
// key, so two statements with equal keys are both accepted or both
// rejected, and both have the same Signature. The converse does not hold:
// spellings of one template that differ in keyword case, parentheses or
// IN-list length have different keys.
//
// The scanner reuses its buffers from one Scan to the next and is not safe
// for concurrent use.
type TemplateScanner struct {
	src  string
	toks []token
	key  []byte
	lits []Literal
}

// Scan lexes sql and computes its template key and literal values. The
// error is the one Parse(sql) would return from its lexer.
func (s *TemplateScanner) Scan(sql string) error {
	toks, err := lexInto(s.toks, sql)
	s.src, s.toks = sql, toks
	s.key, s.lits = s.key[:0], s.lits[:0]
	if err != nil {
		return err
	}
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			s.key = append(s.key, ' ')
		}
		switch t.kind {
		case tokNumber:
			if i > 0 && toks[i-1].kind == tokIdent && strings.EqualFold(toks[i-1].text, "top") {
				s.key = append(s.key, t.text...)
				continue
			}
			s.key = append(s.key, '#')
			s.lits = append(s.lits, Literal{Kind: LitNumber, F: t.num})
		case tokString:
			s.key = append(s.key, '\'')
			s.lits = append(s.lits, Literal{Kind: LitString, S: t.text})
		case tokParam:
			s.key = append(s.key, '?')
			s.lits = append(s.lits, Literal{Kind: LitParam})
		default:
			s.key = append(s.key, t.text...)
		}
	}
	return nil
}

// Key returns the template key of the statement last scanned. The bytes are
// the scanner's own and change on the next Scan.
func (s *TemplateScanner) Key() []byte { return s.key }

// Literals returns the values of the last scanned statement's literal
// tokens in token order, the TOP count excluded. The slice is the scanner's
// own and changes on the next Scan.
func (s *TemplateScanner) Literals() []Literal { return s.lits }

// Parse parses the statement last scanned from the tokens Scan lexed; it
// returns what Parse would for the same text, and must follow a Scan that
// succeeded. exact reports whether Constants(stmt) are, position by
// position, the nodes the parser made from the tokens Literals lists —
// checked by identity, so equal values cannot pass by coincidence. A unary
// minus makes it false: it adds a -1 literal no token spells.
func (s *TemplateScanner) Parse() (stmt Statement, exact bool, err error) {
	p := &parser{toks: s.toks, src: s.src, track: true}
	if stmt, err = p.parse(); err != nil {
		return nil, false, err
	}
	consts := Constants(stmt)
	if len(consts) != len(p.lits) || len(p.lits) != len(s.lits) {
		return stmt, false, nil
	}
	for i, l := range consts {
		if l != p.lits[i] {
			return stmt, false, nil
		}
	}
	return stmt, true, nil
}
