package workload

import (
	"fmt"
	"reflect"

	"repro/internal/sqlparser"
)

// CheckStreamed reports how the template StreamTrace computed for e — its
// memoized signature and constant vector — differs from Signature and
// litVector of a fresh parse of e.SQL; nil when they agree exactly.
func CheckStreamed(e *Event) error {
	if e.sig == "" {
		return fmt.Errorf("event %q carries no memoized template", e.SQL)
	}
	stmt, err := sqlparser.Parse(e.SQL)
	if err != nil {
		return fmt.Errorf("event %q: %v", e.SQL, err)
	}
	if sig := sqlparser.Signature(stmt); e.sig != sig {
		return fmt.Errorf("event %q: signature %q, parse gives %q", e.SQL, e.sig, sig)
	}
	if vec := litVector(stmt); !reflect.DeepEqual(e.vec, vec) {
		return fmt.Errorf("event %q: constants %v, parse gives %v", e.SQL, e.vec, vec)
	}
	if e.Stmt != nil && sqlparser.Signature(e.Stmt) != e.sig {
		return fmt.Errorf("event %q: its statement's signature is not %q", e.SQL, e.sig)
	}
	return nil
}
