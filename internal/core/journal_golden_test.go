package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"testing"

	"repro/internal/journal"
)

// journalTimes matches the one field of a journal line that differs between
// runs: the append time.
var journalTimes = regexp.MustCompile(`"t":"[^"]*"`)

// TestJournalGolden pins what a journaled toy tune records: the SHA-256 of
// its `-journal` NDJSON (append times masked) and of its `-explain` report
// over every recommended structure, at Parallelism 1 and 4. The journal's
// storage may change; the events it renders and the provenance explain
// reconstructs from them may not, unless a change means them to.
func TestJournalGolden(t *testing.T) {
	for _, c := range []struct {
		toy      string
		features FeatureMask
		ndjson   string
		explain  string
	}{
		{"synt1", FeatureIndexes,
			"9d6832257203b196c1b5865033798fe049e6018e45f34ff3291ae7cb09a7f7c1",
			"98bdb21ed28d5cf9499041120e1e968a420f9082238c3c873b75ea647153cfc6"},
		{"tpch", FeatureAll,
			"d0d472d94f854a1e4cd2d162e20a71e3b38ec8d1a4d1725444ab3f1a180a450d",
			"7ae8a3ee144d5244c0050bf6a147f625e7c4e2eee57c4da1ca91621de8c188b1"},
		{"psoft", FeatureAll,
			"a02c3a1fa9ee98b7cdc6619848934339c3e2c2eff63d501e5c2245589de913df",
			"85e0024be50a3ee711805ed5d1b765537c3d56d56b6738761f5767a167db1cf4"},
		{"cust", FeatureAll,
			"54872d6daeff96b8fbd451e8e5d37b3cd5d198bcec25953f60be7b7748ab864b",
			"f3d4add65ef2a81e28dda00c47f109f299cf596635c226fb9ade61ffd698a00c"},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", c.toy, par), func(t *testing.T) {
				srv, w, base := toyBackend(t, c.toy)
				jnl := journal.New(c.toy)
				ctx := journal.WithContext(context.Background(), jnl)
				rec, err := TuneContext(ctx, srv, w, Options{Features: c.features, BaseConfig: base, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.NewStructures) == 0 {
					t.Fatal("nothing recommended; explain has nothing to pin")
				}
				var nd, ex bytes.Buffer
				if err := jnl.WriteNDJSON(&nd, nil); err != nil {
					t.Fatal(err)
				}
				if err := explainForRec(rec, jnl).WriteText(&ex); err != nil {
					t.Fatal(err)
				}
				if got := digest(journalTimes.ReplaceAll(nd.Bytes(), []byte(`"t":""`))); got != c.ndjson {
					t.Errorf("journal NDJSON digest %s, want %s (%d events)", got, c.ndjson, jnl.Len())
				}
				if got := digest(ex.Bytes()); got != c.explain {
					t.Errorf("explain digest %s, want %s:\n%s", got, c.explain, ex.Bytes())
				}
			})
		}
	}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
