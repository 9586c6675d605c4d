package xmlio

import (
	"bytes"
	"testing"
)

// FuzzDecodeInput feeds arbitrary bytes through Decode and then
// DecodeInput — the path a DTAXML session file (dta -input) or an XML
// create body (POST /sessions) takes — which must never panic. A document
// that decodes keeps its evaluate-only flag.
func FuzzDecodeInput(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleInput()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		opts, _, err := DecodeInput(doc.Input)
		if err == nil && opts.EvaluateOnly != doc.Input.EvaluateOnly {
			t.Fatalf("evaluate-only %v decoded as %v", doc.Input.EvaluateOnly, opts.EvaluateOnly)
		}
	})
}
