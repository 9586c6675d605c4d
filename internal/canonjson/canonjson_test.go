package canonjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// stringCases are json.Marshal's string corner cases: HTML-sensitive
// characters, quotes and backslashes, every short escape, other control
// characters, DEL, the JavaScript line and paragraph separators, multi-byte
// UTF-8, and invalid UTF-8 (a lone continuation byte, a truncated sequence,
// an overlong encoding, a surrogate half).
var stringCases = []string{
	"", "plain", "<>&", `a"b\c`, "\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "\u2028", "\u2029",
	"x\u2028y\u2029z", "日本語", "\U0001F600", "\xff", "ab\x80cd", "\xe2\x80", "\xc0\xaf", "\xed\xa0\x80",
	"<script>\u2028</script>&amp;\xfe",
}

// TestAppendStringMatchesMarshal: every string corner case is quoted as
// json.Marshal quotes it.
func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range stringCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("%q: %s, want %s", s, got, want)
		}
	}
}

// record is a value the Writer can spell by hand: an integer, a string, a
// list, a pre-rendered value, and a field left to json.Marshal.
type record struct {
	N     int64              `json:"n"`
	Key   string             `json:"key"`
	IDs   []int32            `json:"ids"`
	Raw   json.RawMessage    `json:"raw"`
	Other map[string]float64 `json:"other"`
}

// write spells r with the Writer.
func (r *record) write(w *Writer) {
	w.Raw(`{"n":`)
	w.Int(r.N)
	w.Raw(`,"key":`)
	w.String(r.Key)
	w.Raw(`,"ids":`)
	w.Int32s(r.IDs)
	w.Raw(`,"raw":`)
	w.Bytes(r.Raw)
	w.Raw(`,"other":`)
	w.Marshal(r.Other)
	w.Raw("}")
}

// TestWriterMatchesMarshal: a list of records spelled by the Writer — long
// enough to flush many times, with a pre-rendered value longer than the
// buffer — is byte-equal to json.Marshal of the list, and a NaN handed to
// Marshal stops the Writer with json.Marshal's error.
func TestWriterMatchesMarshal(t *testing.T) {
	big, _ := json.Marshal(strings.Repeat("<x>", flushAt))
	var recs []record
	for i := range 3000 {
		recs = append(recs, record{
			N:     int64(i) * math.MaxInt32,
			Key:   stringCases[i%len(stringCases)],
			IDs:   []int32{int32(i), -int32(i), math.MaxInt32},
			Raw:   json.RawMessage(`{"n":1}`),
			Other: map[string]float64{"b": float64(i) / 7, "a": 1e-7},
		})
	}
	recs[1234].Raw = big
	for _, nan := range []bool{false, true} {
		if nan {
			recs[2999].Other["b"] = math.NaN()
		}
		want, wantErr := json.Marshal(recs)
		var out bytes.Buffer
		w := NewWriter(&out)
		w.Raw("[")
		for i := range recs {
			if i > 0 {
				w.Raw(",")
			}
			recs[i].write(w)
		}
		w.Raw("]")
		err := w.Flush()
		if nan {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("NaN: error %v, want %v", err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatal(err, wantErr)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("Writer output (%d bytes) differs from json.Marshal (%d bytes)", out.Len(), len(want))
		}
	}
}

// failWriter fails every write.
type failWriter struct{}

var errFull = errors.New("disk full")

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

// TestWriterErrorIsSticky: a failed write stops the Writer, and Flush
// reports it.
func TestWriterErrorIsSticky(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Raw(strings.Repeat(" ", flushAt))
	w.String("more")
	if err := w.Flush(); err != errFull {
		t.Fatalf("Flush = %v, want %v", err, errFull)
	}
}
