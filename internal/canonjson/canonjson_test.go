package canonjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// floatCases are json.Marshal's float corner cases: both zeros, the 'f'/'e'
// boundaries at 1e-6 and 1e21 on either side, the extremes, a value whose
// shortest form is long, an exponent that needs its leading zero dropped,
// and the values JSON cannot hold.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1.0 / 3, 123456789, 1e20, 1e21, -1e21, 9.999999999999999e20,
	1e-6, 1e-7, -1e-7, 9.99e-7, 1.5e-9, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64,
	-math.MaxFloat64, 1e100, 1.7976931348623157e308, 2.5e-308,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

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

// TestAppendFloatMatchesMarshal: every float corner case renders as
// json.Marshal renders it, and the unrepresentable ones fail with its error.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range floatCases {
		want, wantErr := json.Marshal(f)
		got, err := appendFloat([]byte("x"), f)
		switch {
		case wantErr != nil:
			var uv *json.UnsupportedValueError
			if err == nil || !errors.As(err, &uv) || err.Error() != wantErr.Error() {
				t.Errorf("%v: error %v, want %v", f, err, wantErr)
			}
		case err != nil:
			t.Errorf("%v: error %v", f, err)
		case string(got) != "x"+string(want):
			t.Errorf("%v: %s, want %s", f, got[1:], want)
		}
	}
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

// record is a value the Writer can spell by hand: its lists, a float, a
// pre-rendered value, and a field left to json.Marshal.
type record struct {
	IDs   []int32         `json:"ids"`
	Keys  []string        `json:"keys"`
	Cost  float64         `json:"cost"`
	Raw   json.RawMessage `json:"raw"`
	Other map[string]int  `json:"other"`
}

// write spells r with the Writer.
func (r *record) write(w *Writer) {
	w.Raw(`{"ids":`)
	w.Int32s(r.IDs)
	w.Raw(`,"keys":`)
	w.Strings(r.Keys)
	w.Raw(`,"cost":`)
	w.Float(r.Cost)
	w.Raw(`,"raw":`)
	w.Bytes(r.Raw)
	w.Raw(`,"other":`)
	w.Marshal(r.Other)
	w.Raw("}")
}

// TestWriterMatchesMarshal: a list of records spelled by the Writer — long
// enough to flush many times, with a pre-rendered value longer than the
// buffer — is byte-equal to json.Marshal of the list, and a NaN stops the
// Writer with json.Marshal's error.
func TestWriterMatchesMarshal(t *testing.T) {
	big, _ := json.Marshal(strings.Repeat("<x>", flushAt))
	var recs []record
	for i := range 3000 {
		recs = append(recs, record{
			IDs:   []int32{int32(i), -int32(i), math.MaxInt32},
			Keys:  []string{stringCases[i%len(stringCases)], "k"},
			Cost:  floatCases[i%(len(floatCases)-3)] / float64(1+i%7),
			Raw:   json.RawMessage(`{"n":1}`),
			Other: map[string]int{"b": i, "a": 1},
		})
	}
	recs[1234].Raw = big
	for _, nan := range []bool{false, true} {
		if nan {
			recs[2999].Cost = math.NaN()
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
