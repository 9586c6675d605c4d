// Package canonjson streams JSON byte-identical to encoding/json's Marshal
// for the few shapes the persisted costing section is made of — integers,
// strings, integer lists and pre-rendered values — so a large section can
// be hashed or written without reflection and without holding its whole
// encoding in memory. Every rule encoding/json applies is copied: strings
// are escaped with its HTML-safe rules (<, >, & and U+2028/U+2029 escaped,
// invalid UTF-8 replaced by U+FFFD). Anything else is handed to
// json.Marshal through Marshal.
package canonjson

import (
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"
)

// flushAt is the buffered size at which the Writer hands its bytes on;
// pre-rendered values at least this long bypass the buffer.
const flushAt = 32 << 10

// Writer buffers JSON text and hands it to an io.Writer in chunks. Its first
// error — a failed write, or a value json.Marshal would refuse — is sticky:
// every later call is a no-op and Flush returns it.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer streaming into w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, flushAt+512)}
}

// Fail records err as the Writer's error unless it already has one.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Flush hands on whatever is buffered and returns the Writer's error.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// spill flushes once the buffer has grown past flushAt.
func (w *Writer) spill() {
	if len(w.buf) >= flushAt {
		w.Flush()
	}
}

// Raw writes literal JSON text: punctuation and quoted field names.
func (w *Writer) Raw(s string) {
	if w.err == nil {
		w.buf = append(w.buf, s...)
		w.spill()
	}
}

// Bytes writes a pre-rendered JSON value; a long one goes straight through.
func (w *Writer) Bytes(b []byte) {
	if w.err != nil {
		return
	}
	if len(b) < flushAt {
		w.buf = append(w.buf, b...)
		w.spill()
		return
	}
	if w.Flush() == nil {
		_, w.err = w.w.Write(b)
	}
}

// Int writes an integer.
func (w *Writer) Int(n int64) {
	if w.err == nil {
		w.buf = strconv.AppendInt(w.buf, n, 10)
		w.spill()
	}
}

// String writes a string as json.Marshal does.
func (w *Writer) String(s string) {
	if w.err == nil {
		w.buf = appendString(w.buf, s)
		w.spill()
	}
}

// Int32s writes a list of integers as json.Marshal writes a non-nil []int32.
func (w *Writer) Int32s(ns []int32) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, '[')
	for i, n := range ns {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	}
	w.buf = append(w.buf, ']')
	w.spill()
}

// Marshal writes json.Marshal(v), or records its error.
func (w *Writer) Marshal(v any) {
	if w.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		w.err = err
		return
	}
	w.Bytes(b)
}

const hex = "0123456789abcdef"

// appendString appends s quoted as json.Marshal quotes a string: HTML-safe
// escaping, U+2028 and U+2029 escaped, invalid UTF-8 bytes replaced by
// U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
