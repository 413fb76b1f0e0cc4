// Package datafmt maps external data formats onto the SQL++ data model,
// realizing the paper's format-independence tenet: a query is written
// identically over JSON, CSV, CBOR, or the paper's object notation,
// because every format decodes to the same logical values.
//
// Mapping notes:
//   - JSON objects become tuples (preserving member order and permitting
//     duplicate names), arrays become arrays, and top-level arrays can be
//     read as bags for collection registration.
//   - CSV rows become tuples named by the header line; fields parse as
//     numbers or booleans when unambiguous, else strings.
//   - CBOR (RFC 8949) is implemented from scratch for the major types;
//     maps with text keys become tuples, arrays become arrays.
package datafmt

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"sqlpp/internal/value"
)

// JSONSyntaxError describes malformed or truncated JSON input with the
// byte offset it was detected at. Truncated input wraps
// io.ErrUnexpectedEOF.
type JSONSyntaxError struct {
	Offset int64
	Msg    string
	Err    error
}

// Error implements the error interface.
func (e *JSONSyntaxError) Error() string {
	return fmt.Sprintf("datafmt: json offset %d: %s", e.Offset, e.Msg)
}

// Unwrap exposes io.ErrUnexpectedEOF for truncated input.
func (e *JSONSyntaxError) Unwrap() error { return e.Err }

// maxJSONDepth bounds how deeply arrays and objects may nest (the bound
// encoding/json uses), so hostile input is an error and not a stack the
// size of the input.
const maxJSONDepth = 10000

// jsonWindow is how much input the decoder holds at a time, beyond a
// token longer than that.
const jsonWindow = 64 << 10

// DecodeJSON reads one JSON value from r into the SQL++ data model, as
// the bytes arrive; r must end where the value does. Numbers become Int
// when they are integral and fit int64, else Float; a number outside
// float64's range is an error.
func DecodeJSON(r io.Reader) (value.Value, error) {
	d := newJSONDecoder(r)
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	if d.skipSpace() {
		return nil, d.errf("trailing content after JSON value")
	}
	if d.rerr != nil {
		return nil, d.truncated()
	}
	return v, nil
}

// ParseJSON decodes a JSON string.
func ParseJSON(src string) (value.Value, error) {
	return DecodeJSON(strings.NewReader(src))
}

// DecodeJSONBag reads a JSON value and converts a top-level array into a
// bag, the natural registration shape for a collection of documents.
func DecodeJSONBag(r io.Reader) (value.Value, error) {
	v, err := DecodeJSON(r)
	if err != nil {
		return nil, err
	}
	if a, ok := v.(value.Array); ok {
		return value.Bag(a), nil
	}
	return v, nil
}

// DecodeJSONLines reads newline-delimited JSON documents as a bag.
func DecodeJSONLines(r io.Reader) (value.Value, error) {
	d := newJSONDecoder(r)
	for d.skipSpace() {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.stack = append(d.stack, v)
	}
	if d.rerr != nil {
		return nil, d.truncated()
	}
	return value.Bag(d.pop(0)), nil
}

// jsonDecoder decodes by recursive descent, straight into values: object
// keys walk the shape tree as bytes, so a row of a known shape allocates
// its values and nothing for its names. It reads buf[pos:], a window that
// more slides along r, so decoding holds the values and one window of the
// input, not the input.
type jsonDecoder struct {
	buf []byte
	pos int
	// r is nil once it has ended; rerr is what ended it, unless io.EOF.
	r    io.Reader
	rerr error
	// base is the input offset of buf[0].
	base int64
	// mark is where the token being read began, which the window must
	// keep; -1 between tokens.
	mark  int
	depth int
	// stack holds the elements of the open arrays and objects, innermost
	// last; a container that closes copies its own into a slice of
	// exactly their number.
	stack []value.Value
	// unquoted is the scratch that strings with escapes or invalid UTF-8
	// are rebuilt in.
	unquoted []byte
}

func newJSONDecoder(r io.Reader) *jsonDecoder {
	return &jsonDecoder{r: r, buf: make([]byte, 0, 512), mark: -1}
}

// more reads further input, first sliding the window past what has been
// decoded, and reports whether any came. It moves pos and mark with the
// window and invalidates every slice of it. The window doubles while
// reads fill it, up to jsonWindow, and after that only for a token that
// does not fit.
func (d *jsonDecoder) more() bool {
	if d.r == nil {
		return false
	}
	full := len(d.buf) == cap(d.buf)
	keep := d.pos
	if d.mark >= 0 {
		keep, d.mark = d.mark, 0
	}
	rest := d.buf[keep:]
	d.base += int64(keep)
	d.pos -= keep
	if full && (keep == 0 || cap(d.buf) < jsonWindow) {
		d.buf = append(make([]byte, 0, 2*cap(d.buf)), rest...)
	} else {
		d.buf = d.buf[:copy(d.buf, rest)]
	}
	for {
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.r = nil
			if err != io.EOF {
				d.rerr = err
			}
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// need makes buf[pos:pos+n] present and reports whether it could.
func (d *jsonDecoder) need(n int) bool {
	for len(d.buf)-d.pos < n {
		if !d.more() {
			return false
		}
	}
	return true
}

// peek returns the next input byte, or 0 (which no token holds) at the
// end of input.
func (d *jsonDecoder) peek() byte {
	if !d.need(1) {
		return 0
	}
	return d.buf[d.pos]
}

func (d *jsonDecoder) errf(format string, args ...any) error {
	return &JSONSyntaxError{Offset: d.base + int64(d.pos), Msg: fmt.Sprintf(format, args...)}
}

// truncated is the error for input that ended, or failed, inside a value.
func (d *jsonDecoder) truncated() error {
	end := d.base + int64(len(d.buf))
	if d.rerr != nil {
		return fmt.Errorf("datafmt: json offset %d: %w", end, d.rerr)
	}
	return &JSONSyntaxError{Offset: end, Msg: "unexpected end of input", Err: io.ErrUnexpectedEOF}
}

// skipSpace moves past white space and reports whether input remains.
func (d *jsonDecoder) skipSpace() bool {
	for {
		for d.pos < len(d.buf) {
			switch d.buf[d.pos] {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return true
			}
		}
		if !d.more() {
			return false
		}
	}
}

// pop removes the stack above base and returns it as a slice of its own.
func (d *jsonDecoder) pop(base int) []value.Value {
	out := make([]value.Value, len(d.stack)-base)
	copy(out, d.stack[base:])
	d.stack = d.stack[:base]
	return out
}

func (d *jsonDecoder) value() (value.Value, error) {
	if !d.skipSpace() {
		return nil, d.truncated()
	}
	switch c := d.buf[d.pos]; c {
	case '{', '[':
		if d.depth == maxJSONDepth {
			return nil, d.errf("nesting deeper than %d", maxJSONDepth)
		}
		d.pos++
		d.depth++
		var v value.Value
		var err error
		if c == '{' {
			v, err = d.object()
		} else {
			v, err = d.array()
		}
		d.depth--
		return v, err
	case '"':
		s, err := d.stringBytes()
		if err != nil {
			return nil, err
		}
		return value.String(s), nil
	case 't':
		return d.literal("true", value.True)
	case 'f':
		return d.literal("false", value.False)
	case 'n':
		return d.literal("null", value.Null)
	default:
		if c == '-' || '0' <= c && c <= '9' {
			return d.number()
		}
		return nil, d.errf("unexpected character %q at the start of a value", c)
	}
}

func (d *jsonDecoder) literal(word string, v value.Value) (value.Value, error) {
	for i := 0; i < len(word); i++ {
		if !d.need(i + 1) {
			return nil, d.truncated()
		}
		if d.buf[d.pos+i] != word[i] {
			return nil, d.errf("invalid literal (want %s)", word)
		}
	}
	d.pos += len(word)
	return v, nil
}

// array decodes the elements after '['.
func (d *jsonDecoder) array() (value.Value, error) {
	base := len(d.stack)
	if !d.skipSpace() {
		return nil, d.truncated()
	}
	if d.buf[d.pos] == ']' {
		d.pos++
		return value.Array{}, nil
	}
	for {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.stack = append(d.stack, v)
		more, err := d.next(']')
		if err != nil {
			return nil, err
		}
		if !more {
			return value.Array(d.pop(base)), nil
		}
	}
}

// object decodes the members after '{'. Member order and duplicate names
// are kept.
func (d *jsonDecoder) object() (value.Value, error) {
	base := len(d.stack)
	shape := value.ShapeOf()
	if !d.skipSpace() {
		return nil, d.truncated()
	}
	if d.buf[d.pos] == '}' {
		d.pos++
		return shape.New(nil), nil
	}
	for {
		if !d.skipSpace() {
			return nil, d.truncated()
		}
		if d.buf[d.pos] != '"' {
			return nil, d.errf("expected a string object key, found %q", d.buf[d.pos])
		}
		key, err := d.stringBytes()
		if err != nil {
			return nil, err
		}
		shape = shape.WithBytes(key)
		if !d.skipSpace() {
			return nil, d.truncated()
		}
		if d.buf[d.pos] != ':' {
			return nil, d.errf("expected ':' after object key, found %q", d.buf[d.pos])
		}
		d.pos++
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.stack = append(d.stack, v)
		more, err := d.next('}')
		if err != nil {
			return nil, err
		}
		if !more {
			return shape.New(d.pop(base)), nil
		}
	}
}

// next consumes what follows an element of a container: a comma (more
// elements follow) or the closer.
func (d *jsonDecoder) next(closer byte) (more bool, err error) {
	if !d.skipSpace() {
		return false, d.truncated()
	}
	switch c := d.buf[d.pos]; c {
	case ',':
		d.pos++
		return true, nil
	case closer:
		d.pos++
		return false, nil
	default:
		return false, d.errf("expected ',' or %q, found %q", closer, c)
	}
}

// number decodes a number by the JSON grammar. Integer literals that fit
// int64 become Int (-0 is Int 0); every other literal is a Float.
func (d *jsonDecoder) number() (value.Value, error) {
	d.mark = d.pos
	neg := d.buf[d.pos] == '-'
	if neg {
		d.pos++
	}
	sign := d.pos - d.mark // the integer digits begin at mark+sign
	intDigits := d.digits()
	if intDigits == 0 {
		return nil, d.badNumber()
	}
	if d.buf[d.mark+sign] == '0' && intDigits > 1 {
		d.pos = d.mark + sign + 1
		return nil, d.errf("digit after a leading zero")
	}
	integral := true
	if d.peek() == '.' {
		integral = false
		d.pos++
		if d.digits() == 0 {
			return nil, d.badNumber()
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		integral = false
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if d.digits() == 0 {
			return nil, d.badNumber()
		}
	}
	lit := d.buf[d.mark:d.pos]
	d.mark = -1
	if integral && intDigits <= 18 { // 18 digits always fit int64
		var i int64
		for _, c := range lit[sign:] {
			i = i*10 + int64(c-'0')
		}
		if neg {
			i = -i
		}
		return value.Int(i), nil
	}
	if integral {
		if i, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return value.Int(i), nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.pos -= len(lit)
		return nil, d.errf("number %s is outside the float64 range", lit)
	}
	return value.Float(f), nil
}

// digits moves past a run of digits and returns its length.
func (d *jsonDecoder) digits() int {
	n := 0
	for {
		for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
			d.pos++
			n++
		}
		if d.pos < len(d.buf) || !d.more() {
			return n
		}
	}
}

// badNumber is the error for a number that lacks a digit at pos.
func (d *jsonDecoder) badNumber() error {
	if d.pos == len(d.buf) {
		return d.truncated()
	}
	return d.errf("invalid character %q in number", d.buf[d.pos])
}

// stringBytes decodes the string at pos (which holds its opening quote).
// The result is a part of the window when the string needs no rewriting,
// else of the scratch: valid until the decoder next reads.
func (d *jsonDecoder) stringBytes() ([]byte, error) {
	d.pos++
	d.mark = d.pos
	ascii := true
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			switch c := d.buf[d.pos]; {
			case c == '"':
				s := d.buf[d.mark:d.pos]
				if !ascii && !utf8.Valid(s) {
					return d.unquote()
				}
				d.pos++
				d.mark = -1
				return s, nil
			case c == '\\':
				return d.unquote()
			case c < ' ':
				return nil, d.errf("control character %q in string", c)
			case c >= utf8.RuneSelf:
				ascii = false
			}
		}
		if !d.more() {
			return nil, d.truncated()
		}
	}
}

// unquote is stringBytes for a string with escapes or invalid UTF-8: it
// starts over from mark and rebuilds the string in the scratch, mapping
// each invalid byte and unpaired surrogate to U+FFFD as encoding/json
// does.
func (d *jsonDecoder) unquote() ([]byte, error) {
	d.pos, d.mark = d.mark, -1
	out := d.unquoted[:0]
	for d.need(1) {
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			d.unquoted = out
			return out, nil
		case c < ' ':
			return nil, d.errf("control character %q in string", c)
		case c >= utf8.RuneSelf:
			if !utf8.FullRune(d.buf[d.pos:]) {
				d.need(utf8.UTFMax) // a rune cut by the window's end, if not by the input's
			}
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += size
		case c != '\\':
			out = append(out, c)
			d.pos++
		default:
			r, err := d.escape()
			if err != nil {
				return nil, err
			}
			out = utf8.AppendRune(out, r)
		}
	}
	return nil, d.truncated()
}

// escape decodes the escape sequence whose backslash is at pos.
func (d *jsonDecoder) escape() (rune, error) {
	if !d.need(2) {
		return 0, d.truncated()
	}
	d.pos += 2
	switch c := d.buf[d.pos-1]; c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, err := d.hex4()
		if err != nil || !utf16.IsSurrogate(r) {
			return r, err
		}
		// A surrogate stands for a rune only together with the \u low
		// surrogate after it; alone it is U+FFFD and what follows is read
		// on its own.
		if d.need(2) && d.buf[d.pos] == '\\' && d.buf[d.pos+1] == 'u' {
			d.mark = d.pos
			d.pos += 2
			r2, err := d.hex4()
			if err != nil {
				return 0, err
			}
			if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
				d.mark = -1
				return pair, nil
			}
			d.pos, d.mark = d.mark, -1
		}
		return utf8.RuneError, nil
	default:
		d.pos--
		return 0, d.errf("invalid escape character %q in string", c)
	}
}

// hex4 reads the four hex digits of a \u escape.
func (d *jsonDecoder) hex4() (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		if !d.need(1) {
			return 0, d.truncated()
		}
		c := d.buf[d.pos]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, d.errf("invalid hex digit %q in \\u escape", c)
		}
		r = r<<4 | rune(c)
		d.pos++
	}
	return r, nil
}

// EncodeJSON writes v as JSON. MISSING cannot be encoded (it denotes
// absence); encountering it anywhere is an error — construct results
// first, where tuple construction drops MISSING attributes. Bags encode
// as arrays (JSON has no unordered collection), in canonical order for
// determinism. The encoding streams to w as a JSONWriter's does: nothing
// is written before the first chunk fills, so a small value that fails
// to encode leaves w untouched.
func EncodeJSON(w io.Writer, v value.Value) error {
	jw := NewJSONWriter(w)
	defer jw.Release()
	if err := jw.Value(v); err != nil {
		return err
	}
	return jw.Flush()
}

// JSONString renders v as a JSON string.
func JSONString(v value.Value) (string, error) {
	jw := NewJSONWriter(nil)
	defer jw.Release()
	if err := jw.Value(v); err != nil {
		return "", err
	}
	return string(jw.buf), nil
}

// jsonChunk is the unit of streaming: a JSONWriter hands its buffer on
// each time it passes this size.
const jsonChunk = 32 << 10

// A JSONWriter encodes JSON onto an io.Writer in chunks of about
// jsonChunk bytes: values with Value, and the text around them (an
// envelope's keys and scalars) with Raw, String, Int and Bool. Nothing
// reaches the io.Writer before the first chunk fills, so a caller can
// still answer otherwise when a small value fails to encode, and can
// tell from Written whether anything went out. With a nil io.Writer the
// encoding accumulates in memory.
//
// A value encodes into the one buffer, once: attribute names come
// pre-escaped from their shape (value.Shape.JSONKeys), scalars are
// appended in place, and bags are ordered in a copy on the writer's own
// stack. Writers are pooled (NewJSONWriter, Release), so encoding a
// result allocates nothing per row, nor, once the pool is warm, per
// result.
type JSONWriter struct {
	w       io.Writer
	buf     []byte
	written int64
	// bags holds the canonically ordered copies of the bags being
	// encoded, innermost last.
	bags []value.Value
}

var jsonWriters = sync.Pool{New: func() any {
	return &JSONWriter{buf: make([]byte, 0, jsonChunk+1<<10)}
}}

// NewJSONWriter returns a pooled writer onto w (nil: into memory).
func NewJSONWriter(w io.Writer) *JSONWriter {
	jw := jsonWriters.Get().(*JSONWriter)
	jw.w = w
	return jw
}

// Release returns jw to the pool; jw must not be used after. A writer
// whose buffer grew past four chunks, or whose bag stack past jsonChunk
// elements, is left to the collector instead, so what the pool holds
// stays bounded whatever results went through it.
func (jw *JSONWriter) Release() {
	if cap(jw.buf) > 4*jsonChunk || cap(jw.bags) > jsonChunk {
		return
	}
	jw.w, jw.buf, jw.written, jw.bags = nil, jw.buf[:0], 0, jw.bags[:0]
	jsonWriters.Put(jw)
}

// Written reports how many bytes the io.Writer has taken.
func (jw *JSONWriter) Written() int64 { return jw.written }

// Flush writes out what is buffered.
func (jw *JSONWriter) Flush() error {
	if jw.w == nil {
		return nil
	}
	n, err := jw.w.Write(jw.buf)
	jw.written += int64(n)
	jw.buf = jw.buf[:0]
	return err
}

// Raw appends s as it is; it must be JSON text in its place.
func (jw *JSONWriter) Raw(s string) { jw.buf = append(jw.buf, s...) }

// String appends s as a JSON string.
func (jw *JSONWriter) String(s string) { jw.buf = value.AppendJSONString(jw.buf, s) }

// Int appends i as a JSON number.
func (jw *JSONWriter) Int(i int64) { jw.buf = strconv.AppendInt(jw.buf, i, 10) }

// Bool appends b as a JSON boolean.
func (jw *JSONWriter) Bool(b bool) { jw.buf = strconv.AppendBool(jw.buf, b) }

// Value appends v as EncodeJSON encodes it, writing out each chunk as it
// fills.
func (jw *JSONWriter) Value(v value.Value) error {
	if jw.w != nil && len(jw.buf) >= jsonChunk {
		if err := jw.Flush(); err != nil {
			return err
		}
	}
	switch x := v.(type) {
	case value.Bool:
		jw.Bool(bool(x))
	case value.Int:
		jw.Int(int64(x))
	case value.Float:
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			jw.Raw("null") // JSON cannot express them
			return nil
		}
		jw.buf = strconv.AppendFloat(jw.buf, f, 'g', -1, 64)
	case value.String:
		jw.String(string(x))
	case value.Bytes:
		// Bytes encode as a hex string, the closest JSON-safe mapping.
		const hex = "0123456789abcdef"
		jw.buf = append(jw.buf, '"')
		for _, c := range x {
			jw.buf = append(jw.buf, hex[c>>4], hex[c&0xf])
		}
		jw.buf = append(jw.buf, '"')
	case value.Array:
		jw.buf = append(jw.buf, '[')
		for i, el := range x {
			if i > 0 {
				jw.buf = append(jw.buf, ',')
			}
			if err := jw.Value(el); err != nil {
				return err
			}
		}
		jw.buf = append(jw.buf, ']')
	case value.Bag:
		return jw.bag(x)
	case *value.Tuple:
		keys, ends := x.Shape().JSONKeys()
		jw.buf = append(jw.buf, '{')
		from := int32(0)
		for i, el := range x.Values() {
			if i > 0 {
				jw.buf = append(jw.buf, ',')
			}
			jw.buf = append(jw.buf, keys[from:ends[i]]...)
			from = ends[i]
			if err := jw.Value(el); err != nil {
				return err
			}
		}
		jw.buf = append(jw.buf, '}')
	default:
		switch v.Kind() {
		case value.KindNull:
			jw.Raw("null")
		case value.KindMissing:
			return fmt.Errorf("datafmt: MISSING cannot be encoded as JSON")
		default:
			return fmt.Errorf("datafmt: cannot encode %s as JSON", v.Kind())
		}
	}
	return nil
}

// bag appends b's elements in canonical order as a JSON array. The order
// is sorted in a copy pushed on jw.bags, read back by index because a
// nested bag may move the stack.
func (jw *JSONWriter) bag(b value.Bag) error {
	base := len(jw.bags)
	jw.bags = append(jw.bags, b...)
	slices.SortStableFunc(jw.bags[base:], value.Compare)
	jw.buf = append(jw.buf, '[')
	var err error
	for i := range b {
		if i > 0 {
			jw.buf = append(jw.buf, ',')
		}
		if err = jw.Value(jw.bags[base+i]); err != nil {
			break
		}
	}
	jw.buf = append(jw.buf, ']')
	clear(jw.bags[base:])
	jw.bags = jw.bags[:base]
	return err
}
