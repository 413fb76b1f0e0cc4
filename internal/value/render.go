package value

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// String renders the value in the paper's object notation.
func (missingType) String() string { return "MISSING" }

// String renders the value in the paper's object notation.
func (nullType) String() string { return "null" }

// String renders the value in the paper's object notation.
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// String renders the value in the paper's object notation.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// String renders the value in the paper's object notation. Integral
// floats keep a trailing ".0" so the rendering round-trips kind.
func (f Float) String() string {
	var buf [32]byte
	return string(appendFloat(buf[:0], float64(f)))
}

func appendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	if bytes.ContainsAny(dst[n:], ".eE") {
		return dst
	}
	return append(dst, ".0"...)
}

// String renders the value in the paper's object notation: single quotes,
// with embedded single quotes doubled, as in SQL literals.
func (s String) String() string { return string(appendQuoted(nil, string(s))) }

func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '\'')
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		dst = append(append(dst, s[:i+1]...), '\'')
		s = s[i+1:]
	}
	return append(append(dst, s...), '\'')
}

// AppendJSONString appends s as a JSON string literal, escaped byte for
// byte as encoding/json escapes it: `"` and `\` and the control
// characters are escaped (\b \f \n \r \t by name, the rest as \u00XX),
// so are <, > and & (as \u003c, \u003e, \u0026) and U+2028 and U+2029,
// and each byte of invalid UTF-8 becomes \ufffd. It lives here, beside
// the object notation, so that a shape can hold its names pre-escaped
// (Shape.JSONKeys).
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// jsonSafe reports the ASCII bytes a JSON string carries as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune("\"\\<>&", c)
	}
	return safe
}()

// String renders the value as a hexadecimal blob literal.
func (b Bytes) String() string { return string(appendBlob(nil, b)) }

func appendBlob(dst []byte, b Bytes) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, "x'"...)
	for _, c := range b {
		dst = append(dst, hex[c>>4], hex[c&0xf])
	}
	return append(dst, '\'')
}

// String renders the array in the paper's object notation.
func (a Array) String() string { return string(appendSeq(nil, a, "[", "]")) }

// String renders the bag in the paper's object notation.
func (b Bag) String() string { return string(appendSeq(nil, b, "{{", "}}")) }

// String renders the tuple in the paper's object notation.
func (t *Tuple) String() string { return string(appendTuple(nil, t)) }

// appendValue renders v onto dst. Nested values render into the one
// buffer the outermost String call owns, so a collection costs its
// rendering once rather than once per nesting level.
func appendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Int:
		return strconv.AppendInt(dst, int64(x), 10)
	case Float:
		return appendFloat(dst, float64(x))
	case String:
		return appendQuoted(dst, string(x))
	case Bytes:
		return appendBlob(dst, x)
	case Array:
		return appendSeq(dst, x, "[", "]")
	case Bag:
		return appendSeq(dst, x, "{{", "}}")
	case *Tuple:
		return appendTuple(dst, x)
	}
	return append(dst, v.String()...) // MISSING, null, booleans: constant strings
}

func appendTuple(dst []byte, t *Tuple) []byte {
	dst = append(dst, '{')
	for i, name := range t.shape.names {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendQuoted(dst, name)
		dst = append(dst, ": "...)
		dst = appendValue(dst, t.vals[i])
	}
	return append(dst, '}')
}

func appendSeq(dst []byte, vs []Value, open, close string) []byte {
	dst = append(dst, open...)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendValue(dst, v)
	}
	return append(dst, close...)
}

// Pretty renders v with newline indentation, two spaces per level, in the
// same object notation as String. Useful for diffs and the CLI. Indents
// stop deepening at maxPrettyIndent levels, so a value nested d deep
// renders in O(d) bytes, not O(d²).
func Pretty(v Value) string {
	var sb strings.Builder
	pretty(&sb, v, 0)
	return sb.String()
}

// maxPrettyIndent is the deepest level Pretty indents further; deeper
// levels share its indent.
const maxPrettyIndent = 32

// prettyIndents backs every indent Pretty writes.
var prettyIndents = strings.Repeat("  ", maxPrettyIndent)

func prettyIndent(depth int) string { return prettyIndents[:2*min(depth, maxPrettyIndent)] }

func pretty(sb *strings.Builder, v Value, depth int) {
	indent, child := prettyIndent(depth), prettyIndent(depth+1)
	switch x := v.(type) {
	case Array:
		prettySeq(sb, x, "[", "]", indent, child, depth)
	case Bag:
		prettySeq(sb, x, "{{", "}}", indent, child, depth)
	case *Tuple:
		if len(x.vals) == 0 {
			sb.WriteString("{}")
			return
		}
		sb.WriteString("{\n")
		for i, name := range x.shape.names {
			sb.WriteString(child)
			sb.WriteString(String(name).String())
			sb.WriteString(": ")
			pretty(sb, x.vals[i], depth+1)
			if i < len(x.vals)-1 {
				sb.WriteByte(',')
			}
			sb.WriteByte('\n')
		}
		sb.WriteString(indent)
		sb.WriteByte('}')
	default:
		sb.WriteString(v.String())
	}
}

func prettySeq(sb *strings.Builder, vs []Value, open, close, indent, child string, depth int) {
	if len(vs) == 0 {
		sb.WriteString(open)
		sb.WriteString(close)
		return
	}
	sb.WriteString(open)
	sb.WriteByte('\n')
	for i, v := range vs {
		sb.WriteString(child)
		pretty(sb, v, depth+1)
		if i < len(vs)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(indent)
	sb.WriteString(close)
}
