package datafmt

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"unicode"

	"sqlpp/internal/value"
)

// DecodeSION reads a single value in the object notation from data.
// Trailing whitespace and comments are permitted; any other trailing
// input is an error.
func DecodeSION(data []byte) (value.Value, error) {
	p := &sionParser{src: data, builder: builder{format: "sion"}}
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected trailing input")
	}
	return v, nil
}

// ParseSION decodes a string in the object notation.
func ParseSION(src string) (value.Value, error) { return DecodeSION([]byte(src)) }

// sionParser decodes by recursive descent over the whole input. Quoted
// strings without a doubled quote are read in place, so an attribute name
// of a known shape allocates nothing.
type sionParser struct {
	src []byte
	pos int
	builder
}

func (p *sionParser) errf(format string, args ...any) error {
	return &SyntaxError{Format: "sion", Offset: int64(p.pos), Msg: fmt.Sprintf(format, args...)}
}

func (p *sionParser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		case c == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '-':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *sionParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *sionParser) hasPrefix(s string) bool {
	return len(p.src)-p.pos >= len(s) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *sionParser) value() (value.Value, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case p.pos >= len(p.src):
		return nil, p.errf("unexpected end of input")
	case p.hasPrefix("{{"):
		return p.sequence("}}")
	case p.hasPrefix("<<"):
		return p.sequence(">>")
	case c == '[':
		return p.sequence("]")
	case c == '{':
		return p.tuple()
	case c == '\'':
		s, err := p.quoted('\'')
		if err != nil {
			return nil, err
		}
		return value.String(s), nil
	default:
		return p.scalarWord()
	}
}

// sequence parses the comma-separated values after the opener at pos
// (as long as close) up to close: an array's or a bag's.
func (p *sionParser) sequence(close string) (value.Value, error) {
	base, err := p.open(int64(p.pos))
	if err != nil {
		return nil, err
	}
	p.pos += len(close)
	for p.skipSpace(); !p.hasPrefix(close); p.skipSpace() {
		if len(p.stack) > base {
			if p.peek() != ',' {
				return nil, p.errf("expected ',' or %q", close)
			}
			p.pos++
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		p.push(v)
	}
	p.pos += len(close)
	if close == "]" {
		return value.Array(p.close(base)), nil
	}
	return value.Bag(p.close(base)), nil
}

// tuple parses the attributes after the '{' at pos.
func (p *sionParser) tuple() (value.Value, error) {
	base, err := p.open(int64(p.pos))
	if err != nil {
		return nil, err
	}
	p.pos++
	shape := value.ShapeOf()
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return shape.New(p.close(base)), nil
	}
	for {
		p.skipSpace()
		var name []byte
		switch c := p.peek(); {
		case c == '\'' || c == '"':
			if name, err = p.quoted(c); err != nil {
				return nil, err
			}
		case isIdentStart(c):
			name = p.ident()
		default:
			return nil, p.errf("expected attribute name")
		}
		shape = shape.WithBytes(name)
		p.skipSpace()
		if p.peek() != ':' {
			return nil, p.errf("expected ':' after attribute name %q", name)
		}
		p.pos++
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		p.push(v)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return shape.New(p.close(base)), nil
		default:
			return nil, p.errf("expected ',' or '}' in tuple")
		}
	}
}

// quoted parses a string delimited by q at pos, in which q is escaped by
// doubling, as in SQL. Unless it holds a doubled quote, the result is a
// part of the input.
func (p *sionParser) quoted(q byte) ([]byte, error) {
	p.pos++
	start := p.pos
	for {
		i := bytes.IndexByte(p.src[p.pos:], q)
		if i < 0 {
			p.pos = len(p.src)
			return nil, p.errf("unterminated string")
		}
		p.pos += i + 1
		if p.peek() != q {
			break
		}
		p.pos++
	}
	s := p.src[start : p.pos-1]
	if bytes.IndexByte(s, q) >= 0 {
		s = bytes.ReplaceAll(s, []byte{q, q}, []byte{q})
	}
	return s, nil
}

// isIdentStart and isIdentPart read each byte as the rune of that number.
func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (p *sionParser) ident() []byte {
	start := p.pos
	for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

// sionWords are the notation's keyword values, matched in any case.
var sionWords = []struct {
	word string
	v    value.Value
}{
	{"true", value.True}, {"false", value.False}, {"null", value.Null},
	{"missing", value.Missing}, {"nan", value.Float(math.NaN())},
}

// scalarWord parses a number, a keyword value or a blob literal x'..'.
func (p *sionParser) scalarWord() (value.Value, error) {
	c := p.peek()
	if c == '-' || c == '+' || (c >= '0' && c <= '9') {
		return p.number()
	}
	if (c == 'x' || c == 'X') && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' {
		p.pos++
		digits, err := p.quoted('\'')
		if err != nil {
			return nil, err
		}
		out := make(value.Bytes, hex.DecodedLen(len(digits)))
		if _, err := hex.Decode(out, digits); err != nil {
			return nil, p.errf("invalid hex blob: %v", err)
		}
		return out, nil
	}
	if !isIdentStart(c) {
		return nil, p.errf("unexpected character %q", string(c))
	}
	word := p.ident()
	for _, w := range sionWords {
		if len(word) == len(w.word) && bytes.EqualFold(word, []byte(w.word)) {
			return w.v, nil
		}
	}
	return nil, p.errf("unknown word %q", word)
}

func (p *sionParser) number() (value.Value, error) {
	start := p.pos
	if c := p.peek(); c == '-' || c == '+' {
		p.pos++
	}
	isFloat := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '.' || c == 'e' || c == 'E' {
			isFloat = true
		} else if c < '0' || c > '9' {
			break
		}
		p.pos++
		if n := p.peek(); (c == 'e' || c == 'E') && (n == '+' || n == '-') {
			p.pos++
		}
	}
	text := p.src[start:p.pos]
	if !isFloat {
		if i, err := strconv.ParseInt(string(text), 10, 64); err == nil {
			return value.Int(i), nil
		}
		// Integer overflow falls through to the float path.
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return nil, p.errf("invalid number %q", text)
	}
	return value.Float(f), nil
}
