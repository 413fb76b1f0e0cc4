// Package sion reads and writes the self-describing object notation used
// throughout the SQL++ paper: single-quoted strings, JSON-style arrays and
// tuples, and double-brace (or double-angle) bags:
//
//	{{ {'id': 3, 'name': 'Bob Smith', 'projects': ['OLAP Security']} }}
//
// The notation is the fixture format for the compatibility kit and the
// CLI's default data format. Writing is provided by value.String and
// value.Pretty; this package implements parsing.
package sion

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"sqlpp/internal/value"
)

// SyntaxError describes a parse failure with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sion: offset %d: %s", e.Offset, e.Msg)
}

// Parse reads a single value from src. Trailing whitespace and comments
// are permitted; any other trailing input is an error.
func Parse(src string) (value.Value, error) {
	p := &parser{src: src}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected trailing input")
	}
	return v, nil
}

// MustParse is Parse but panics on error; intended for fixtures and tests.
func MustParse(src string) value.Value {
	v, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return v
}

type parser struct {
	src string
	pos int
	// stack holds the elements of the open collections and tuples,
	// innermost last; one that closes copies its own into a slice of
	// exactly their number.
	stack []value.Value
}

// pop removes the stack above base and returns it as a slice of its own.
func (p *parser) pop(base int) []value.Value {
	out := make([]value.Value, len(p.stack)-base)
	copy(out, p.stack[base:])
	p.stack = p.stack[:base]
	return out
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
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

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) parseValue() (value.Value, error) {
	p.skipSpace()
	switch {
	case p.pos >= len(p.src):
		return nil, p.errf("unexpected end of input")
	case p.hasPrefix("{{"):
		p.pos += 2
		return p.parseSeqUntil("}}", func(vs []value.Value) value.Value { return value.Bag(vs) })
	case p.hasPrefix("<<"):
		p.pos += 2
		return p.parseSeqUntil(">>", func(vs []value.Value) value.Value { return value.Bag(vs) })
	case p.peek() == '[':
		p.pos++
		return p.parseSeqUntil("]", func(vs []value.Value) value.Value { return value.Array(vs) })
	case p.peek() == '{':
		p.pos++
		return p.parseTuple()
	case p.peek() == '\'':
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return value.String(s), nil
	default:
		return p.parseScalarWord()
	}
}

// parseSeqUntil parses comma-separated values until the closing token.
func (p *parser) parseSeqUntil(close string, wrap func([]value.Value) value.Value) (value.Value, error) {
	base := len(p.stack)
	p.skipSpace()
	if p.hasPrefix(close) {
		p.pos += len(close)
		return wrap(nil), nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, v)
		p.skipSpace()
		switch {
		case p.peek() == ',':
			p.pos++
		case p.hasPrefix(close):
			p.pos += len(close)
			return wrap(p.pop(base)), nil
		default:
			return nil, p.errf("expected ',' or %q", close)
		}
	}
}

func (p *parser) parseTuple() (value.Value, error) {
	base := len(p.stack)
	shape := value.ShapeOf()
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return value.EmptyTuple(), nil
	}
	for {
		p.skipSpace()
		var name string
		switch {
		case p.peek() == '\'':
			s, err := p.parseString()
			if err != nil {
				return nil, err
			}
			name = s
		case p.peek() == '"':
			s, err := p.parseQuoted('"')
			if err != nil {
				return nil, err
			}
			name = s
		case isIdentStart(rune(p.peek())):
			name = p.parseIdent()
		default:
			return nil, p.errf("expected attribute name")
		}
		p.skipSpace()
		if p.peek() != ':' {
			return nil, p.errf("expected ':' after attribute name %q", name)
		}
		p.pos++
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		shape = shape.With(name)
		p.stack = append(p.stack, v)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return shape.New(p.pop(base)), nil
		default:
			return nil, p.errf("expected ',' or '}' in tuple")
		}
	}
}

func (p *parser) parseString() (string, error) { return p.parseQuoted('\'') }

// parseQuoted parses a quote-delimited string where the quote character is
// escaped by doubling, as in SQL.
func (p *parser) parseQuoted(q byte) (string, error) {
	if p.peek() != q {
		return "", p.errf("expected %q", string(q))
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == q {
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == q {
				sb.WriteByte(q)
				p.pos += 2
				continue
			}
			p.pos++
			return sb.String(), nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return "", p.errf("unterminated string")
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (p *parser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.src) && isIdentPart(rune(p.src[p.pos])) {
		p.pos++
	}
	return p.src[start:p.pos]
}

// parseScalarWord parses numbers and the keywords true/false/null/missing
// and the blob literal x'..'.
func (p *parser) parseScalarWord() (value.Value, error) {
	c := p.peek()
	if c == '-' || c == '+' || (c >= '0' && c <= '9') {
		return p.parseNumber()
	}
	if (c == 'x' || c == 'X') && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' {
		p.pos++
		hex, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return decodeHex(hex, p)
	}
	if !isIdentStart(rune(c)) {
		return nil, p.errf("unexpected character %q", string(c))
	}
	word := p.parseIdent()
	switch strings.ToLower(word) {
	case "true":
		return value.True, nil
	case "false":
		return value.False, nil
	case "null":
		return value.Null, nil
	case "missing":
		return value.Missing, nil
	case "nan":
		return value.Float(nan()), nil
	}
	return nil, p.errf("unknown word %q", word)
}

func (p *parser) parseNumber() (value.Value, error) {
	start := p.pos
	if c := p.peek(); c == '-' || c == '+' {
		p.pos++
	}
	isFloat := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9':
			p.pos++
		case c == '.':
			isFloat = true
			p.pos++
		case c == 'e' || c == 'E':
			isFloat = true
			p.pos++
			if n := p.peek(); n == '+' || n == '-' {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	text := p.src[start:p.pos]
	if !isFloat {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return value.Int(i), nil
		}
		// Integer overflow falls through to the float path.
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, p.errf("invalid number %q", text)
	}
	return value.Float(f), nil
}

func decodeHex(s string, p *parser) (value.Value, error) {
	if len(s)%2 != 0 {
		return nil, p.errf("odd-length hex blob")
	}
	out := make(value.Bytes, len(s)/2)
	for i := 0; i < len(s); i += 2 {
		hi, ok1 := hexDigit(s[i])
		lo, ok2 := hexDigit(s[i+1])
		if !ok1 || !ok2 {
			return nil, p.errf("invalid hex digit in blob")
		}
		out[i/2] = hi<<4 | lo
	}
	return out, nil
}

func hexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func nan() float64 { return math.NaN() }
