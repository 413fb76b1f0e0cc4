// Package lexer tokenizes SQL++ query text.
//
// The token stream follows SQL conventions: keywords are case-insensitive,
// string literals are single-quoted with ” escaping, identifiers may be
// double-quoted or backquoted to preserve case and reserved words, and
// comments are "--" to end of line or "/* ... */".
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Type classifies a token.
type Type uint8

// Token types.
const (
	EOF Type = iota
	Ident
	QuotedIdent
	Keyword
	StringLit
	IntLit
	FloatLit
	Symbol // punctuation and operators
)

var typeNames = [...]string{
	EOF:         "end of input",
	Ident:       "identifier",
	QuotedIdent: "identifier",
	Keyword:     "keyword",
	StringLit:   "string literal",
	IntLit:      "integer literal",
	FloatLit:    "float literal",
	Symbol:      "symbol",
}

// String returns a human-readable name for the token type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "invalid"
}

// Pos is a byte offset with line/column, for error messages.
type Pos struct {
	Offset int
	Line   int
	Column int
}

// String renders the position as "line:column".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Column) }

// Token is one lexical element.
type Token struct {
	Type Type
	// Text is the canonical text: upper-case for keywords, the unescaped
	// body for string literals and quoted identifiers, the raw text
	// otherwise.
	Text string
	Pos  Pos
}

// Is reports whether the token is the given keyword (upper-case) or
// symbol text.
func (t Token) Is(text string) bool {
	return (t.Type == Keyword || t.Type == Symbol || t.Type == Ident) && t.Text == text
}

// keywords is the SQL++ reserved-word set. Words outside this set lex as
// identifiers even when they play a syntactic role (e.g. function names).
var keywords = map[string]bool{
	"SELECT": true, "VALUE": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "AS": true, "AT": true, "HAVING": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "DISTINCT": true, "ALL": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "BETWEEN": true,
	"LIKE": true, "ESCAPE": true, "IS": true, "NULL": true,
	"MISSING": true, "TRUE": true, "FALSE": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true,
	"OUTER": true, "CROSS": true, "ON": true,
	"UNION": true, "EXCEPT": true, "INTERSECT": true,
	"EXISTS": true, "PIVOT": true, "UNPIVOT": true,
	"NULLS": true, "FIRST": true, "LAST": true,
	"UNKNOWN": true, "CAST": true, "WITH": true, "LET": true,
	"OVER": true, "PARTITION": true,
}

// IsKeyword reports whether upper-cased word is reserved.
func IsKeyword(word string) bool { return keywords[strings.ToUpper(word)] }

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = 9

// keyword returns the canonical (upper-case) text of word when it is a
// keyword. An ASCII word is upper-cased into a stack buffer and answered
// with the keyword table's own string, so it costs no allocation; a word
// with other letters takes strings.ToUpper, whose case mapping can turn
// some of them (U+017F, ſ) into ASCII.
func keyword(word string) (string, bool) {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			upper := strings.ToUpper(word)
			return upper, keywords[upper]
		}
	}
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywordText[string(buf[:len(word)])]
	return kw, ok
}

// keywordText maps each keyword to itself: the canonical token text.
var keywordText = func() map[string]string {
	m := make(map[string]string, len(keywords))
	for k := range keywords {
		if len(k) > maxKeywordLen {
			panic("lexer: keyword longer than maxKeywordLen: " + k)
		}
		m[k] = k
	}
	return m
}()

// Error is a lexical error with position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("syntax error at %s: %s", e.Pos, e.Msg)
}

// Lexer produces tokens from SQL++ source text.
type Lexer struct {
	src    string
	pos    int
	line   int
	column int
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, column: 1}
}

// tokenizeBuf is how many tokens Tokenize collects on the stack before
// it copies them out; a query of up to that many tokens costs one
// exactly-sized allocation instead of a doubling slice.
const tokenizeBuf = 64

// Tokenize lexes the entire input, returning all tokens (excluding EOF).
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var buf [tokenizeBuf]Token
	n := 0
	var more []Token // tokens past the stack buffer
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok.Type == EOF {
			break
		}
		if n < tokenizeBuf {
			buf[n] = tok
			n++
		} else {
			more = append(more, tok)
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Token, n, n+len(more))
	copy(out, buf[:n])
	return append(out, more...), nil
}

// mask replaces every byte of a numeric literal in the output of
// AppendMasked: NUL, which the lexer rejects anywhere outside a quoted
// literal or a comment, so no text that lexes holds it where a number
// stands.
const mask = 0

// NumLit is one numeric literal found by AppendMasked.
type NumLit struct {
	// Text is the literal's source text.
	Text string
	// Float reports that the literal lexed as a float literal.
	Float bool
}

// AppendMasked lexes src once, token by token, and appends to dst a
// copy of src in which every numeric literal's bytes are replaced by
// NUL — in place and at the same width, so every position in the copy
// is the position in src — and to lits the literals in text order.
// Strings, identifiers, comments and whitespace are copied unchanged.
// Two texts that lex give the same copy exactly when they differ only
// in the digits of same-width numeric literals.
func AppendMasked(dst []byte, lits []NumLit, src string) ([]byte, []NumLit, error) {
	lx := New(src)
	start := len(dst)
	dst = append(dst, src...)
	for {
		tok, err := lx.Next()
		if err != nil {
			return dst[:start], lits, err
		}
		switch tok.Type {
		case EOF:
			return dst, lits, nil
		case IntLit, FloatLit:
			at := start + tok.Pos.Offset
			for i := range len(tok.Text) {
				dst[at+i] = mask
			}
			lits = append(lits, NumLit{Text: tok.Text, Float: tok.Type == FloatLit})
		}
	}
}

func (l *Lexer) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) here() Pos {
	return Pos{Offset: l.pos, Line: l.line, Column: l.column}
}

func (l *Lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.column = 1
		} else {
			l.column++
		}
		l.pos++
	}
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '-' && l.peekAt(1) == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.here()
			l.advance(2)
			for {
				if l.pos >= len(l.src) {
					return l.errf(start, "unterminated block comment")
				}
				if l.src[l.pos] == '*' && l.peekAt(1) == '/' {
					l.advance(2)
					break
				}
				l.advance(1)
			}
		default:
			return nil
		}
	}
	return nil
}

// multiSymbols are the multi-character operators, longest first.
var multiSymbols = []string{"<<", ">>", "<>", "<=", ">=", "!=", "||"}

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.here()
	if l.pos >= len(l.src) {
		return Token{Type: EOF, Pos: pos}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '\'':
		text, err := l.lexQuoted('\'')
		if err != nil {
			return Token{}, err
		}
		return Token{Type: StringLit, Text: text, Pos: pos}, nil
	case c == '"':
		text, err := l.lexQuoted('"')
		if err != nil {
			return Token{}, err
		}
		return Token{Type: QuotedIdent, Text: text, Pos: pos}, nil
	case c == '`':
		text, err := l.lexQuoted('`')
		if err != nil {
			return Token{}, err
		}
		return Token{Type: QuotedIdent, Text: text, Pos: pos}, nil
	case c >= '0' && c <= '9', c == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9':
		return l.lexNumber(pos)
	case isIdentStartByte(c):
		return l.lexWord(pos)
	}
	for _, sym := range multiSymbols {
		if strings.HasPrefix(l.src[l.pos:], sym) {
			// "{{" and "}}" are handled by the parser as two symbols; the
			// bag delimiters << and >> lex as one token each.
			l.advance(len(sym))
			return Token{Type: Symbol, Text: sym, Pos: pos}, nil
		}
	}
	switch c {
	case '(', ')', '[', ']', '{', '}', ',', ';', ':', '.', '*', '/', '%',
		'+', '-', '=', '<', '>', '?', '@':
		l.advance(1)
		// Slicing the source shares its bytes; string(c) would allocate.
		return Token{Type: Symbol, Text: l.src[l.pos-1 : l.pos], Pos: pos}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return Token{}, l.errf(pos, "unexpected character %q", string(r))
}

func isIdentStartByte(c byte) bool {
	return c == '_' || c == '$' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c >= utf8.RuneSelf
}

func isIdentPartRune(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *Lexer) lexWord(pos Pos) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPartRune(r) {
			break
		}
		l.advance(size)
	}
	word := l.src[start:l.pos]
	if word == "" {
		// isIdentStartByte admits every byte >= RuneSelf, but the decoded
		// rune may still not be an identifier rune — an invalid UTF-8
		// sequence decodes to U+FFFD, which IsLetter rejects. Without
		// this check the lexer would return an empty token forever
		// instead of advancing.
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		return Token{}, l.errf(pos, "unexpected character %q", string(r))
	}
	if kw, ok := keyword(word); ok {
		return Token{Type: Keyword, Text: kw, Pos: pos}, nil
	}
	return Token{Type: Ident, Text: word, Pos: pos}, nil
}

func (l *Lexer) lexNumber(pos Pos) (Token, error) {
	start := l.pos
	typ := IntLit
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.advance(1)
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		// A dot not followed by a digit is path navigation (e.g. 1.x is
		// not a number), except the leading-dot case handled in Next.
		if d := l.peekAt(1); d >= '0' && d <= '9' || l.pos == start {
			typ = FloatLit
			l.advance(1)
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.advance(1)
			}
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		next := l.peekAt(1)
		if next >= '0' && next <= '9' || ((next == '+' || next == '-') && l.peekAt(2) >= '0' && l.peekAt(2) <= '9') {
			typ = FloatLit
			l.advance(1)
			if c := l.src[l.pos]; c == '+' || c == '-' {
				l.advance(1)
			}
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.advance(1)
			}
		}
	}
	return Token{Type: typ, Text: l.src[start:l.pos], Pos: pos}, nil
}

// lexQuoted lexes a q-delimited literal with doubled-q escaping and
// returns the unescaped body. A body without escapes is a slice of the
// source; only an escaped one is copied.
func (l *Lexer) lexQuoted(q byte) (string, error) {
	pos := l.here()
	l.advance(1)
	start := l.pos
	var sb strings.Builder
	escaped := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == q {
			if l.peekAt(1) == q {
				if !escaped {
					sb.WriteString(l.src[start:l.pos])
					escaped = true
				}
				sb.WriteByte(q)
				l.advance(2)
				continue
			}
			body := l.src[start:l.pos]
			l.advance(1)
			if escaped {
				return sb.String(), nil
			}
			return body, nil
		}
		if escaped {
			sb.WriteByte(c)
		}
		l.advance(1)
	}
	return "", l.errf(pos, "unterminated %q-quoted literal", string(q))
}
