// Package sion keeps the entry points of the paper's object notation
// that its callers use; the parser is datafmt.DecodeSION, beside the other
// formats' decoders, and value.String and value.Pretty write it.
package sion

import (
	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// Parse reads a single value from src. Trailing whitespace and comments
// are permitted; any other trailing input is a *datafmt.SyntaxError.
func Parse(src string) (value.Value, error) { return datafmt.ParseSION(src) }

// MustParse is Parse but panics on error; intended for fixtures and tests.
func MustParse(src string) value.Value {
	v, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return v
}
