// Package datafmt maps external data formats onto the SQL++ data model,
// realizing the paper's format-independence tenet: a query is written
// identically over JSON, JSON lines, CSV, CBOR, or the paper's object
// notation, because every format decodes to the same logical values.
// Decode reads each by its name, file extension or media type. The
// decoders build values one way (builder): exactly sized collections,
// tuples of one name sequence sharing one shape, one nesting bound
// (MaxDepth), and one error for malformed input (*SyntaxError).
//
// Mapping notes:
//   - JSON objects become tuples (preserving member order and permitting
//     duplicate names), arrays become arrays, and top-level arrays can be
//     read as bags for collection registration.
//   - CSV rows become tuples named by the header line; fields parse as
//     numbers or booleans when unambiguous, else strings.
//   - CBOR (RFC 8949) is implemented from scratch for the major types;
//     maps with text keys become tuples, arrays become arrays, and tag
//     258 marks a bag.
//   - The object notation ({{ {'id': 3, 'tags': ['a']} }}: single-quoted
//     strings, {{ }} or << >> bags, MISSING) is the paper's own; it is
//     the default format of ingest, and value.String writes it.
package datafmt

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"sqlpp/internal/value"
)

// A SyntaxError is malformed or truncated input in one of the formats
// (json, csv, cbor or sion), with the input offset it was found at.
// Truncated input wraps io.ErrUnexpectedEOF, a CSV error its
// *csv.ParseError.
type SyntaxError struct {
	Format string
	Offset int64
	Msg    string
	Err    error
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("datafmt: %s offset %d: %s", e.Format, e.Offset, e.Msg)
}

// Unwrap returns the cause, if any.
func (e *SyntaxError) Unwrap() error { return e.Err }

// formats maps every name a format goes by to the format: its own name,
// its file extensions and its media types.
var formats = map[string]string{
	"sion": "sion", ".sion": "sion", ".sqlpp": "sion", ".txt": "sion",
	"json": "json", ".json": "json", "application/json": "json", "text/json": "json",
	"jsonl": "jsonl", "ndjson": "jsonl", ".jsonl": "jsonl", ".ndjson": "jsonl",
	"application/jsonl": "jsonl", "application/x-ndjson": "jsonl",
	"csv": "csv", ".csv": "csv", "text/csv": "csv",
	"cbor": "cbor", ".cbor": "cbor", CBORContentType: "cbor",
}

// FormatOf returns the format that name denotes — a format's name, a
// file extension or a media type, in any case and with any media-type
// parameters — and whether one does.
func FormatOf(name string) (string, bool) {
	name, _, _ = strings.Cut(name, ";")
	f, ok := formats[strings.ToLower(strings.TrimSpace(name))]
	return f, ok
}

// Decode reads one value from r in the format that format names (see
// FormatOf), into the same logical values whichever it is. A top-level
// JSON array, JSON lines and CSV rows become bags, ready to register.
// Only the object notation is read whole before it is decoded.
func Decode(format string, r io.Reader) (value.Value, error) {
	f, _ := FormatOf(format)
	switch f {
	case "json":
		return DecodeJSONBag(r)
	case "jsonl":
		return DecodeJSONLines(r)
	case "csv":
		return DecodeCSV(r, CSVOptions{})
	case "cbor":
		return DecodeCBORFrom(r)
	case "sion":
		data, err := readAll(r)
		if err != nil {
			return nil, err
		}
		return DecodeSION(data)
	}
	return nil, fmt.Errorf("datafmt: unknown format %q (want sion, json, jsonl, csv or cbor)", format)
}

// readAll is io.ReadAll for a format decoded whole. A reader with a Len
// method (a request body can carry its declared length so) is read into a
// buffer of that size, so an input that keeps its word is read without
// regrowing, but at most 1 MiB ahead of the bytes that arrive.
func readAll(r io.Reader) ([]byte, error) {
	declared := 0
	if l, ok := r.(interface{ Len() int }); ok {
		declared = min(max(l.Len(), 0), 1<<20)
	}
	var b bytes.Buffer
	b.Grow(declared + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// MaxDepth bounds how deeply arrays, bags, tuples and CBOR tags may nest
// in any format (the bound encoding/json uses), so hostile input is an
// error and not a stack the size of the input.
const MaxDepth = 10000

// builder assembles the values a decoder reads, the same way for every
// format. The elements of the open arrays, bags and tuples sit on one
// stack, innermost last; a container that closes copies its own into a
// slice of exactly their number. A container whose head announces its
// length (CBOR's) is opened counted instead and appended to directly.
type builder struct {
	format string
	stack  []value.Value
	depth  int
	// credit is how many element slots counted opens may still allocate
	// ahead of their elements: one per input byte seen, since every
	// element takes at least a byte. A head that claims 2^32 elements
	// therefore costs what the input could fill, not what it claims.
	credit int
}

// open starts a container at input offset off and returns the stack
// height its elements begin at; past MaxDepth it is a *SyntaxError.
func (b *builder) open(off int64) (int, error) {
	if b.depth == MaxDepth {
		return 0, &SyntaxError{Format: b.format, Offset: off, Msg: fmt.Sprintf("nesting deeper than %d", MaxDepth)}
	}
	b.depth++
	return len(b.stack), nil
}

// push adds an element to the innermost open container.
func (b *builder) push(v value.Value) { b.stack = append(b.stack, v) }

// close ends the container whose elements begin at base and returns them
// as a slice of their own.
func (b *builder) close(base int) []value.Value {
	b.depth--
	out := make([]value.Value, len(b.stack)-base)
	copy(out, b.stack[base:])
	b.stack = b.stack[:base]
	return out
}

// all returns the whole stack as a slice of its own: the documents of
// JSON lines or the rows of CSV, a collection no container opened.
func (b *builder) all() []value.Value {
	b.depth++
	return b.close(0)
}

// openCounted starts a container of n elements at input offset off and
// returns the slice to append them to, its capacity paid from credit. It
// ends with shut.
func (b *builder) openCounted(off int64, n uint64) ([]value.Value, error) {
	if _, err := b.open(off); err != nil {
		return nil, err
	}
	g := int(min(n, uint64(b.credit)))
	b.credit -= g
	return make([]value.Value, 0, g), nil
}

// shut ends a counted container, or a CBOR tag.
func (b *builder) shut() { b.depth-- }
