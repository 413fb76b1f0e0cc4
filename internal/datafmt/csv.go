package datafmt

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sqlpp/internal/value"
)

// CSVOptions configures CSV decoding.
type CSVOptions struct {
	// Comma is the field delimiter; 0 means ','.
	Comma rune
	// NoHeader synthesizes column names _1, _2, ... instead of reading
	// the first row as a header.
	NoHeader bool
	// Strings disables type inference: every field stays a string.
	Strings bool
	// EmptyAsMissing drops empty fields entirely (the missing-attribute
	// style of §IV-A) instead of keeping them as empty strings.
	EmptyAsMissing bool
}

// maxCSVFields bounds the fields of a CSV row (a spreadsheet's columns).
// A column costs some 400 B the first time a decode meets it and a comma
// of input, so unbounded a body of commas would cost 400 times its size.
const maxCSVFields = 1 << 14

// DecodeCSV reads CSV rows as a bag of tuples. By default the first row
// names the attributes and fields are inferred as integers, floats,
// booleans, or null; anything else stays a string. A field past the
// named ones is named _n by its position n.
func DecodeCSV(r io.Reader, opts CSVOptions) (value.Value, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	b := builder{format: "csv"}
	var header []string
	for row := 0; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return value.Bag(b.all()), nil
		}
		if err != nil {
			return nil, csvError(cr, err)
		}
		if len(rec) > maxCSVFields {
			return nil, &SyntaxError{Format: "csv", Offset: cr.InputOffset(), Msg: fmt.Sprintf("a row of more than %d fields", maxCSVFields)}
		}
		if row == 0 && !opts.NoHeader {
			header = append(header, rec...)
			continue
		}
		shape := value.ShapeOf()
		base, _ := b.open(0) // a row nests nothing, so it opens at depth 1
		for i, field := range rec {
			if field == "" && opts.EmptyAsMissing {
				continue
			}
			for len(header) <= i {
				header = append(header, "")
			}
			if header[i] == "" {
				header[i] = "_" + strconv.Itoa(i+1)
			}
			shape = shape.With(header[i])
			if opts.Strings {
				b.push(value.String(field))
			} else {
				b.push(inferCSVValue(field))
			}
		}
		b.push(shape.New(b.close(base)))
	}
}

// csvError is a *SyntaxError for err, unless the reader under cr failed.
func csvError(cr *csv.Reader, err error) error {
	var pe *csv.ParseError
	if !errors.As(err, &pe) {
		return fmt.Errorf("datafmt: csv offset %d: %w", cr.InputOffset(), err)
	}
	return &SyntaxError{Format: "csv", Offset: cr.InputOffset(), Msg: pe.Error(), Err: pe}
}

// ParseCSV decodes a CSV string.
func ParseCSV(src string, opts CSVOptions) (value.Value, error) {
	return DecodeCSV(strings.NewReader(src), opts)
}

// inferCSVValue maps a CSV field to the narrowest SQL++ scalar.
func inferCSVValue(field string) value.Value {
	switch field {
	case "":
		return value.String("")
	case "null", "NULL":
		return value.Null
	case "true", "TRUE":
		return value.True
	case "false", "FALSE":
		return value.False
	}
	// A number starts with a sign, a digit, '.', or the i/n of inf and
	// nan; skipping strconv otherwise spares each text field two errors.
	switch c := field[0]; {
	case c == '+', c == '-', c == '.', '0' <= c && c <= '9', c == 'i', c == 'I', c == 'n', c == 'N':
		if i, err := strconv.ParseInt(field, 10, 64); err == nil {
			return value.Int(i)
		}
		if f, err := strconv.ParseFloat(field, 64); err == nil {
			return value.Float(f)
		}
	}
	return value.String(field)
}

// EncodeCSV writes a collection of tuples as CSV with a header of the
// union of attribute names in first-seen order, a name that a tuple
// repeats taking a column per occurrence. Nested values encode as their
// object-notation text. An absent attribute encodes as an empty field,
// but a row ends after its last attribute, so DecodeCSV reads back the
// rows it decoded.
func EncodeCSV(w io.Writer, v value.Value) error {
	elems, ok := value.Elements(v)
	if !ok {
		return fmt.Errorf("datafmt: CSV encoding requires a collection, got %s", v.Kind())
	}
	type column struct {
		name string
		nth  int // occurrence of name in its tuple, from 0
	}
	var header []string
	index := map[column]int{}
	seen := map[string]int{}
	var cols []int
	// columnsOf returns the columns of t's attributes in order, adding
	// those not seen before to the header.
	columnsOf := func(t *value.Tuple) []int {
		clear(seen)
		cols = cols[:0]
		for _, name := range t.Names() {
			c := column{name, seen[name]}
			seen[name]++
			col, ok := index[c]
			if !ok {
				col = len(header)
				index[c] = col
				header = append(header, name)
			}
			cols = append(cols, col)
		}
		return cols
	}
	for _, e := range elems {
		t, ok := e.(*value.Tuple)
		if !ok {
			return fmt.Errorf("datafmt: CSV encoding requires tuples, got %s", e.Kind())
		}
		columnsOf(t)
	}
	cw := csv.NewWriter(w)
	if err := writeCSVRecord(cw, w, header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, e := range elems {
		t := e.(*value.Tuple)
		clear(row)
		n := 0
		for i, col := range columnsOf(t) {
			row[col] = csvField(t.Values()[i])
			n = max(n, col+1)
		}
		if err := writeCSVRecord(cw, w, row[:n]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCSVRecord writes rec so that encoding/csv reads it back: a field's
// \r\n as \r\r\n, since a reader takes each line's \r\n for \n, and a
// lone empty field quoted, since csv.Writer would write the blank line
// that readers skip.
func writeCSVRecord(cw *csv.Writer, w io.Writer, rec []string) error {
	for i, f := range rec {
		rec[i] = strings.ReplaceAll(f, "\r\n", "\r\r\n")
	}
	if len(rec) != 1 || rec[0] != "" {
		return cw.Write(rec)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := io.WriteString(w, `""`+"\n")
	return err
}

func csvField(v value.Value) string {
	switch x := v.(type) {
	case value.String:
		return string(x)
	case value.Int, value.Float, value.Bool:
		s := v.String()
		return s
	default:
		if v.Kind() == value.KindNull {
			return "null"
		}
		return v.String()
	}
}
