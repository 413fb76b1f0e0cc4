package datafmt

import (
	"encoding/csv"
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

// DecodeCSV reads CSV rows as a bag of tuples. By default the first row
// names the attributes and fields are inferred as integers, floats,
// booleans, or null; anything else stays a string.
func DecodeCSV(r io.Reader, opts CSVOptions) (value.Value, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	var header []string
	if !opts.NoHeader {
		rec, err := cr.Read()
		if err == io.EOF {
			return value.Bag{}, nil
		}
		if err != nil {
			return nil, err
		}
		header = append(header, rec...)
	}
	var out value.Bag
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		shape := value.ShapeOf()
		vals := make([]value.Value, 0, len(rec))
		for i, field := range rec {
			if field == "" && opts.EmptyAsMissing {
				continue
			}
			shape = shape.With(columnName(header, i))
			if opts.Strings {
				vals = append(vals, value.String(field))
			} else {
				vals = append(vals, inferCSVValue(field))
			}
		}
		out = append(out, shape.New(vals))
	}
}

// ParseCSV decodes a CSV string.
func ParseCSV(src string, opts CSVOptions) (value.Value, error) {
	return DecodeCSV(strings.NewReader(src), opts)
}

func columnName(header []string, i int) string {
	if i < len(header) && header[i] != "" {
		return header[i]
	}
	return fmt.Sprintf("_%d", i+1)
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
// union of attribute names (in first-seen order). Nested values encode
// as their object-notation text; absent attributes encode as empty
// fields.
func EncodeCSV(w io.Writer, v value.Value) error {
	elems, ok := value.Elements(v)
	if !ok {
		return fmt.Errorf("datafmt: CSV encoding requires a collection, got %s", v.Kind())
	}
	var header []string
	index := map[string]int{}
	for _, e := range elems {
		t, ok := e.(*value.Tuple)
		if !ok {
			return fmt.Errorf("datafmt: CSV encoding requires tuples, got %s", e.Kind())
		}
		for _, name := range t.Names() {
			if _, seen := index[name]; !seen {
				index[name] = len(header)
				header = append(header, name)
			}
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, e := range elems {
		t := e.(*value.Tuple)
		for i := range row {
			row[i] = ""
		}
		vals := t.Values()
		for i, name := range t.Names() {
			row[index[name]] = csvField(vals[i])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
