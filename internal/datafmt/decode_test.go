package datafmt

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"sqlpp/internal/value"
)

// sion stands in for package sion in this package's tests: it forwards
// to this package, so they cannot import it.
var sion = struct{ MustParse func(string) value.Value }{
	MustParse: func(src string) value.Value {
		v, err := ParseSION(src)
		if err != nil {
			panic(err)
		}
		return v
	},
}

// decodeChecked runs decode over data and fails t unless it stays within
// the decoders' allocation bound — 128 B per input byte, plus 8 KiB for
// the decoder, its first windows and its error, plus what the format
// allows beyond that — and rejects only with a *SyntaxError at an offset
// inside the input.
func decodeChecked(t *testing.T, data []byte, allowance uint64, decode func() (value.Value, error)) (value.Value, error) {
	t.Helper()
	var v value.Value
	var err error
	got := allocatedBy(func() { v, err = decode() })
	if limit := uint64(128*len(data)+8<<10) + allowance; got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
	var se *SyntaxError
	if err != nil && (!errors.As(err, &se) || se.Offset < 0 || se.Offset > int64(len(data))) {
		t.Fatalf("decoding %q: error %v is not a *SyntaxError inside the input", data, err)
	}
	return v, err
}

// The formats' names, extensions and media types lead to one decoder
// each, and every one of them reads the same rows.
func TestDecodeByFormatName(t *testing.T) {
	rows := sion.MustParse(`{{ {'id': 1, 'name': 'Ada', 'score': 9.5}, {'id': 2, 'name': 'Bob', 'score': 3} }}`)
	cbor, err := EncodeCBOR(rows)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{
		"sion":  rows.String(),
		"json":  `[{"id":1,"name":"Ada","score":9.5},{"id":2,"name":"Bob","score":3}]`,
		"jsonl": "{\"id\":1,\"name\":\"Ada\",\"score\":9.5}\n{\"id\":2,\"name\":\"Bob\",\"score\":3}\n",
		"csv":   "id,name,score\n1,Ada,9.5\n2,Bob,3\n",
		"cbor":  string(cbor),
	}
	for name, format := range formats {
		got, err := Decode(name, strings.NewReader(bodies[format]))
		if err != nil || !value.Equivalent(got, rows) {
			t.Errorf("Decode(%q) = %v, %v; want %v", name, got, err, rows)
		}
	}
	for name, want := range map[string]string{"JSON": "json", ".CSV": "csv", "application/json; charset=utf-8": "json", " text/csv ": "csv"} {
		if got, ok := FormatOf(name); !ok || got != want {
			t.Errorf("FormatOf(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "xml", ".xyz", "text/plain", "application/octet-stream"} {
		if _, ok := FormatOf(name); ok {
			t.Errorf("FormatOf(%q) names a format", name)
		}
		if _, err := Decode(name, strings.NewReader("1")); err == nil || !strings.Contains(err.Error(), "unknown format") {
			t.Errorf("Decode(%q): %v, want an unknown-format error", name, err)
		}
	}
}

// Every nesting format has the one bound: MaxDepth containers decode,
// one more is a *SyntaxError.
func TestNestingBoundIsSharedByEveryFormat(t *testing.T) {
	nest := map[string]func(n int) []byte{
		"json":  func(n int) []byte { return []byte(strings.Repeat("[", n) + strings.Repeat("]", n)) },
		"jsonl": func(n int) []byte { return []byte(strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n)) },
		"sion":  func(n int) []byte { return []byte(strings.Repeat("{{", n) + strings.Repeat("}}", n)) },
		"cbor": func(n int) []byte {
			return append(bytes.Repeat([]byte{0xd9, 0x01, 0x02, 0x81}, n/2), bytes.Repeat([]byte{0x81}, n%2)...)
		},
	}
	for format, body := range nest {
		for _, n := range []int{MaxDepth, MaxDepth + 1} {
			src := body(n)
			if format == "cbor" {
				src = append(src, 0x00)
			}
			_, err := Decode(format, bytes.NewReader(src))
			var se *SyntaxError
			switch {
			case n == MaxDepth && err != nil:
				t.Errorf("%s nested %d deep: %v", format, n, err)
			case n > MaxDepth && (!errors.As(err, &se) || !strings.Contains(se.Msg, "nesting deeper")):
				t.Errorf("%s nested %d deep: %v, want a nesting *SyntaxError", format, n, err)
			}
		}
	}
}

// lenReader is a reader that tells how many bytes it says it holds.
type lenReader struct {
	io.Reader
	n int
}

func (r lenReader) Len() int { return r.n }

// readAll trusts a told length for one allocation and no further than
// 1 MiB: what a client says costs nothing until it sends it.
func TestReadAllTrustsToldLengthUpToAMebibyte(t *testing.T) {
	body := strings.Repeat("x", 100_000)
	for _, told := range []int{len(body), 10, -1, 1 << 40} {
		got, err := readAll(lenReader{iotest.HalfReader(strings.NewReader(body)), told})
		if err != nil || string(got) != body {
			t.Errorf("told %d: read %d bytes, %v", told, len(got), err)
		}
	}
	if got, _ := readAll(lenReader{strings.NewReader(body), len(body)}); cap(got) >= 2*len(body) {
		t.Errorf("a body of its told length regrew its buffer to %d bytes", cap(got))
	}
	got, _ := readAll(lenReader{strings.NewReader("abc"), 32 << 20})
	if cap(got) > 2<<20 {
		t.Errorf("3 bytes told as 32 MiB hold a %d-byte buffer", cap(got))
	}
	boom := errors.New("boom")
	if _, err := readAll(io.MultiReader(strings.NewReader("ab"), iotest.ErrReader(boom))); !errors.Is(err, boom) {
		t.Errorf("read error came back as %v", err)
	}
}

// CSV errors are *SyntaxErrors that carry encoding/csv's own; a reader
// that fails is not a syntax error.
func TestCSVErrors(t *testing.T) {
	_, err := ParseCSV("a,b\n1,\"x\n", CSVOptions{})
	var se *SyntaxError
	if !errors.As(err, &se) || se.Format != "csv" || se.Offset <= 0 || se.Offset > 9 || !strings.Contains(err.Error(), "csv offset") {
		t.Errorf("unterminated quote: %v, want a csv *SyntaxError inside the input", err)
	}
	boom := errors.New("boom")
	_, err = DecodeCSV(io.MultiReader(strings.NewReader("a\n1\n"), iotest.ErrReader(boom)), CSVOptions{})
	if !errors.Is(err, boom) || errors.As(err, &se) {
		t.Errorf("failing reader: %v, want the reader's error", err)
	}
}

// FuzzDecodeSION: the object notation is ingest's default format, read
// from bytes a client chose. The parser must not panic, must not allocate
// out of proportion to its input, must reject with a *SyntaxError inside
// it, and must read back what value.String writes of what it accepts.
// The conformance kit's files, the largest hand-written documents in the
// notation, seed it too.
func FuzzDecodeSION(f *testing.F) {
	kit, err := filepath.Glob("../compat/testdata/kit/*.sion")
	if err != nil || len(kit) == 0 {
		f.Fatalf("no conformance kit files: %v", err)
	}
	for _, name := range kit {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, seed := range []string{
		`{{ {'id': 3, 'name': 'Bob Smith', 'projects': ['OLAP Security']} }}`,
		`<< 1, 'it''s', x'00ff', [true, FALSE, Null, missing, NaN] >>`,
		`{"a": {b: {'c''d': -1.5e3}}, a: +7} -- trailing comment`,
		`[1, 2 3]`, `{'a' 1}`, `'open`, `x'abc'`, `99999999999999999999`,
		strings.Repeat("[", MaxDepth+1),
		strings.Repeat("{{", 5000) + strings.Repeat("}}", 5000),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeChecked(t, data, 0, func() (value.Value, error) { return DecodeSION(data) })
		if err != nil {
			return
		}
		text := v.String()
		if back, err := ParseSION(text); err != nil || back.String() != text {
			t.Fatalf("decode∘render is not the identity on %s: %v, %v", text, back, err)
		}
	})
}

// FuzzDecodeCSV: CSV ingest reads bytes a client chose. The decoder must
// not panic, must not allocate out of proportion to its input, must
// reject with a *SyntaxError inside it, and must read back an equivalent
// collection from what EncodeCSV writes of what it accepts.
func FuzzDecodeCSV(f *testing.F) {
	for _, seed := range []string{
		"id,name,score\n1,Ada,9.5\n2,Bob,3\n",
		"a,a,,b\n1,2,3\n\"x\"\"y\",,null,TRUE,extra\n",
		"a\n\"\"\n\n7\n",
		"n\ninf\n-0\n0x1p-2\n1e999\n+5\n",
		"a,b\n1,\"unterminated\n", "a\"b\n", "a,b\r\n1,2\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// CSV is the one format in which a new column can cost a single
		// byte (a comma), and a column costs some 300-500 B the first time
		// a decode meets it: its shape and its name (≈ 140 B, once per
		// process), encoding/csv's per-field buffers (≈ 70 B, grown by
		// doubling), the header's slot and the row's stack slots. So
		// beside the bound every format keeps, a decode may spend 512 B
		// on each field of its widest row (maxCSVFields caps how many),
		// and 4 KiB on the read buffer encoding/csv always allocates.
		v, err := decodeChecked(t, data, 4<<10+512*widestCSVRow(data), func() (value.Value, error) {
			return DecodeCSV(bytes.NewReader(data), CSVOptions{})
		})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeCSV(&buf, v); err != nil {
			t.Fatalf("accepted rows do not encode: %v", err)
		}
		enc := buf.String()
		back, err := ParseCSV(enc, CSVOptions{})
		if err != nil || !value.Equivalent(back, v) {
			t.Fatalf("decode∘encode is not the identity on %q:\n%v\n%v, %v", enc, v, back, err)
		}
	})
}

// widestCSVRow is the number of fields in the widest row encoding/csv
// reads from data before its end or its first error.
func widestCSVRow(data []byte) uint64 {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	widest := 0
	for {
		rec, err := cr.Read()
		if err != nil {
			return uint64(widest)
		}
		widest = max(widest, len(rec))
	}
}
