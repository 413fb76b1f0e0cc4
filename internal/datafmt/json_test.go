package datafmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"sqlpp/internal/value"
)

// TestDecodeJSONPinned pins what the decoder maps each input to,
// behaviour by behaviour.
func TestDecodeJSONPinned(t *testing.T) {
	tup := func(kv ...any) value.Value {
		t := value.EmptyTuple()
		for i := 0; i < len(kv); i += 2 {
			t.Put(kv[i].(string), kv[i+1].(value.Value))
		}
		return t
	}
	for _, c := range []struct {
		name, src string
		want      value.Value
	}{
		{"duplicate keys kept in order", `{"b":1,"a":2,"b":3}`, tup("b", value.Int(1), "a", value.Int(2), "b", value.Int(3))},
		{"int64 bounds stay Int", `[9223372036854775807,-9223372036854775808]`,
			value.Array{value.Int(9223372036854775807), value.Int(-9223372036854775808)}},
		{"beyond int64 widens to Float", `[9223372036854775808,-9223372036854775809,123456789012345678901234567890]`,
			value.Array{value.Float(9223372036854775808), value.Float(-9223372036854775809), value.Float(123456789012345678901234567890)}},
		{"a fraction or exponent makes a Float", `[1.0,1e2,-0.0,5E-1]`,
			value.Array{value.Float(1), value.Float(100), value.Float(0), value.Float(0.5)}},
		{"-0 is Int 0", `-0`, value.Int(0)},
		{"underflow rounds to zero", `1e-999`, value.Float(0)},
		{"invalid UTF-8 becomes U+FFFD, byte by byte", "\"a\xff\xfeb\"", value.String("a\ufffd\ufffdb")},
		{"invalid UTF-8 beside an escape", "\"\\n\xc3(\"", value.String("\n\ufffd(")},
		{"surrogate pair", `"\ud83d\ude00"`, value.String("😀")},
		{"lone high surrogate", `"\ud83dx"`, value.String("\ufffdx")},
		{"high surrogate then a non-surrogate escape", `"\ud83d\u0041"`, value.String("\ufffdA")},
		{"lone low surrogate", `"\ude00"`, value.String("\ufffd")},
		{"simple escapes", `"\"\\\/\b\f\n\r\t\u00e9"`, value.String("\"\\/\b\f\n\r\té")},
		{"escaped key", `{"a\u0062":true}`, tup("ab", value.True)},
		{"white space everywhere", " \t\r\n{ \"a\" : [ 1 , null ] } \n", tup("a", value.Array{value.Int(1), value.Null})},
		{"empty containers", `[{},[]]`, value.Array{value.EmptyTuple(), value.Array{}}},
	} {
		got, err := ParseJSON(c.src)
		if err != nil {
			t.Errorf("%s: ParseJSON(%q): %v", c.name, c.src, err)
			continue
		}
		if !value.DeepEqual(got, c.want) {
			t.Errorf("%s: ParseJSON(%q) = %v, want %v", c.name, c.src, got, c.want)
		}
	}
}

// TestDecodeJSONRejects: malformed input is a *JSONSyntaxError at the
// offending offset, truncation wraps io.ErrUnexpectedEOF. The first three
// were accepted before the decoder was rewritten: trailing closers
// decoded as if absent, the out-of-range number as NULL.
func TestDecodeJSONRejects(t *testing.T) {
	for _, c := range []struct {
		src       string
		offset    int64
		truncated bool
	}{
		{`[1,2]]`, 5, false},
		{`{"a":1}}`, 7, false},
		{`[1e999]`, 1, false},
		{`[-1e999]`, 1, false},
		{`1 2`, 2, false},
		{`[1,]`, 3, false},
		{`{"a":1,}`, 7, false},
		{`{"a" 1}`, 5, false},
		{`{a:1}`, 1, false},
		{`{1:1}`, 1, false},
		{`01`, 1, false},
		{`-`, 1, true},
		{`1.`, 2, true},
		{`1.e1`, 2, false},
		{`1e+`, 3, true},
		{`+1`, 0, false},
		{`.5`, 0, false},
		{`tru`, 3, true},
		{`trux`, 0, false},
		{`nul`, 3, true},
		{`"abc`, 4, true},
		{"\"a\nb\"", 2, false},
		{`"\x"`, 2, false},
		{`"\u12"`, 5, false},
		{`"\u12`, 5, true},
		{`"\`, 2, true},
		{``, 0, true},
		{`  `, 2, true},
		{`[`, 1, true},
		{`[1`, 2, true},
		{`{"a"`, 4, true},
		{`{"a":`, 5, true},
		{`{"a":1`, 6, true},
		{`[1 2]`, 3, false},
		{`]`, 0, false},
		{"\ufeff1", 0, false},
		{strings.Repeat("[", maxJSONDepth+1), maxJSONDepth, false},
	} {
		_, err := ParseJSON(c.src)
		var se *JSONSyntaxError
		if !errors.As(err, &se) {
			t.Errorf("ParseJSON(%.20q): error %v, want a *JSONSyntaxError", c.src, err)
			continue
		}
		if se.Offset != c.offset || errors.Is(err, io.ErrUnexpectedEOF) != c.truncated {
			t.Errorf("ParseJSON(%.20q): %v (truncated=%v), want offset %d truncated=%v",
				c.src, err, errors.Is(err, io.ErrUnexpectedEOF), c.offset, c.truncated)
		}
	}
	deep := strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth)
	if _, err := ParseJSON(deep); err != nil {
		t.Errorf("nesting of exactly maxJSONDepth: %v", err)
	}
	boom := errors.New("boom")
	if _, err := DecodeJSON(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Errorf("read error came back as %v", err)
	}
}

func TestDecodeJSONFraming(t *testing.T) {
	rows := value.Bag{value.Int(1), value.Int(2)}
	if v, err := DecodeJSONBag(strings.NewReader(`[1,2]`)); err != nil || !value.DeepEqual(v, rows) {
		t.Errorf("top-level array as a bag: %v, %v", v, err)
	}
	if v, err := DecodeJSONBag(strings.NewReader(`{"a":[1,2]}`)); err != nil || v.Kind() != value.KindTuple {
		t.Errorf("top-level object stays a tuple: %v, %v", v, err)
	}
	for _, src := range []string{"1\n2\n", "1\n2", " 1 \r\n\r\n 2 ", "1 2"} {
		if v, err := DecodeJSONLines(strings.NewReader(src)); err != nil || !value.DeepEqual(v, rows) {
			t.Errorf("DecodeJSONLines(%q) = %v, %v", src, v, err)
		}
	}
	if v, err := DecodeJSONLines(strings.NewReader(" \n")); err != nil || !value.DeepEqual(v, value.Bag{}) {
		t.Errorf("no documents: %v, %v", v, err)
	}
	if v, err := DecodeJSONLines(strings.NewReader("{\"a\":1}\n{\"a\":")); err == nil {
		t.Errorf("truncated last line decoded as %v", v)
	}
	// A reader that does not know its length, in dribbles.
	if v, err := DecodeJSONBag(iotest.OneByteReader(strings.NewReader(`[1,2]`))); err != nil || !value.DeepEqual(v, rows) {
		t.Errorf("one-byte reader: %v, %v", v, err)
	}
}

// A row of a shape already seen costs its values and its header: no
// string per key, no garbage per token.
func TestDecodeJSONAllocatesValuesOnly(t *testing.T) {
	row := `{"id":100000,"name":"Ann Lee","deptno":7,"title":"Engineer","salary":91000,"hired":2015}`
	src := []byte("[" + strings.Repeat(row+",", 999) + row + "]")
	if _, err := DecodeJSON(bytes.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	perRow := testing.AllocsPerRun(5, func() {
		if _, err := DecodeJSON(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}) / 1000
	// Tuple header, value slice, two strings (bytes and boxed header
	// each), three boxed integers (deptno is below the runtime's 256
	// preallocated small values).
	if perRow > 9.1 {
		t.Errorf("%.2f allocations per six-attribute row, want 9", perRow)
	}
}

// What one document may allocate must not depend on what the process
// decoded before: a key new in its place costs a shape, however many
// other keys have been seen in that place (a table of siblings that
// doubled would charge the 4,096th as many bytes as all before it).
func TestDecodeJSONAllocationIgnoresShapeFanOut(t *testing.T) {
	for i := 0; i < 5000; i++ {
		data := []byte(fmt.Sprintf(`{"fanout%d":1}`, i))
		got := allocatedBy(func() { _, _ = DecodeJSON(bytes.NewReader(data)) })
		if limit := uint64(128*len(data) + 8<<10); got > limit { // FuzzDecodeJSON's bound
			t.Fatalf("sibling %d: decoding %d bytes allocated %d (limit %d)", i, len(data), got, limit)
		}
	}
}

// stdJSON is the reference image of a document: encoding/json's decode
// (objects as maps, so the last of a repeated key wins) mapped onto values
// with attributes in name order.
func stdJSON(x any) value.Value {
	switch x := x.(type) {
	case nil:
		return value.Null
	case bool:
		return value.Bool(x)
	case string:
		return value.String(x)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return value.Int(i)
		}
		f, _ := x.Float64()
		return value.Float(f)
	case []any:
		out := make(value.Array, len(x))
		for i, e := range x {
			out[i] = stdJSON(e)
		}
		return out
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t := value.EmptyTuple()
		for _, k := range keys {
			t.Put(k, stdJSON(x[k]))
		}
		return t
	}
	panic(fmt.Sprintf("unexpected %T from encoding/json", x))
}

// numbersInRange reports whether every number in a valid document fits
// float64: the one thing encoding/json does not ask and DecodeJSON does.
func numbersInRange(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	for {
		tok, err := dec.Token()
		if err != nil {
			return true
		}
		if n, ok := tok.(json.Number); ok {
			if _, err := n.Float64(); err != nil {
				return false
			}
		}
	}
}

// lastWins maps a decoded value onto stdJSON's image of it.
func lastWins(v value.Value) value.Value {
	switch x := v.(type) {
	case value.Array:
		out := make(value.Array, len(x))
		for i, e := range x {
			out[i] = lastWins(e)
		}
		return out
	case *value.Tuple:
		names := append([]string(nil), x.Names()...)
		sort.Strings(names)
		t := value.EmptyTuple()
		for i, name := range names {
			if i > 0 && names[i-1] == name {
				continue
			}
			for j := x.Len() - 1; ; j-- {
				if x.Names()[j] == name {
					t.Put(name, lastWins(x.Values()[j]))
					break
				}
			}
		}
		return t
	}
	return v
}

// sameNames reports whether a and b, already Equivalent, also agree on
// the order of every tuple's attributes.
func sameNames(a, b value.Value) bool {
	if ta, ok := a.(*value.Tuple); ok {
		tb := b.(*value.Tuple)
		if !slices.Equal(ta.Names(), tb.Names()) {
			return false
		}
		for i, v := range ta.Values() {
			if !sameNames(v, tb.Values()[i]) {
				return false
			}
		}
	} else if ea, ok := value.Elements(a); ok {
		eb, _ := value.Elements(b)
		for i := range ea {
			if !sameNames(ea[i], eb[i]) {
				return false
			}
		}
	}
	return true
}

// distinctKeySets is a document of n objects no two of which share a key
// set: the input that would grow an unbounded shape table.
func distinctKeySets(n int) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"k%d":null}`, i, i)
	}
	b.WriteByte(']')
	return b.Bytes()
}

// FuzzDecodeJSON: the decoder reads bytes an ingest client chose. It must
// not panic, must not allocate out of proportion to its input, must accept
// exactly what encoding/json accepts (but for numbers outside float64)
// and mean the same by it, and must read back what the encoder writes.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []string{
		`[1,2]]`, `{"a":1}}`, `[1e999]`, // accepted before the rewrite
		`{"b":1,"a":{"b":[1.0,-0,1e2,9223372036854775808]},"b":"\ud83d\ude00\ud83d"}`,
		"[\"a\xffb\", \"\\u00e9\\n\"]", ` [ true , false , null ] `, `{"a":{"a":{"a":{}}}}`,
		strings.Repeat("[", 5000) + strings.Repeat("]", 5000),
		strings.Repeat(`{"a":`, maxJSONDepth+1),
	} {
		f.Add([]byte(seed))
	}
	f.Add(distinctKeySets(10_000))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v value.Value
		var err error
		// The densest inputs: an object per five bytes with a key not seen
		// before in its place (`{"a":`), which costs a shape in the tree
		// (about 150 B with its names) beside the tuple.
		// The constant covers the decoder, its first windows and its error.
		got := allocatedBy(func() { v, err = DecodeJSON(bytes.NewReader(data)) })
		if limit := uint64(128*len(data) + 8<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		// However the bytes arrive, the window slides to the same answer.
		for name, r := range map[string]io.Reader{
			"one byte at a time": iotest.OneByteReader(bytes.NewReader(data)),
			"in halves":          iotest.HalfReader(bytes.NewReader(data)),
		} {
			rv, rerr := DecodeJSON(r)
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() || err == nil && !value.DeepEqual(v, rv) {
				t.Fatalf("%s: %v, %v; whole: %v, %v", name, rv, rerr, v, err)
			}
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var std any
		stdErr := dec.Decode(&std)
		if stdErr == nil && !json.Valid(data) {
			stdErr = errors.New("trailing content")
		}
		if stdErr == nil {
			if inRange := numbersInRange(data); inRange != (err == nil) {
				t.Fatalf("encoding/json accepts %q (numbers in range: %v); DecodeJSON: %v", data, inRange, err)
			}
			if want := stdJSON(std); err == nil && !value.DeepEqual(lastWins(v), want) {
				t.Fatalf("DecodeJSON(%q) = %v, encoding/json reads %v", data, v, want)
			}
		} else if err == nil {
			t.Fatalf("encoding/json rejects %q (%v); DecodeJSON reads %v", data, stdErr, v)
		}
		lines, lerr := DecodeJSONLines(bytes.NewReader(data))
		if err != nil {
			var se *JSONSyntaxError
			if !errors.As(err, &se) || se.Offset < 0 || se.Offset > int64(len(data)) {
				t.Fatalf("DecodeJSON(%q): error %v is not a *JSONSyntaxError inside the input", data, err)
			}
			return
		}
		if lerr != nil || !value.DeepEqual(lines, value.Bag{v}) {
			t.Fatalf("one document as JSON lines: %v, %v", lines, lerr)
		}
		enc, err := JSONString(v)
		if err != nil {
			t.Fatalf("accepted value does not encode: %v", err)
		}
		if want, _ := legacyJSONString(v); enc != want {
			t.Fatalf("JSONString = %s, the legacy encoder wrote %s", enc, want)
		}
		// The encoder writes an integral Float without a fraction, so the
		// way back may turn it into the Int it equals.
		back, err := ParseJSON(enc)
		if err != nil || !value.Equivalent(back, v) || !sameNames(back, v) {
			t.Fatalf("decode∘encode is not the identity on %s: %v, %v", enc, back, err)
		}
	})
}
