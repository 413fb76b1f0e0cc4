package datafmt

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

func TestDecodeJSONScalars(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"null", value.Null},
		{"true", value.True},
		{"42", value.Int(42)},
		{"-7", value.Int(-7)},
		{"2.5", value.Float(2.5)},
		{"1e30", value.Float(1e30)},
		{`"hi"`, value.String("hi")},
		{`"é"`, value.String("é")},
		{"[]", value.Array{}},
		{"[1,[2]]", value.Array{value.Int(1), value.Array{value.Int(2)}}},
	}
	for _, c := range cases {
		got, err := ParseJSON(c.src)
		if err != nil {
			t.Errorf("ParseJSON(%q): %v", c.src, err)
			continue
		}
		if !value.DeepEqual(got, c.want) {
			t.Errorf("ParseJSON(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDecodeJSONObjects(t *testing.T) {
	got, err := ParseJSON(`{"b": 1, "a": 2, "b": 3}`)
	if err != nil {
		t.Fatal(err)
	}
	tup := got.(*value.Tuple)
	// Member order and duplicate names survive (JSON is "non-strict"
	// data in the paper's sense).
	if !slices.Equal(tup.Names(), []string{"b", "a", "b"}) || tup.String() != "{'b': 1, 'a': 2, 'b': 3}" {
		t.Errorf("tuple = %v", tup)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	for _, src := range []string{"", "{", "[1,]", `{"a":}`, "1 2"} {
		if _, err := ParseJSON(src); err == nil {
			t.Errorf("ParseJSON(%q) should fail", src)
		}
	}
}

func TestDecodeJSONBagAndLines(t *testing.T) {
	v, err := DecodeJSONBag(strings.NewReader(`[{"a":1},{"a":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != value.KindBag {
		t.Errorf("top-level array should register as a bag, got %s", v.Kind())
	}
	lines, err := DecodeJSONLines(strings.NewReader("{\"a\":1}\n{\"a\":2}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if elems, _ := value.Elements(lines); len(elems) != 2 {
		t.Errorf("JSONL = %v", lines)
	}
}

func TestEncodeJSON(t *testing.T) {
	v := sion.MustParse(`{'a': 1, 'b': [1.5, null, true], 's': 'x"y'}`)
	got, err := JSONString(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":1,"b":[1.5,null,true],"s":"x\"y"}`
	if got != want {
		t.Errorf("JSONString = %s, want %s", got, want)
	}
	// MISSING refuses to encode.
	if _, err := JSONString(value.Missing); err == nil {
		t.Error("MISSING must not encode")
	}
	// Bags encode canonically ordered.
	bag, _ := JSONString(value.Bag{value.Int(2), value.Int(1)})
	if bag != "[1,2]" {
		t.Errorf("bag encoding = %s", bag)
	}
	// NaN/Inf degrade to null (JSON cannot express them).
	nan, _ := JSONString(value.Float(math.NaN()))
	if nan != "null" {
		t.Errorf("NaN encoding = %s", nan)
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		v := randomJSONValue(r, 3)
		s, err := JSONString(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		back, err := ParseJSON(s)
		if err != nil {
			t.Fatalf("decode %q: %v", s, err)
		}
		if !value.Equivalent(jsonNormalize(v), back) {
			t.Fatalf("round trip of %v via %q gave %v", v, s, back)
		}
	}
}

// randomJSONValue avoids bytes (hex-string mapping is lossy by design)
// and bags (ordered as arrays).
func randomJSONValue(r *rand.Rand, depth int) value.Value {
	max := 7
	if depth <= 0 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return value.Null
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Int63n(1e12) - 5e11)
	case 3:
		return value.Float(float64(r.Int63n(1e9)) / 256)
	case 4:
		return value.String(strings.Repeat("aé\"\\", r.Intn(3)))
	case 5:
		out := make(value.Array, r.Intn(4))
		for i := range out {
			out[i] = randomJSONValue(r, depth-1)
		}
		if out == nil {
			out = value.Array{}
		}
		return out
	default:
		t := value.EmptyTuple()
		for i, n := 0, r.Intn(4); i < n; i++ {
			t.Set(string(rune('a'+i)), randomJSONValue(r, depth-1))
		}
		return t
	}
}

// jsonNormalize maps values onto their JSON-representable image (nil
// transformation here since the generator avoids lossy cases).
func jsonNormalize(v value.Value) value.Value { return v }

func TestCSVDecode(t *testing.T) {
	src := "id,name,score,ok\n1,Ada,9.5,true\n2,Bob,,false\n"
	v, err := ParseCSV(src, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := sion.MustParse(`{{
	  {'id': 1, 'name': 'Ada', 'score': 9.5, 'ok': true},
	  {'id': 2, 'name': 'Bob', 'score': '', 'ok': false}
	}}`)
	if !value.Equivalent(v, want) {
		t.Errorf("CSV = %s, want %s", v, want)
	}
}

// inferCSVValueStrconv is inferCSVValue before its first-byte gate:
// every field that is not a literal goes through both strconv parsers.
func inferCSVValueStrconv(field string) value.Value {
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
	if i, err := strconv.ParseInt(field, 10, 64); err == nil {
		return value.Int(i)
	}
	if f, err := strconv.ParseFloat(field, 64); err == nil {
		return value.Float(f)
	}
	return value.String(field)
}

// TestInferCSVValueMatchesStrconv: gating strconv on the first byte
// changes no field's type or value.
func TestInferCSVValueMatchesStrconv(t *testing.T) {
	fields := []string{
		"", "inf", "-Infinity", "NaN", "0x1p-2", "+.5", "1e999", " 1", "9223372036854775808",
		"+inf", "Inf", "nan", "infinity", "none", "N/A", "nil", "1_000", "0x10", ".", "-", "+", "1.", "-0", "007",
		"null", "NULL", "true", "FALSE", "True", "Ada", "9.5", "-17", "1e3",
		// The fields of the benchmark's events CSV: header, ids, users, kinds, amounts.
		"id", "usr", "kind", "amount", "0", "19999", "4821", "click", "view", "order", "refund", "login", "1", "999",
	}
	for _, f := range fields {
		got, want := inferCSVValue(f), inferCSVValueStrconv(f)
		if got.Kind() != want.Kind() || value.Key(got) != value.Key(want) {
			t.Errorf("inferCSVValue(%q) = %s %s, want %s %s", f, got.Kind(), got, want.Kind(), want)
		}
	}
}

func TestCSVOptions(t *testing.T) {
	// EmptyAsMissing drops empty fields: the missing-attribute style.
	v, err := ParseCSV("a,b\n1,\n", CSVOptions{EmptyAsMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	tup := v.(value.Bag)[0].(*value.Tuple)
	if _, ok := tup.Get("b"); ok {
		t.Error("empty field should be a missing attribute")
	}
	// NoHeader synthesizes positional names.
	v2, err := ParseCSV("7,x\n", CSVOptions{NoHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	tup2 := v2.(value.Bag)[0].(*value.Tuple)
	if got, _ := tup2.Get("_1"); got != value.Int(7) {
		t.Errorf("_1 = %s", got)
	}
	// Strings disables inference.
	v3, _ := ParseCSV("a\n42\n", CSVOptions{Strings: true})
	if got, _ := v3.(value.Bag)[0].(*value.Tuple).Get("a"); got != value.String("42") {
		t.Errorf("strings mode a = %s", got)
	}
	// Custom delimiter, null/NULL inference.
	v4, err := ParseCSV("a;b\nnull;NULL\n", CSVOptions{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	t4 := v4.(value.Bag)[0].(*value.Tuple)
	a, _ := t4.Get("a")
	b, _ := t4.Get("b")
	if a.Kind() != value.KindNull || b.Kind() != value.KindNull {
		t.Errorf("null inference = %s, %s", a, b)
	}
}

func TestCSVEncodeRoundTrip(t *testing.T) {
	orig := sion.MustParse(`{{
	  {'id': 1, 'name': 'Ada'},
	  {'id': 2, 'name': 'Bob', 'extra': true}
	}}`)
	var buf bytes.Buffer
	if err := EncodeCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(buf.String(), CSVOptions{EmptyAsMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equivalent(orig, back) {
		t.Errorf("CSV round trip:\n  orig %s\n  back %s", orig, back)
	}
	// Non-tuple collections refuse to encode.
	if err := EncodeCSV(&buf, value.Bag{value.Int(1)}); err == nil {
		t.Error("CSV of non-tuples should fail")
	}
	if err := EncodeCSV(&buf, value.Int(1)); err == nil {
		t.Error("CSV of a scalar should fail")
	}
}

func TestCBORKnownVectors(t *testing.T) {
	// Hand-checked RFC 8949 encodings.
	cases := []struct {
		bytes []byte
		want  value.Value
	}{
		{[]byte{0x00}, value.Int(0)},
		{[]byte{0x17}, value.Int(23)},
		{[]byte{0x18, 0x18}, value.Int(24)},
		{[]byte{0x19, 0x01, 0x00}, value.Int(256)},
		{[]byte{0x20}, value.Int(-1)},
		{[]byte{0x38, 0x63}, value.Int(-100)},
		{[]byte{0xf4}, value.False},
		{[]byte{0xf5}, value.True},
		{[]byte{0xf6}, value.Null},
		{[]byte{0xf7}, value.Null}, // undefined -> NULL
		{[]byte{0x63, 'a', 'b', 'c'}, value.String("abc")},
		{[]byte{0x42, 0x01, 0x02}, value.Bytes{1, 2}},
		{[]byte{0x82, 0x01, 0x02}, value.Array{value.Int(1), value.Int(2)}},
		{[]byte{0xfb, 0x3f, 0xf1, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a}, value.Float(1.1)},
		{[]byte{0xf9, 0x3c, 0x00}, value.Float(1.0)}, // half precision
		{[]byte{0xf9, 0x00, 0x00}, value.Float(0.0)}, // half zero
		{[]byte{0xf9, 0x7c, 0x00}, value.Float(math.Inf(1))},
		{[]byte{0xfa, 0x40, 0x49, 0x0f, 0xdb}, value.Float(float64(float32(3.14159274)))},
		{[]byte{0xa1, 0x61, 'k', 0x05}, value.NewTuple(value.Field{Name: "k", Value: value.Int(5)})},
	}
	for _, c := range cases {
		got, err := DecodeCBOR(c.bytes)
		if err != nil {
			t.Errorf("DecodeCBOR(% x): %v", c.bytes, err)
			continue
		}
		if !value.Equivalent(got, c.want) {
			t.Errorf("DecodeCBOR(% x) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

func TestCBORHalfPrecisionSubnormalAndNaN(t *testing.T) {
	// Subnormal half: 0x0001 = 2^-24.
	got, err := DecodeCBOR([]byte{0xf9, 0x00, 0x01})
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(got.(value.Float)); f != math.Pow(2, -24) {
		t.Errorf("subnormal half = %g", f)
	}
	nan, err := DecodeCBOR([]byte{0xf9, 0x7e, 0x00})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(nan.(value.Float))) {
		t.Errorf("half NaN = %v", nan)
	}
}

func TestCBORErrors(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0x19, 0x01},       // truncated argument
		{0x62, 'a'},        // truncated string
		{0x82, 0x01},       // truncated array
		{0x5f},             // indefinite length
		{0x01, 0x02},       // trailing bytes
		{0xa1, 0x01, 0x02}, // non-text map key
	}
	for _, src := range cases {
		if _, err := DecodeCBOR(src); err == nil {
			t.Errorf("DecodeCBOR(% x) should fail", src)
		}
	}
}

func TestCBORRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		v := randomCBORValue(r, 3)
		enc, err := EncodeCBOR(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		back, err := DecodeCBOR(enc)
		if err != nil {
			t.Fatalf("decode % x (of %v): %v", enc, v, err)
		}
		if !value.Equivalent(v, back) {
			t.Fatalf("round trip of %v gave %v", v, back)
		}
	}
}

func randomCBORValue(r *rand.Rand, depth int) value.Value {
	max := 9
	if depth <= 0 {
		max = 6
	}
	switch r.Intn(max) {
	case 0:
		return value.Null
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Int63() - (1 << 62))
	case 3:
		return value.Float(r.NormFloat64() * 1e6)
	case 4:
		return value.String(strings.Repeat("xé", r.Intn(4)))
	case 5:
		b := make(value.Bytes, r.Intn(6))
		r.Read(b)
		return b
	case 6:
		out := make(value.Array, r.Intn(4))
		for i := range out {
			out[i] = randomCBORValue(r, depth-1)
		}
		return out
	case 7:
		out := make(value.Bag, r.Intn(4))
		for i := range out {
			out[i] = randomCBORValue(r, depth-1)
		}
		return out
	default:
		t := value.EmptyTuple()
		for i, n := 0, r.Intn(4); i < n; i++ {
			t.Put(string(rune('a'+i)), randomCBORValue(r, depth-1))
		}
		return t
	}
}

func TestCBORMissingRefuses(t *testing.T) {
	if _, err := EncodeCBOR(value.Missing); err == nil {
		t.Error("MISSING must not encode as CBOR")
	}
}

// Format independence in miniature: the same logical value decoded from
// every format is equivalent.
func TestCrossFormatEquivalence(t *testing.T) {
	jsonSrc := `[{"id":1,"name":"Ada","score":9.5},{"id":2,"name":"Bob","score":3}]`
	csvSrc := "id,name,score\n1,Ada,9.5\n2,Bob,3\n"
	sionSrc := `{{ {'id':1,'name':'Ada','score':9.5}, {'id':2,'name':'Bob','score':3} }}`

	fromJSON, err := DecodeJSONBag(strings.NewReader(jsonSrc))
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ParseCSV(csvSrc, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromSION := sion.MustParse(sionSrc)
	cb, err := EncodeCBOR(fromSION)
	if err != nil {
		t.Fatal(err)
	}
	fromCBOR, err := DecodeCBOR(cb)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]value.Value{"csv": fromCSV, "sion": fromSION, "cbor": fromCBOR} {
		if !value.Equivalent(fromJSON, v) {
			t.Errorf("%s decoding differs from JSON:\n  json %s\n  %s %s", name, fromJSON, name, v)
		}
	}
}
