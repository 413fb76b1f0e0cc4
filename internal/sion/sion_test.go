package sion

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

func TestParseScalars(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"1", value.Int(1)},
		{"-42", value.Int(-42)},
		{"+7", value.Int(7)},
		{"1.5", value.Float(1.5)},
		{"-0.25", value.Float(-0.25)},
		{"1e3", value.Float(1000)},
		{"2.5E-1", value.Float(0.25)},
		{"true", value.True},
		{"FALSE", value.False},
		{"null", value.Null},
		{"NULL", value.Null},
		{"missing", value.Missing},
		{"MISSING", value.Missing},
		{"'hello'", value.String("hello")},
		{"'it''s'", value.String("it's")},
		{"''", value.String("")},
		{"x'dead'", value.Bytes{0xde, 0xad}},
		{"X'00ff'", value.Bytes{0x00, 0xff}},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if !value.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseNaN(t *testing.T) {
	got, err := Parse("NaN")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := got.(value.Float)
	if !ok || !math.IsNaN(float64(f)) {
		t.Errorf("Parse(NaN) = %v", got)
	}
}

func TestParseCollections(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"[]", value.Array(nil)},
		{"[1, 2]", value.Array{value.Int(1), value.Int(2)}},
		{"{{}}", value.Bag(nil)},
		{"{{1}}", value.Bag{value.Int(1)}},
		{"<<1, 'a'>>", value.Bag{value.Int(1), value.String("a")}},
		{"{}", value.EmptyTuple()},
		{"{'a': 1}", value.NewTuple(value.Field{Name: "a", Value: value.Int(1)})},
		{`{"a": 1}`, value.NewTuple(value.Field{Name: "a", Value: value.Int(1)})},
		{"{a: 1}", value.NewTuple(value.Field{Name: "a", Value: value.Int(1)})},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if !value.Equivalent(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseNested(t *testing.T) {
	got, err := Parse(`{{
	  -- a comment
	  {'id': 3, 'projects': [{'name': 'OLAP Security'}], 'tags': <<'x'>>}
	}}`)
	if err != nil {
		t.Fatal(err)
	}
	bag, ok := got.(value.Bag)
	if !ok || len(bag) != 1 {
		t.Fatalf("got %v", got)
	}
	tup := bag[0].(*value.Tuple)
	if tup.Len() != 3 {
		t.Fatalf("tuple fields = %d", tup.Len())
	}
}

func TestTupleMissingDropped(t *testing.T) {
	got := MustParse("{'a': missing, 'b': 1}")
	tup := got.(*value.Tuple)
	if tup.Len() != 1 {
		t.Fatalf("MISSING attribute must be dropped, got %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"", "{", "[1,", "{'a'}", "{'a': }", "'unterminated",
		"1 2", "{{1,}}", "<<1", "frob", "x'abc'", "x'zz'", "[1 2]",
		"{1: 2}",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if _, ok := err.(*datafmt.SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T, want *datafmt.SyntaxError", src, err)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("[1, ")
	se, ok := err.(*datafmt.SyntaxError)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("error should cite an offset: %s", se)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("{")
}

// Property: rendering then parsing reproduces an equivalent value.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := randomValue(r, 3)
		src := v.String()
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", src, err)
		}
		if !value.Equivalent(v, back) {
			t.Fatalf("round trip of %q gave %v", src, back)
		}
		// Pretty output parses back too.
		back2, err := Parse(value.Pretty(v))
		if err != nil || !value.Equivalent(v, back2) {
			t.Fatalf("pretty round trip of %v failed: %v", v, err)
		}
	}
}

// randomValue avoids NaN (NaN != NaN only through Compare; Key treats all
// NaNs alike so Equivalent holds — but keep floats finite for clarity)
// and avoids MISSING inside tuples (unrepresentable).
func randomValue(r *rand.Rand, depth int) value.Value {
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
		return value.Int(r.Int63n(1e9) - 5e8)
	case 3:
		return value.Float(float64(r.Int63n(1e6)) / 64)
	case 4:
		const alphabet = "ab'c δ\n"
		n := r.Intn(8)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = []rune(alphabet)[r.Intn(7)]
		}
		return value.String(rs)
	case 5:
		b := make(value.Bytes, r.Intn(5))
		r.Read(b)
		return b
	case 6:
		out := make(value.Array, r.Intn(4))
		for i := range out {
			out[i] = randomValue(r, depth-1)
		}
		return out
	case 7:
		out := make(value.Bag, r.Intn(4))
		for i := range out {
			out[i] = randomValue(r, depth-1)
		}
		return out
	default:
		t := value.EmptyTuple()
		for i, n := 0, r.Intn(4); i < n; i++ {
			t.Put(string(rune('a'+r.Intn(5))), randomValue(r, depth-1))
		}
		return t
	}
}
