package value

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestKindNames(t *testing.T) {
	cases := map[Kind]string{
		KindMissing: "missing", KindNull: "null", KindBool: "boolean",
		KindInt: "integer", KindFloat: "float", KindString: "string",
		KindBytes: "bytes", KindArray: "array", KindTuple: "tuple",
		KindBag: "bag",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(200).String() != "invalid" {
		t.Errorf("out-of-range kind should be invalid")
	}
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Missing, KindMissing},
		{Null, KindNull},
		{True, KindBool},
		{Int(7), KindInt},
		{Float(1.5), KindFloat},
		{String("x"), KindString},
		{Bytes{1}, KindBytes},
		{Array{Int(1)}, KindArray},
		{Bag{Int(1)}, KindBag},
		{EmptyTuple(), KindTuple},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v.Kind() = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestTuplePutDropsMissing(t *testing.T) {
	tup := NewTuple(Field{Name: "a", Value: Int(1)}, Field{Name: "b", Value: Missing})
	if tup.Len() != 1 {
		t.Fatalf("MISSING attribute should be dropped, got %d fields", tup.Len())
	}
	if _, ok := tup.Get("b"); ok {
		t.Error("attribute b should be absent")
	}
	v, ok := tup.Get("a")
	if !ok || v != Int(1) {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
}

func TestTupleGetAbsentIsMissing(t *testing.T) {
	tup := EmptyTuple()
	v, ok := tup.Get("nope")
	if ok || v.Kind() != KindMissing {
		t.Errorf("absent attribute should navigate to MISSING, got %v, %v", v, ok)
	}
}

func TestTupleDuplicateNames(t *testing.T) {
	tup := EmptyTuple()
	tup.Put("a", Int(1))
	tup.Put("a", Int(2))
	if tup.Len() != 2 {
		t.Fatalf("duplicate names are permitted; got %d fields", tup.Len())
	}
	// Navigation resolves to the first occurrence (documented as
	// potentially nonreproducible in the paper).
	if v, _ := tup.Get("a"); v != Int(1) {
		t.Errorf("Get should return the first duplicate, got %v", v)
	}
}

func TestTupleSetReplacesAndDeletes(t *testing.T) {
	tup := EmptyTuple()
	tup.Put("a", Int(1))
	tup.Set("a", Int(9))
	if v, _ := tup.Get("a"); v != Int(9) {
		t.Errorf("Set should replace, got %v", v)
	}
	tup.Set("b", Int(2))
	if tup.Len() != 2 {
		t.Errorf("Set should append new attribute")
	}
	tup.Set("a", Missing)
	if _, ok := tup.Get("a"); ok {
		t.Error("setting MISSING should delete the attribute")
	}
	tup.Delete("b")
	if tup.Len() != 0 {
		t.Errorf("Delete should remove, got %d", tup.Len())
	}
}

func TestTupleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("putting a nil Value should panic: the data plane is nil-free")
		}
	}()
	EmptyTuple().Put("a", nil)
}

func TestHelpers(t *testing.T) {
	if !IsAbsent(Missing) || !IsAbsent(Null) || IsAbsent(Int(0)) {
		t.Error("IsAbsent wrong")
	}
	if !IsCollection(Array{}) || !IsCollection(Bag{}) || IsCollection(EmptyTuple()) {
		t.Error("IsCollection wrong")
	}
	if !IsNumeric(Int(1)) || !IsNumeric(Float(1)) || IsNumeric(String("1")) {
		t.Error("IsNumeric wrong")
	}
	if e, ok := Elements(Array{Int(1)}); !ok || len(e) != 1 {
		t.Error("Elements over array wrong")
	}
	if _, ok := Elements(Int(1)); ok {
		t.Error("Elements over scalar should fail")
	}
}

func TestAsIntAsFloat(t *testing.T) {
	if f, ok := AsFloat(Int(3)); !ok || f != 3 {
		t.Error("AsFloat(Int) wrong")
	}
	if f, ok := AsFloat(Float(2.5)); !ok || f != 2.5 {
		t.Error("AsFloat(Float) wrong")
	}
	if _, ok := AsFloat(String("x")); ok {
		t.Error("AsFloat(String) should fail")
	}
	if i, ok := AsInt(Float(4.0)); !ok || i != 4 {
		t.Error("AsInt of integral float wrong")
	}
	if _, ok := AsInt(Float(4.5)); ok {
		t.Error("AsInt of fractional float should fail")
	}
	if _, ok := AsInt(Float(math.Inf(1))); ok {
		t.Error("AsInt of +Inf should fail")
	}
	if i, ok := AsInt(Int(-9)); !ok || i != -9 {
		t.Error("AsInt(Int) wrong")
	}
}

func TestRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Missing, "MISSING"},
		{Null, "null"},
		{True, "true"},
		{False, "false"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{Float(2), "2.0"},
		{Float(math.NaN()), "NaN"},
		{String("a'b"), "'a''b'"},
		{Bytes{0xde, 0xad}, "x'dead'"},
		{Array{Int(1), String("x")}, "[1, 'x']"},
		{Bag{Int(1)}, "{{1}}"},
		{NewTuple(Field{"a", Int(1)}, Field{"b", Null}), "{'a': 1, 'b': null}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestPretty(t *testing.T) {
	v := Bag{NewTuple(Field{"a", Array{Int(1), Int(2)}})}
	got := Pretty(v)
	want := "{{\n  {\n    'a': [\n      1,\n      2\n    ]\n  }\n}}"
	if got != want {
		t.Errorf("Pretty = %q, want %q", got, want)
	}
	if Pretty(EmptyTuple()) != "{}" {
		t.Error("empty tuple should pretty-print compactly")
	}
	if Pretty(Array{}) != "[]" {
		t.Error("empty array should pretty-print compactly")
	}
}

func TestPutWithinCapacityDoesNotReallocate(t *testing.T) {
	tup := ShapeOf().New(make([]Value, 0, 3))
	if tup.Len() != 0 {
		t.Fatalf("pre-sized tuple has %d attributes", tup.Len())
	}
	tup.Put("a", Int(1))
	first := &tup.Values()[0]
	tup.Put("b", Int(2))
	tup.Put("c", Int(3))
	if &tup.Values()[0] != first {
		t.Error("Put within the pre-sized capacity moved the value slice")
	}
	if n := testing.AllocsPerRun(100, func() {
		p := ShapeOf().New(make([]Value, 0, 2))
		p.Put("a", True)
		p.Put("b", False)
	}); n > 2 {
		t.Errorf("pre-sized two-attribute tuple: %.0f allocations, want 2", n)
	}
}

// referenceString is the renderer String replaced: each nested value is
// rendered on its own and copied into its parent's text. The append-style
// writer must produce the same bytes.
func referenceString(v Value) string {
	seq := func(vs []Value, open, close string) string {
		parts := make([]string, len(vs))
		for i, e := range vs {
			parts[i] = referenceString(e)
		}
		return open + strings.Join(parts, ", ") + close
	}
	switch x := v.(type) {
	case Float:
		f := float64(x)
		switch {
		case math.IsNaN(f):
			return "NaN"
		case math.IsInf(f, 1):
			return "+Inf"
		case math.IsInf(f, -1):
			return "-Inf"
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case String:
		return "'" + strings.ReplaceAll(string(x), "'", "''") + "'"
	case Bytes:
		return fmt.Sprintf("x'%x'", []byte(x))
	case Array:
		return seq(x, "[", "]")
	case Bag:
		return seq(x, "{{", "}}")
	case *Tuple:
		parts := make([]string, x.Len())
		for i, name := range x.Names() {
			parts[i] = referenceString(String(name)) + ": " + referenceString(x.Values()[i])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return v.String() // MISSING, null, booleans, integers
}

func TestRenderingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	fixed := []Value{Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e21), Float(-0.0), Float(1e-7),
		String("''"), String(""), Bytes{}, Array{}, Bag{}, EmptyTuple(),
		NewTuple(Field{"it's", Bag{Array{String("'")}}})}
	for i := 0; i < 2000; i++ {
		v := genValue(r, 4)
		if i < len(fixed) {
			v = fixed[i]
		}
		if got, want := v.String(), referenceString(v); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// attrOrder must order attributes exactly as a stable sort by (name,
// value) does, through the shape's cached order when no name repeats
// and by value among repeats.
func TestAttrOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	cached := 0
	for i := 0; i < 1000; i++ {
		fs := make([]Field, 1+r.Intn(32))
		for j := range fs {
			fs[j] = Field{Name: string(rune('a' + r.Intn(40))), Value: nonMissing(r, 1)}
		}
		want := make([]int32, len(fs))
		for j := range want {
			want[j] = int32(j)
		}
		sort.SliceStable(want, func(a, b int) bool {
			fa, fb := fs[want[a]], fs[want[b]]
			if fa.Name != fb.Name {
				return fa.Name < fb.Name
			}
			return Compare(fa.Value, fb.Value) < 0
		})
		tup := NewTuple(fs...)
		if got := tup.attrOrder(); !reflect.DeepEqual(got, want) {
			t.Fatalf("attrOrder of %d fields: %v, want %v", len(fs), got, want)
		}
		if _, dup := tup.shape.sorted(); !dup {
			cached++
		}
	}
	if cached < 100 {
		t.Errorf("only %d of 1000 tuples had no repeated name; the generator no longer tests the cached order", cached)
	}
}
