// Package value implements the SQL++ data model.
//
// A SQL++ value is absent (MISSING), null, a scalar (boolean, integer,
// float, string, or bytes), a tuple of named attributes, or a collection
// (an ordered array or an unordered bag) of arbitrary values. Unlike the
// SQL data model, collections need not be homogeneous, tuples may nest
// arbitrarily, and two distinct absent values exist: NULL (present but
// unknown) and MISSING (not present at all).
//
// The package is nil-free by construction: every SQL++ value, including
// the two absent values, is a non-nil Value. Code that receives a Go nil
// where a Value is expected is in error, and the constructors here never
// produce one.
package value

import "math"

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The kinds, in SQL++ total-order position (see Compare).
const (
	KindMissing Kind = iota
	KindNull
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindArray
	KindTuple
	KindBag
)

var kindNames = [...]string{
	KindMissing: "missing",
	KindNull:    "null",
	KindBool:    "boolean",
	KindInt:     "integer",
	KindFloat:   "float",
	KindString:  "string",
	KindBytes:   "bytes",
	KindArray:   "array",
	KindTuple:   "tuple",
	KindBag:     "bag",
}

// String returns the lower-case SQL++ name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Value is a SQL++ value. Implementations are exactly the types declared
// in this package; user code should treat the set as closed.
type Value interface {
	// Kind reports the dynamic type of the value.
	Kind() Kind
	// String renders the value in the paper's object notation
	// (single-quoted strings, {{ }} bags). It is meant for diagnostics
	// and tests; use package datafmt for interchange formats.
	String() string
}

type missingType struct{}
type nullType struct{}

// Missing is the SQL++ MISSING value: the result of navigation that binds
// to nothing, or of a mistyped operation in permissive mode. It can never
// appear as an attribute value inside a constructed tuple.
var Missing Value = missingType{}

// Null is the SQL++ (and SQL) NULL value.
var Null Value = nullType{}

func (missingType) Kind() Kind { return KindMissing }
func (nullType) Kind() Kind    { return KindNull }

// Bool is a SQL++ boolean scalar.
type Bool bool

// True and False are the boolean scalars.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Kind reports KindBool.
func (Bool) Kind() Kind { return KindBool }

// Int is a SQL++ 64-bit integer scalar.
type Int int64

// Kind reports KindInt.
func (Int) Kind() Kind { return KindInt }

// Float is a SQL++ 64-bit floating-point scalar.
type Float float64

// Kind reports KindFloat.
func (Float) Kind() Kind { return KindFloat }

// String is a SQL++ character-string scalar.
type String string

// Kind reports KindString.
func (String) Kind() Kind { return KindString }

// Bytes is a SQL++ binary scalar (the logical type that CBOR byte strings
// and Ion blobs map to).
type Bytes []byte

// Kind reports KindBytes.
func (Bytes) Kind() Kind { return KindBytes }

// Array is an ordered SQL++ collection, denoted [ ... ].
type Array []Value

// Kind reports KindArray.
func (Array) Kind() Kind { return KindArray }

// Bag is an unordered SQL++ collection (a multiset), denoted {{ ... }}.
// The slice order is an implementation detail kept stable for rendering
// determinism; bag equality ignores it (see Equivalent).
type Bag []Value

// Kind reports KindBag.
func (Bag) Kind() Kind { return KindBag }

// Field is one attribute handed to NewTuple.
type Field struct {
	Name  string
	Value Value
}

// Tuple is a SQL++ tuple: a collection of name/value attributes. The data
// model treats tuples as unordered, but insertion order is preserved for
// deterministic rendering. Duplicate attribute names are permitted (for
// compatibility with non-strict formats); navigation resolves to the first
// occurrence, which the paper documents as potentially nonreproducible.
//
// A tuple holds its names by reference to a Shape and its values in a
// slice parallel to the shape's names.
type Tuple struct {
	shape *Shape
	vals  []Value
}

// Kind reports KindTuple.
func (*Tuple) Kind() Kind { return KindTuple }

// NewTuple constructs a tuple from fields in order. Fields whose value is
// MISSING are dropped: MISSING may not appear as an attribute value
// (paper §II). A nil field value is treated as a programming error and
// panics.
func NewTuple(fields ...Field) *Tuple {
	t := &Tuple{shape: rootShape, vals: make([]Value, 0, len(fields))}
	for _, f := range fields {
		t.Put(f.Name, f.Value)
	}
	return t
}

// EmptyTuple returns a new tuple with no attributes.
func EmptyTuple() *Tuple { return &Tuple{shape: rootShape} }

// New returns the tuple whose i-th attribute is s's i-th name with value
// vals[i]. It takes ownership of vals, which must hold one value per name;
// Put and Set append within vals' spare capacity.
// Attributes whose value is MISSING are dropped (MISSING may not appear
// as an attribute value, paper §II), which costs a walk to the shape
// without them; a nil value is a programming error and panics.
func (s *Shape) New(vals []Value) *Tuple {
	if len(vals) != len(s.names) {
		panic("value: tuple values do not match its shape")
	}
	for i, v := range vals {
		if v == nil {
			panic("value: nil Value put into tuple attribute " + s.names[i])
		}
		if v.Kind() == KindMissing {
			t := &Tuple{shape: ShapeOf(s.names[:i]...), vals: vals[:i]}
			for j := i + 1; j < len(vals); j++ {
				t.Put(s.names[j], vals[j])
			}
			return t
		}
	}
	return &Tuple{shape: s, vals: vals}
}

// Put appends attribute name with value v. If v is MISSING the attribute
// is not added. Put does not replace an existing attribute of the same
// name; use Set for replacement semantics.
func (t *Tuple) Put(name string, v Value) {
	if v == nil {
		panic("value: nil Value put into tuple attribute " + name)
	}
	if v.Kind() == KindMissing {
		return
	}
	t.shape = t.shape.With(name)
	t.vals = append(t.vals, v)
}

// Set replaces the first attribute named name, or appends it if absent.
// Setting MISSING removes the attribute entirely.
func (t *Tuple) Set(name string, v Value) {
	if v == nil {
		panic("value: nil Value set into tuple attribute " + name)
	}
	if v.Kind() == KindMissing {
		t.Delete(name)
		return
	}
	for i, n := range t.shape.names {
		if n == name {
			t.vals[i] = v
			return
		}
	}
	t.Put(name, v)
}

// Delete removes every attribute named name.
func (t *Tuple) Delete(name string) {
	names, vals := t.shape.names, t.vals
	t.shape, t.vals = rootShape, vals[:0]
	for i, n := range names {
		if n != name {
			t.Put(n, vals[i])
		}
	}
}

// Get navigates to attribute name. Navigation into a missing attribute
// yields MISSING (paper §IV-B case 1), so the second result reports
// whether the attribute was present.
func (t *Tuple) Get(name string) (Value, bool) {
	for i, n := range t.shape.names {
		if n == name {
			return t.vals[i], true
		}
	}
	return Missing, false
}

// Len reports the number of attributes, counting duplicates.
func (t *Tuple) Len() int { return len(t.vals) }

// Shape returns the tuple's attribute-name sequence.
func (t *Tuple) Shape() *Shape { return t.shape }

// Names returns the attribute names in insertion order, parallel to
// Values. The slice is shared; callers must not mutate it.
func (t *Tuple) Names() []string { return t.shape.names }

// Values returns the attribute values in insertion order. The slice is
// shared; callers must not mutate it.
func (t *Tuple) Values() []Value { return t.vals }

// IsAbsent reports whether v is NULL or MISSING.
func IsAbsent(v Value) bool {
	k := v.Kind()
	return k == KindMissing || k == KindNull
}

// IsNumeric reports whether v is an integer or float scalar.
func IsNumeric(v Value) bool {
	k := v.Kind()
	return k == KindInt || k == KindFloat
}

// Elements returns the elements of a collection value, or nil and false
// when v is not a collection.
func Elements(v Value) ([]Value, bool) {
	switch c := v.(type) {
	case Array:
		return c, true
	case Bag:
		return c, true
	}
	return nil, false
}

// AsFloat returns the numeric value of an Int or Float as float64.
func AsFloat(v Value) (float64, bool) {
	switch n := v.(type) {
	case Int:
		return float64(n), true
	case Float:
		return float64(n), true
	}
	return 0, false
}

// AsInt returns the value of an Int, or of a Float with an integral value
// that fits in int64. The upper bound is exclusive: math.MaxInt64 rounds
// to 2^63 as a float64, and 2^63 does not fit.
func AsInt(v Value) (int64, bool) {
	switch n := v.(type) {
	case Int:
		return int64(n), true
	case Float:
		f := float64(n)
		if f == math.Trunc(f) && f >= math.MinInt64 && f < 1<<63 {
			return int64(f), true
		}
	}
	return 0, false
}

// HasMissing reports whether MISSING occurs anywhere in v: v itself or an
// element of a collection at any depth. Tuples never hold it as an
// attribute value, but may hold collections that do.
func HasMissing(v Value) bool {
	switch x := v.(type) {
	case Array:
		return anyMissing(x)
	case Bag:
		return anyMissing(x)
	case *Tuple:
		return anyMissing(x.vals)
	}
	return v.Kind() == KindMissing
}

func anyMissing(vs []Value) bool {
	for _, v := range vs {
		if HasMissing(v) {
			return true
		}
	}
	return false
}
