package value

import (
	"bytes"
	"slices"
)

// DeepEqual reports structural equality, sensitive to element order in
// both arrays and bags and to attribute order in tuples. It is the
// cheapest equality and is what the executor uses when it already
// controls ordering.
func DeepEqual(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case missingType, nullType:
		return true
	case Bool:
		return x == b.(Bool)
	case Int:
		return x == b.(Int)
	case Float:
		return x == b.(Float)
	case String:
		return x == b.(String)
	case Bytes:
		y := b.(Bytes)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case Array:
		return deepEqualSeq(x, []Value(b.(Array)))
	case Bag:
		return deepEqualSeq(x, []Value(b.(Bag)))
	case *Tuple:
		y := b.(*Tuple)
		if x.shape != y.shape && !slices.Equal(x.shape.names, y.shape.names) {
			return false
		}
		return deepEqualSeq(x.vals, y.vals)
	}
	return false
}

func deepEqualSeq(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Equivalent reports data-model equality: bags compare as multisets,
// tuples compare as multisets of (name, value) attributes, numbers compare
// numerically across Int/Float, and arrays stay order-sensitive. This is
// the equality the compatibility kit uses to diff query results against
// expected listings. It is also the per-row `=` of every WHERE clause,
// so the keys are built in stack buffers: comparing scalars allocates
// nothing.
func Equivalent(a, b Value) bool {
	var ka, kb [64]byte
	return bytes.Equal(AppendKey(ka[:0], a), AppendKey(kb[:0], b))
}

// ContainsEquivalent reports whether collection c (array or bag) contains
// an element equivalent to v.
func ContainsEquivalent(c []Value, v Value) bool {
	var kv, ke [64]byte
	k := AppendKey(kv[:0], v)
	for _, e := range c {
		if bytes.Equal(AppendKey(ke[:0], e), k) {
			return true
		}
	}
	return false
}
