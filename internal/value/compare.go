package value

import (
	"bytes"
	"math"
	"sort"
	"strings"
)

// Compare defines the SQL++ total order used by ORDER BY and by the
// canonical sorting of bags. Values of different kinds order by kind:
//
//	MISSING < NULL < booleans < numbers < strings < bytes
//	        < arrays < tuples < bags
//
// with integers and floats compared numerically within the number class.
// Within arrays the order is lexicographic by element; tuples compare by
// their attribute multiset sorted by name; bags compare as sorted
// multisets. NaN sorts before all other floats so the order stays total.
func Compare(a, b Value) int {
	ca, cb := CompareClass(a.Kind()), CompareClass(b.Kind())
	if ca != cb {
		return cmpInt(ca, cb)
	}
	switch a.Kind() {
	case KindMissing, KindNull:
		return 0
	case KindBool:
		x, _ := a.(Bool)
		var y Bool
		y, _ = b.(Bool)
		switch {
		case bool(x) == bool(y):
			return 0
		case !bool(x):
			return -1
		default:
			return 1
		}
	case KindInt, KindFloat:
		return CompareNumeric(a, b)
	case KindString:
		return strings.Compare(string(a.(String)), string(b.(String)))
	case KindBytes:
		return bytes.Compare([]byte(a.(Bytes)), []byte(b.(Bytes)))
	case KindArray:
		return compareSeq([]Value(a.(Array)), []Value(b.(Array)))
	case KindBag:
		return compareSeq(sortedBag(a.(Bag)), sortedBag(b.(Bag)))
	case KindTuple:
		return compareTuple(a.(*Tuple), b.(*Tuple))
	}
	return 0
}

// CompareClass ranks kinds into the total order's comparison classes:
// Int and Float share one, and Compare orders values of different
// classes by this rank alone.
func CompareClass(k Kind) int {
	switch k {
	case KindMissing:
		return 0
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 3
	case KindString:
		return 4
	case KindBytes:
		return 5
	case KindArray:
		return 6
	case KindTuple:
		return 7
	case KindBag:
		return 8
	}
	return 9
}

// CompareNumeric compares two numeric values (Int or Float) numerically.
// It is exact for int/int, float/float, and mixed comparisons where the
// integer is representable; very large integers compare via big-value
// logic on the float side. NaN compares less than every non-NaN.
func CompareNumeric(a, b Value) int {
	ai, aIsInt := a.(Int)
	bi, bIsInt := b.(Int)
	if aIsInt && bIsInt {
		return cmpInt(int64(ai), int64(bi))
	}
	af, _ := AsFloat(a)
	bf, _ := AsFloat(b)
	aNaN, bNaN := math.IsNaN(af), math.IsNaN(bf)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	}
	// Mixed int/float comparison must avoid precision loss for |int|>2^53.
	if aIsInt {
		return cmpIntFloat(int64(ai), bf)
	}
	if bIsInt {
		return -cmpIntFloat(int64(bi), af)
	}
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat compares an exact int64 with a float64 without losing
// precision for integers beyond 2^53.
func cmpIntFloat(i int64, f float64) int {
	if math.IsInf(f, 1) {
		return -1
	}
	if math.IsInf(f, -1) {
		return 1
	}
	// If f is outside int64 range the sign decides.
	if f >= 9.223372036854776e18 {
		return -1
	}
	if f < -9.223372036854776e18 {
		return 1
	}
	trunc := math.Trunc(f)
	ti := int64(trunc)
	if c := cmpInt(i, ti); c != 0 {
		return c
	}
	frac := f - trunc
	switch {
	case frac > 0:
		return -1
	case frac < 0:
		return 1
	default:
		return 0
	}
}

func cmpInt[T int | int64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareSeq(a, b []Value) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(a), len(b))
}

// sortedBag returns the bag's elements in total order (a fresh slice).
func sortedBag(b Bag) []Value {
	s := make([]Value, len(b))
	copy(s, b)
	sort.SliceStable(s, func(i, j int) bool { return Compare(s[i], s[j]) < 0 })
	return s
}

// compareTuple compares tuples by their (name, value) pairs sorted by
// name then value, so attribute order is irrelevant, matching the
// unordered-tuple data model.
func compareTuple(a, b *Tuple) int {
	ia, ib := a.attrOrder(), b.attrOrder()
	an, bn := a.shape.names, b.shape.names
	n := min(len(ia), len(ib))
	for i := 0; i < n; i++ {
		pa, pb := ia[i], ib[i]
		if c := strings.Compare(an[pa], bn[pb]); c != 0 {
			return c
		}
		if c := Compare(a.vals[pa], b.vals[pb]); c != 0 {
			return c
		}
	}
	return cmpInt(len(ia), len(ib))
}

// attrOrder returns the positions of t's attributes sorted by name, then
// value: the canonical attribute order behind tuple comparison and
// keying. Values decide only between attributes of one name, so every
// tuple of a shape without such a repeat reads the shape's cached order.
func (t *Tuple) attrOrder() []int32 {
	order, dup := t.shape.sorted()
	if !dup {
		return order
	}
	names := t.shape.names
	idx := append([]int32(nil), order...)
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if names[a] != names[b] {
			return names[a] < names[b]
		}
		return Compare(t.vals[a], t.vals[b]) < 0
	})
	return idx
}
