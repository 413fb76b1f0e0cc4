package value

import (
	"encoding/binary"
	"math"
	"sort"
)

// AppendKey appends a canonical byte encoding of v to dst and returns the
// extended slice. Two values receive the same encoding exactly when they
// are equal under SQL++ grouping equality: numbers compare numerically
// across Int/Float (1 and 1.0 group together), bags are order-insensitive,
// tuples are attribute-order-insensitive, and NULL and MISSING each form
// their own grouping class. The encoding is self-delimiting, so it is safe
// to use as a map key for GROUP BY and DISTINCT.
func AppendKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case missingType:
		return append(dst, 'M')
	case nullType:
		return append(dst, 'N')
	case Bool:
		if x {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case Int:
		return appendNumericKey(dst, v)
	case Float:
		return appendNumericKey(dst, v)
	case String:
		dst = append(dst, 's')
		dst = appendLen(dst, len(x))
		return append(dst, x...)
	case Bytes:
		dst = append(dst, 'y')
		dst = appendLen(dst, len(x))
		return append(dst, x...)
	case Array:
		dst = append(dst, 'a')
		dst = appendLen(dst, len(x))
		for _, e := range x {
			dst = AppendKey(dst, e)
		}
		return dst
	case Bag:
		dst = append(dst, 'g')
		dst = appendLen(dst, len(x))
		for _, e := range sortedBag(x) {
			dst = AppendKey(dst, e)
		}
		return dst
	case *Tuple:
		dst = append(dst, 't')
		dst = appendLen(dst, len(x.vals))
		names := x.shape.names
		for _, i := range x.attrOrder() {
			dst = appendLen(dst, len(names[i]))
			dst = append(dst, names[i]...)
			dst = AppendKey(dst, x.vals[i])
		}
		return dst
	}
	panic("value: AppendKey on unknown Value type")
}

// Key returns AppendKey(nil, v) as a string, suitable as a Go map key.
func Key(v Value) string { return string(AppendKey(nil, v)) }

// appendNumericKey encodes Int and Float so that numerically equal values
// encode identically. Integral floats within int64 range encode as the
// integer; everything else encodes as ordered IEEE-754 bits.
func appendNumericKey(dst []byte, v Value) []byte {
	if i, ok := AsInt(v); ok {
		dst = append(dst, 'i')
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		return append(dst, buf[:]...)
	}
	f, _ := AsFloat(v)
	if math.IsNaN(f) {
		return append(dst, 'q') // all NaNs group together
	}
	dst = append(dst, 'f')
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(f))
	return append(dst, buf[:]...)
}

func appendLen(dst []byte, n int) []byte {
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(n))
	return append(dst, buf[:k]...)
}

// SortValues sorts vs in place by the SQL++ total order.
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
}
