package value

// Clone returns a deep copy of v. Scalars and the absent values are
// immutable and returned as-is; collections and tuples are copied
// recursively so the result shares no mutable state with v.
func Clone(v Value) Value {
	switch x := v.(type) {
	case Bytes:
		out := make(Bytes, len(x))
		copy(out, x)
		return out
	case Array:
		out := make(Array, len(x))
		for i, e := range x {
			out[i] = Clone(e)
		}
		return out
	case Bag:
		out := make(Bag, len(x))
		for i, e := range x {
			out[i] = Clone(e)
		}
		return out
	case *Tuple:
		vals := make([]Value, len(x.vals))
		for i, v := range x.vals {
			vals[i] = Clone(v)
		}
		return &Tuple{shape: x.shape, vals: vals}
	default:
		return v
	}
}
