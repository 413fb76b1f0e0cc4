package value

// MinApproxSize is the least ApproxSize of any non-nil value: one boxed
// word, what a scalar costs.
const MinApproxSize = 16

// ApproxSize estimates the in-memory footprint of v in bytes: header
// costs per value plus string/collection payloads, recursively. It is
// an estimate for resource governance, not an exact accounting — the
// goal is that a budget expressed in bytes degrades predictably with
// the real heap pressure of materialized state (hash-join builds,
// GROUP BY content, ORDER BY buffers), not that it matches the
// allocator byte for byte.
func ApproxSize(v Value) int64 {
	const (
		header    = MinApproxSize // interface header
		sliceHdr  = 24
		tupleBase = 48
	)
	switch x := v.(type) {
	case nil:
		return 0
	case String:
		return header + int64(len(x))
	case Bytes:
		return header + int64(len(x))
	case Array:
		s := int64(sliceHdr)
		for _, e := range x {
			s += ApproxSize(e)
		}
		return s
	case Bag:
		s := int64(sliceHdr)
		for _, e := range x {
			s += ApproxSize(e)
		}
		return s
	case *Tuple:
		s := int64(tupleBase)
		for i, name := range x.shape.names {
			s += header + int64(len(name)) + ApproxSize(x.vals[i])
		}
		return s
	default:
		// Bool, Int, Float, Missing, Null: one boxed word.
		return header
	}
}
