package index

// SegmentSizes reports how many positions each segment of ix covers,
// oldest first.
func SegmentSizes(ix *Index) []int {
	out := make([]int, len(ix.segs))
	for i, s := range ix.segs {
		out[i] = s.n
	}
	return out
}
