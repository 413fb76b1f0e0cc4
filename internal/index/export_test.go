package index

import "sqlpp/internal/value"

// SegmentSizes reports how many positions each segment of ix covers,
// oldest first.
func SegmentSizes(ix *Index) []int {
	out := make([]int, len(ix.segs))
	for i, s := range ix.segs {
		out[i] = s.n
	}
	return out
}

// TableSizes reports the size of each segment's hash directory table,
// oldest first.
func TableSizes(ix *Index) []int {
	out := make([]int, len(ix.segs))
	for i, s := range ix.segs {
		out[i] = len(s.table)
	}
	return out
}

// KeyHash is the hash directory's hash of key's canonical encoding.
func KeyHash(key value.Value) uint64 {
	return hash(value.AppendKey(nil, key))
}
