package index_test

import (
	"testing"

	"sqlpp/internal/index"
	"sqlpp/internal/value"
)

// fuzzKey maps one input byte to a key: the low three bits pick the
// type, the rest the value. Ints and integral floats collide under
// grouping equality; type 7 leaves the key MISSING (nil).
func fuzzKey(b byte) value.Value {
	v := int64(b >> 3)
	switch b & 7 {
	case 0:
		return value.Int(v % 8)
	case 1:
		return value.Float(float64(v % 8))
	case 2:
		return value.Float(float64(v) + 0.5)
	case 3:
		return value.String(string(rune('a' + v%8)))
	case 4:
		return value.Null
	case 5:
		return value.Bool(v%2 == 0)
	case 6:
		return value.Array{value.Int(v % 3)}
	}
	return nil
}

// fuzzBatches decodes data into batches of rows {'k': fuzzKey(b)}; a
// 0xff byte closes a batch.
func fuzzBatches(data []byte) [][]value.Value {
	var batches [][]value.Value
	var cur []value.Value
	for _, b := range data {
		if b == 0xff {
			batches = append(batches, cur)
			cur = nil
			continue
		}
		t0 := value.EmptyTuple()
		if k := fuzzKey(b); k != nil {
			t0.Put("k", k)
		}
		cur = append(cur, t0)
	}
	return append(batches, cur)
}

// FuzzIndexExtend: an index extended batch by batch answers Lookup,
// Range and Slots exactly as a fresh Build over the whole collection.
func FuzzIndexExtend(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0xff, 8, 9, 0xff, 0xff, 3, 4, 7})
	seed := make([]byte, 0, 2048)
	for i := 0; i < 2048; i++ {
		seed = append(seed, byte(i*37+i/11))
	}
	f.Add(seed)

	seen := map[string]bool{}
	probes := []value.Value{value.Missing}
	for b := 0; b < 0xff; b++ {
		if k := fuzzKey(byte(b)); k != nil && !seen[value.Key(k)] {
			seen[value.Key(k)] = true
			probes = append(probes, k)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := fuzzBatches(data)
		for _, kind := range []index.Kind{index.Hash, index.Ordered} {
			elems := batches[0]
			ix, err := index.Build(index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}, Kind: kind}, value.Bag(elems), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, add := range batches[1:] {
				elems = append(elems[:len(elems):len(elems)], add...)
				if ix, err = ix.Extended(value.Bag(elems), add, nil); err != nil {
					t.Fatal(err)
				}
				agreeWithFresh(t, ix, value.Bag(elems), probes)
			}
		}
	})
}
