package plan

import (
	"hash/maphash"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// TestKeyTableFindMatchesMap: a keyTable numbers random encodings as a
// map from encoding to first-seen ordinal does. find agrees with the map
// for every key and for keys never interned, before and after each
// growth of the slots, while the table is small and its probe runs
// cross, and up to 2^16 slots. Keys that share both a start slot and a
// tag are told apart by their encodings. Concurrent finds share the
// built table, as a hash join's parallel probers do.
func TestKeyTableFindMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randKey := func() []byte {
		k := make([]byte, rng.Intn(6))
		for i := range k {
			k[i] = byte(rng.Intn(4)) // a small alphabet: many shared prefixes
		}
		return k
	}
	// 9 is outside the alphabet, and no counter reaches 9<<16.
	absent := func(k []byte) []byte { return append(k[:len(k):len(k)], 9) }

	var tbl keyTable
	want := map[string]int{}
	var keys [][]byte
	check := func(when string) {
		t.Helper()
		for _, k := range keys {
			if got := tbl.find(k); got != want[string(k)] {
				t.Fatalf("%s: find(%v) = %d, want %d", when, k, got, want[string(k)])
			}
			if got := tbl.find(absent(k)); got != -1 {
				t.Fatalf("%s: find(%v), never interned, = %d", when, absent(k), got)
			}
		}
	}
	if got := tbl.find(nil); got != -1 {
		t.Fatalf("find in an empty table = %d", got)
	}
	// 4 + 4^2 + … + 4^5 short keys, then longer ones until the slots have
	// 2^16 entries and the tags 16 bits.
	for len(tbl.slots) < 1<<16 {
		k := randKey()
		if len(want) > 1000 {
			k = append(k, byte(len(want)), byte(len(want)>>8), byte(len(want)>>16))
		}
		slots := len(tbl.slots)
		o, isNew := tbl.intern(k)
		wo, seen := want[string(k)]
		if isNew == seen || seen && o != wo || !seen && o != len(want) {
			t.Fatalf("intern(%v) = %d, %v; map says %d, %v of %d", k, o, isNew, wo, seen, len(want))
		}
		if !seen {
			want[string(k)] = o
			keys = append(keys, k)
		}
		// Every state up to 300 keys is checked, so the last one before
		// each growth too; then each growth up to 2,000 keys.
		if len(want) <= 300 || len(tbl.slots) != slots && len(want) < 2000 {
			check(strconv.Itoa(len(want)) + " keys in " + strconv.Itoa(len(tbl.slots)) + " slots")
		}
	}
	check("built")
	if tbl.size() != len(want) {
		t.Fatalf("size %d, want %d", tbl.size(), len(want))
	}

	// Keys that share a start slot and a tag in a table of 2^16 slots,
	// where tags are 16 bits: only their encodings tell them apart.
	var small keyTable
	small.reserve(3 << 14)
	mask := uint32(len(small.slots) - 1)
	bySig := map[uint32][]byte{}
	var pairs [][2][]byte
	for i := 0; i < 300_000 && len(pairs) < 8; i++ {
		k := []byte(strconv.Itoa(i))
		h := maphash.Bytes(keySeed, k)
		sig := uint32(h)&mask | uint32(h>>32)&^mask
		if other, ok := bySig[sig]; ok {
			pairs = append(pairs, [2][]byte{other, k})
		}
		bySig[sig] = k
	}
	if len(pairs) == 0 {
		t.Fatal("no two of 300,000 keys share a slot and a tag")
	}
	for _, p := range pairs {
		a, _ := small.intern(p[0])
		if got := small.find(p[1]); got != -1 {
			t.Fatalf("find(%q), never interned, = %d: the ordinal of %q, which shares its slot and tag", p[1], got, p[0])
		}
		b, _ := small.intern(p[1])
		if a == b || small.find(p[0]) != a || small.find(p[1]) != b {
			t.Fatalf("%q and %q, sharing a slot and a tag, are %d and %d; find reads %d and %d", p[0], p[1], a, b, small.find(p[0]), small.find(p[1]))
		}
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				k := keys[i]
				if got := tbl.find(k); got != want[string(k)] {
					t.Errorf("concurrent find(%v) = %d, want %d", k, got, want[string(k)])
					return
				}
				if got := tbl.find(absent(k)); got != -1 {
					t.Errorf("concurrent find(%v), never interned, = %d", absent(k), got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
