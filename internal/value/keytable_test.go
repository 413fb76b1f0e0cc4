package value

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// TestKeyTableFindMatchesMap: a KeyTable numbers random encodings as a
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

	var tbl KeyTable
	want := map[string]int{}
	var keys [][]byte
	check := func(when string) {
		t.Helper()
		for _, k := range keys {
			if got := tbl.Find(k); got != want[string(k)] {
				t.Fatalf("%s: find(%v) = %d, want %d", when, k, got, want[string(k)])
			}
			if got := tbl.Find(absent(k)); got != -1 {
				t.Fatalf("%s: find(%v), never interned, = %d", when, absent(k), got)
			}
		}
	}
	if got := tbl.Find(nil); got != -1 {
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
		o, isNew := tbl.Intern(k)
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
	if tbl.Len() != len(want) {
		t.Fatalf("size %d, want %d", tbl.Len(), len(want))
	}

	// Keys that share a start slot and a tag in a table of 2^16 slots,
	// where tags are 16 bits: only their encodings tell them apart.
	var small KeyTable
	small.Reserve(3 << 14)
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
		a, _ := small.Intern(p[0])
		if got := small.Find(p[1]); got != -1 {
			t.Fatalf("find(%q), never interned, = %d: the ordinal of %q, which shares its slot and tag", p[1], got, p[0])
		}
		b, _ := small.Intern(p[1])
		if a == b || small.Find(p[0]) != a || small.Find(p[1]) != b {
			t.Fatalf("%q and %q, sharing a slot and a tag, are %d and %d; find reads %d and %d", p[0], p[1], a, b, small.Find(p[0]), small.Find(p[1]))
		}
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				k := keys[i]
				if got := tbl.Find(k); got != want[string(k)] {
					t.Errorf("concurrent find(%v) = %d, want %d", k, got, want[string(k)])
					return
				}
				if got := tbl.Find(absent(k)); got != -1 {
					t.Errorf("concurrent find(%v), never interned, = %d", absent(k), got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzKeyTable drives a KeyTable through a byte-coded sequence of Intern,
// Find, Reset, Reserve, Clone and Clip calls, and checks it after each
// against a map from encoding to ordinal plus the encodings in first-seen
// order. Keys are short and drawn from the input, so they repeat, share
// prefixes and include the empty key.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0, 1, 'a', 0, 1, 'a', 1, 1, 'a', 1, 1, 'b', 0, 0, 1, 0})
	f.Add([]byte{3, 9, 0, 2, 'x', 'y', 4, 1, 2, 0, 1, 'z', 5, 2, 0, 1, 'z'})
	f.Add(bytes.Repeat([]byte{0, 2, 1, 7, 0, 1, 3}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		var tbl KeyTable
		want := map[string]int{}
		var order []string
		for step := 0; len(ops) > 0; step++ {
			switch op := next() % 6; op {
			case 0, 1: // Intern or Find the key of the next n bytes
				n := min(next()%8, len(ops))
				k := ops[:n:n]
				ops = ops[n:]
				wo, seen := want[string(k)]
				if !seen {
					wo = -1
				}
				if op == 1 {
					if got := tbl.Find(k); got != wo {
						t.Fatalf("step %d: Find(%q) = %d, want %d", step, k, got, wo)
					}
					continue
				}
				o, isNew := tbl.Intern(k)
				if isNew == seen || seen && o != wo || !seen && o != len(order) {
					t.Fatalf("step %d: Intern(%q) = %d, %v; want %d of %d keys", step, k, o, isNew, wo, len(order))
				}
				if isNew {
					want[string(k)] = o
					order = append(order, string(k))
				}
			case 2:
				tbl.Reset()
				clear(want)
				order = order[:0]
			case 3: // Reserve sizes an empty table
				if n := next(); tbl.Len() == 0 {
					tbl.Reserve(n)
				}
			case 4:
				tbl = *tbl.Clone(next()%4, next()%16)
			case 5:
				tbl.Clip()
			}
			if tbl.Len() != len(order) {
				t.Fatalf("step %d: Len %d, want %d", step, tbl.Len(), len(order))
			}
			for o, k := range order {
				if got := string(tbl.Key(o)); got != k {
					t.Fatalf("step %d: Key(%d) = %q, want %q", step, o, got, k)
				}
				if got := tbl.Find([]byte(k)); got != o {
					t.Fatalf("step %d: Find(%q) = %d, want %d", step, k, got, o)
				}
			}
		}
	})
}
