package plan

import (
	"bytes"
	"hash/maphash"
)

// keySeed seeds the hash of keyTable.
var keySeed = maphash.MakeSeed()

// keyTable numbers distinct key encodings in first-seen order: key o is
// enc[off[o]:off[o+1]]. slots is open-addressing, of the least
// power-of-two size of at least 4/3 the keys (or of the keys reserved),
// grown from two: a slot is 0 (free) or o+1 in its low bits under the
// high bits of the key's hash, so probes compare encodings only where
// those agree. It is the layout of the index's hash segments
// (internal/index), less their copy-on-write.
//
// The streamed GROUP BY numbers its groups with it, and a hash join's
// build its key chains; the join's probers, parallel workers among them,
// share a built table through find, which only reads.
type keyTable struct {
	slots []uint32
	enc   []byte
	off   []uint32
}

func (t *keyTable) reset() {
	clear(t.slots)
	t.enc, t.off = t.enc[:0], t.off[:0]
}

// reserve sizes an empty table for n keys: interning up to n grows
// neither the slots nor the offsets.
func (t *keyTable) reserve(n int) {
	size := 2
	for 3*size < 4*n {
		size *= 2
	}
	t.slots = make([]uint32, size)
	t.off = make([]uint32, 0, n+1)
}

// size is the number of keys.
func (t *keyTable) size() int { return max(len(t.off)-1, 0) }

func (t *keyTable) key(o int) []byte { return t.enc[t.off[o]:t.off[o+1]] }

// find returns the ordinal of the key encoded as k, or -1 when the table
// does not hold it. It writes nothing, so any number of goroutines may
// find in a table that no one interns into.
func (t *keyTable) find(k []byte) int {
	return t.lookup(k, maphash.Bytes(keySeed, k))
}

// lookup is find of k hashed h.
func (t *keyTable) lookup(k []byte, h uint64) int {
	if len(t.slots) == 0 {
		return -1
	}
	return int(t.slots[t.slot(k, h)]&uint32(len(t.slots)-1)) - 1
}

// intern returns the ordinal of the key encoded as k, adding it if new.
func (t *keyTable) intern(k []byte) (int, bool) {
	h := maphash.Bytes(keySeed, k)
	if o := t.lookup(k, h); o >= 0 {
		return o, false
	}
	if len(t.off) == 0 {
		t.off = append(t.off, 0)
	}
	o := len(t.off) - 1
	t.enc = appendDoubling(t.enc, k...)
	t.off = appendDoubling(t.off, uint32(len(t.enc)))
	if 3*len(t.slots) < 4*(o+1) {
		t.slots = make([]uint32, max(2, 2*len(t.slots)))
		for j := range o {
			t.place(j, maphash.Bytes(keySeed, t.key(j)))
		}
	}
	t.place(o, h)
	return o, true
}

// slot returns the slot of the key encoded as k, hashed h, or the free
// slot where it would go.
func (t *keyTable) slot(k []byte, h uint64) int {
	mask := uint32(len(t.slots) - 1)
	tag := uint32(h>>32) &^ mask
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		if e := t.slots[i]; e == 0 || e&^mask == tag && bytes.Equal(t.key(int(e&mask-1)), k) {
			return int(i)
		}
	}
}

// place files key o, absent from the table, in its first free slot.
func (t *keyTable) place(o int, h uint64) {
	t.slots[t.slot(nil, h)] = uint32(h>>32)&^uint32(len(t.slots)-1) | uint32(o+1)
}
