package value

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// keySeed seeds the hash of every KeyTable.
var keySeed = maphash.MakeSeed()

// KeyTable numbers distinct key encodings (AppendKey) in first-seen
// order, which is how every hash-keyed operator applies grouping
// equality: GROUP BY, DISTINCT, set operations, window partitions, the
// hash join's build and the index's hash segments. Key o is
// enc[off[o]:off[o+1]]. slots is open-addressing, of the least
// power-of-two size of at least 4/3 the keys (or of the keys reserved),
// grown from two: a slot is 0 (free) or o+1 in its low bits under the
// high bits of the key's hash, so probes compare encodings only where
// those agree.
//
// Find only reads, so any number of goroutines may find in a table that
// no one interns into. The zero table is empty and ready to use.
type KeyTable struct {
	slots []uint32
	enc   []byte
	off   []uint32
}

// Reset empties the table, keeping its arrays.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.enc, t.off = t.enc[:0], t.off[:0]
}

// Reserve sizes an empty table for n keys: interning up to n grows
// neither the slots nor the offsets.
func (t *KeyTable) Reserve(n int) {
	size := 2
	for 3*size < 4*n {
		size *= 2
	}
	t.slots = make([]uint32, size)
	t.off = make([]uint32, 0, n+1)
}

// Len is the number of keys.
func (t *KeyTable) Len() int { return max(len(t.off)-1, 0) }

// Key returns the encoding of key o. It is the table's own storage.
func (t *KeyTable) Key(o int) []byte { return t.enc[t.off[o]:t.off[o+1]] }

// Find returns the ordinal of the key encoded as k, or -1 when the table
// does not hold it.
func (t *KeyTable) Find(k []byte) int {
	if len(t.slots) == 0 {
		return -1
	}
	return int(t.slots[t.slot(k, maphash.Bytes(keySeed, k))]&uint32(len(t.slots)-1)) - 1
}

// Intern returns the ordinal of the key encoded as k, and whether it is
// new: a new key is numbered Len() and its encoding copied in.
func (t *KeyTable) Intern(k []byte) (int, bool) {
	h := maphash.Bytes(keySeed, k)
	if len(t.slots) > 0 {
		if e := t.slots[t.slot(k, h)]; e != 0 {
			return int(e&uint32(len(t.slots)-1)) - 1, false
		}
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
			t.place(j, maphash.Bytes(keySeed, t.Key(j)))
		}
	}
	t.place(o, h)
	return o, true
}

// Clone returns a copy of t that shares no array with it, its encodings
// and offsets sized for n more keys of size more encoded bytes and no
// more: interning that many into the copy leaves no growth slack, and
// Clone(0, 0) is an exact-size copy.
func (t *KeyTable) Clone(n, size int) *KeyTable {
	return &KeyTable{
		slots: slices.Clone(t.slots),
		enc:   append(make([]byte, 0, len(t.enc)+size), t.enc...),
		off:   append(make([]uint32, 0, max(len(t.off), 1)+n), t.off...),
	}
}

// Clip drops the growth slack of the encodings and offsets: a table
// that takes no more keys, kept resident, holds its keys and no more.
func (t *KeyTable) Clip() {
	t.enc, t.off = slices.Clone(t.enc), slices.Clone(t.off)
}

// slot returns the slot of the key encoded as k, hashed h, or the free
// slot where it would go.
func (t *KeyTable) slot(k []byte, h uint64) int {
	mask := uint32(len(t.slots) - 1)
	tag := uint32(h>>32) &^ mask
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		if e := t.slots[i]; e == 0 || e&^mask == tag && bytes.Equal(t.Key(int(e&mask-1)), k) {
			return int(i)
		}
	}
}

// place files key o, absent from the table, in its first free slot.
func (t *KeyTable) place(o int, h uint64) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(h) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = uint32(h>>32)&^mask | uint32(o+1)
}

// appendDoubling appends vs to s, at least doubling its capacity when it
// must grow, where append would grow it by 1.25 past 256 elements.
func appendDoubling[T any](s []T, vs ...T) []T {
	if len(s)+len(vs) > cap(s) {
		s = slices.Grow(s, max(len(vs), len(s)))
	}
	return append(s, vs...)
}

// Distinct returns the elements of vs that are not grouping-equal to an
// earlier one, in order, in a new slice.
func Distinct[S ~[]Value](vs S) S {
	var t KeyTable
	t.Reserve(len(vs))
	var kb []byte
	out := vs[:0:0]
	for _, v := range vs {
		kb = AppendKey(kb[:0], v)
		if _, isNew := t.Intern(kb); isNew {
			out = append(out, v)
		}
	}
	return out
}
