package value

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// A Shape is the attribute-name sequence of a tuple, in insertion order,
// duplicates included. Tuples with the same sequence share one Shape, so
// a collection of like rows stores its names once. Shapes are immutable
// and reached by transitions: s.With(name) is the shape of s's names
// followed by name, and asking twice returns the same *Shape.
//
// Shared shapes live in one process-wide transition tree rooted at the
// empty shape. The tree is bounded (maxShapeTableBytes): the transition
// that would overfill it empties it instead, so input with unboundedly
// many key sets costs what its tuples hold and no more. Shapes in use
// stay valid when that happens but leave the tree: they and the shapes
// derived from them are private, shared with nothing, until their names
// are next reached from the root. Nothing observable depends on whether
// a shape is shared.
type Shape struct {
	names []string
	// gen is the generation of the tree the shape was inserted in; zero
	// for a private shape. Only shapes of the current generation get kids.
	gen uint32
	// tail is set by the one child allowed to place its last name in the
	// slot after names in names' backing array. Every other child copies.
	tail atomic.Bool
	// kids is the root of the binary search tree of s's children, ordered
	// by hash; less and more are s's own links in its parent's tree. Links
	// go from nil to a shape once, so a hit needs no lock, and a
	// transition allocates the new shape and nothing else, however many
	// siblings it has.
	kids, less, more atomic.Pointer[Shape]
	// hash is the hash of the last name.
	hash uint64
	// order is nil until a tuple of the shape is first compared or keyed.
	order atomic.Pointer[nameOrder]
	// json is nil until a tuple of the shape is first encoded as JSON.
	json atomic.Pointer[jsonKeys]
}

// jsonKeys is a shape's names as JSON object keys, each quoted, escaped
// and followed by its colon, end to end in buf; name i's key ends at
// ends[i].
type jsonKeys struct {
	buf  []byte
	ends []int32
}

// nameOrder is a shape's positions sorted by name, then position, and
// whether some name occurs twice.
type nameOrder struct {
	pos []int32
	dup bool
}

const (
	// maxShapeTableBytes bounds what the transition tree may retain.
	maxShapeTableBytes = 4 << 20
	// shapeOverhead is a shared shape's fixed cost against that bound
	// (the struct); the names it allocates, its cached order and its JSON
	// keys are charged by length, when they are allocated.
	shapeOverhead = 80
)

var (
	rootShape = &Shape{}
	// shapeSeed keys the hash per process, so that no input can be made
	// to line a tree of siblings up into a list.
	shapeSeed = maphash.MakeSeed()

	// shapeMu serialises inserts into the tree; lookups do not take it.
	shapeMu         sync.Mutex
	shapeTableBytes int
	// shapeGen counts how often the tree has been emptied, from one.
	shapeGen atomic.Uint32
)

func init() { shapeGen.Store(1) }

// inTree reports whether s is a node of the current tree.
func (s *Shape) inTree() bool { return s == rootShape || s.gen == shapeGen.Load() }

// ShapeOf returns the shape of names in order.
func ShapeOf(names ...string) *Shape {
	s := rootShape
	for _, n := range names {
		s = s.With(n)
	}
	return s
}

// With returns the shape of s's names followed by name.
func (s *Shape) With(name string) *Shape {
	h := maphash.String(shapeSeed, name)
	if c := lookupKid(s, h, name); c != nil {
		return c
	}
	return s.grow(h, name)
}

// WithBytes is With for a name still in a decoder's input buffer: a hit
// allocates nothing.
func (s *Shape) WithBytes(name []byte) *Shape {
	h := maphash.Bytes(shapeSeed, name)
	if c := lookupKid(s, h, name); c != nil {
		return c
	}
	return s.grow(h, string(name))
}

// lookupKid finds s's child for name, whose hash is h.
func lookupKid[K string | []byte](s *Shape, h uint64, name K) *Shape {
	c := s.kids.Load()
	for c != nil {
		switch {
		case h < c.hash:
			c = c.less.Load()
		case h == c.hash && c.names[len(c.names)-1] == string(name):
			return c
		default:
			c = c.more.Load()
		}
	}
	return nil
}

// grow is With's miss path.
func (s *Shape) grow(h uint64, name string) *Shape {
	if !s.inTree() {
		c, _ := s.extend(name)
		return c
	}
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if c := lookupKid(s, h, name); c != nil {
		return c // inserted since the lock-free look
	}
	c, alloc := s.extend(name)
	if !s.inTree() {
		return c // the tree was emptied since
	}
	if !chargeShapeTree(shapeOverhead + len(name) + 16*alloc) {
		return c
	}
	c.gen, c.hash = shapeGen.Load(), h
	link := &s.kids
	for p := link.Load(); p != nil; p = link.Load() {
		if h < p.hash {
			link = &p.less
		} else {
			link = &p.more
		}
	}
	link.Store(c)
	return c
}

// chargeShapeTree counts n more bytes retained by the tree, or empties it
// and reports false if they would overfill it; the caller holds shapeMu.
func chargeShapeTree(n int) bool {
	if shapeTableBytes+n > maxShapeTableBytes {
		emptyShapeTree()
		return false
	}
	shapeTableBytes += n
	return true
}

// emptyShapeTree starts the next generation of the tree; the caller holds
// shapeMu.
func emptyShapeTree() {
	shapeGen.Add(1)
	shapeTableBytes = 0
	cutLoose(rootShape.kids.Swap(nil))
}

// cutLoose cuts c, its siblings below it and their subtrees into single
// shapes, so that one still in use keeps only itself alive.
func cutLoose(c *Shape) {
	if c != nil {
		cutLoose(c.less.Swap(nil))
		cutLoose(c.more.Swap(nil))
		cutLoose(c.kids.Swap(nil))
	}
}

// extend returns a private shape of s's names followed by name, and how
// many name slots it allocated to make it.
func (s *Shape) extend(name string) (*Shape, int) {
	n := len(s.names)
	if s.tail.CompareAndSwap(false, true) && cap(s.names) > n {
		return &Shape{names: append(s.names, name)}, 0
	}
	names := append(s.names[:n:n], name)
	return &Shape{names: names}, cap(names)
}

// sorted returns the positions of s's names in name order, and whether
// any name repeats (equal names keep insertion order). Comparing and
// keying tuples is per-row work, so the order is computed once per shape:
// by the first tuple of it that is compared or keyed, which for a shape
// that only leads to others (a prefix of a row's names) is never.
func (s *Shape) sorted() ([]int32, bool) {
	o := s.order.Load()
	if o == nil {
		o = &nameOrder{pos: make([]int32, len(s.names))}
		for i := range o.pos {
			o.pos[i] = int32(i)
		}
		sort.SliceStable(o.pos, func(i, j int) bool { return s.names[o.pos[i]] < s.names[o.pos[j]] })
		for i := 1; i < len(o.pos); i++ {
			if s.names[o.pos[i-1]] == s.names[o.pos[i]] {
				o.dup = true
			}
		}
		if s.order.CompareAndSwap(nil, o) {
			shapeMu.Lock()
			if s.inTree() {
				chargeShapeTree(4 * len(o.pos))
			}
			shapeMu.Unlock()
		} else {
			o = s.order.Load()
		}
	}
	return o.pos, o.dup
}

// JSONKeys returns s's names rendered as JSON object keys (`"name":`,
// escaped as AppendJSONString escapes) end to end, and the end offset of
// each in that slice; both are shared and must not be changed. Encoding a
// row is per-row work, so like sorted the keys are rendered once per
// shape, by the first tuple of it that is encoded.
func (s *Shape) JSONKeys() ([]byte, []int32) {
	k := s.json.Load()
	if k == nil {
		k = &jsonKeys{ends: make([]int32, len(s.names))}
		for i, name := range s.names {
			k.buf = append(AppendJSONString(k.buf, name), ':')
			k.ends[i] = int32(len(k.buf))
		}
		if s.json.CompareAndSwap(nil, k) {
			shapeMu.Lock()
			if s.inTree() {
				chargeShapeTree(len(k.buf) + 4*len(k.ends))
			}
			shapeMu.Unlock()
		} else {
			k = s.json.Load()
		}
	}
	return k.buf, k.ends
}
