// Package index implements secondary indexes over named collections:
// hash indexes for equality probes and ordered indexes for range
// probes, keyed by a value path extracted from each element (`a.b.c`,
// including steps into nested tuples).
//
// Permissive SQL++ semantics shape the whole design. A path extracted
// from a schema-less element can be MISSING (attribute absent, or a
// type fault navigated in permissive mode), NULL, or any type at all —
// and two elements of the same collection routinely disagree. The index
// therefore keeps explicit slots for MISSING and NULL keys outside the
// probe structures (an equality or range predicate over an absent or
// null key can never evaluate to TRUE, so those rows are never
// candidates), and orders heterogeneous keys by the data model's total
// order so a range probe can be restricted to the single comparison
// class the bounds belong to.
//
// An index never answers a predicate by itself. It yields candidate
// positions in ascending element order; the plan layer re-verifies
// every candidate against the original predicate, so indexed and
// scanned executions produce bit-identical results by construction.
//
// Published indexes are immutable: incremental maintenance goes through
// Extended, which returns a successor sharing every segment it did not
// merge, so concurrent readers of the old version never observe a
// mutation and an append costs the rows it adds, not the collection.
package index

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// Kind selects the index structure.
type Kind uint8

const (
	// Hash supports equality probes only.
	Hash Kind = iota
	// Ordered supports both equality and range probes.
	Ordered
)

// String names the kind.
func (k Kind) String() string {
	if k == Ordered {
		return "ordered"
	}
	return "hash"
}

// ParseKind parses a kind name; the empty string defaults to hash.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "hash":
		return Hash, nil
	case "ordered":
		return Ordered, nil
	}
	return Hash, fmt.Errorf("index: unknown kind %q (want hash or ordered)", s)
}

// Spec declares an index: a name, the collection it covers, the key
// path extracted from each element, and the structure kind.
type Spec struct {
	Name       string
	Collection string
	Path       []string
	Kind       Kind
}

// PathString renders the key path in dotted form.
func (s Spec) PathString() string { return strings.Join(s.Path, ".") }

// Index is an immutable secondary index over one snapshot of a
// collection: immutable segments, oldest first, each covering the
// positions after its predecessor's. Positions are int32 element
// ordinals, kept ascending so probe results replay in scan order.
type Index struct {
	spec Spec
	src  value.Value // the collection snapshot the positions refer to
	n    int         // elements covered
	segs []*segment
}

// segment indexes one contiguous run of positions in CSR form: key o's
// positions are pos[off[o]:off[o+1]], ascending. missing and null hold
// the positions whose key was MISSING or NULL, never probe candidates.
// An ordered segment's key o is keys[o], an element's own value, in
// value.Compare order. Equality probes binary-search keys, which agrees
// with grouping equality: Compare is zero exactly for Equivalent values.
// A hash segment's key o is key o of table, the canonical encoding
// (value.AppendKey) numbered in first-seen order.
type segment struct {
	n             int // positions covered
	pos, off      []int32
	missing, null []int32
	keys          []value.Value   // ordered
	table         *value.KeyTable // hash; nil in an ordered segment
}

// ordinal returns the ordinal of key, or -1. A hash segment reads only
// the key's encoding enc.
func (s *segment) ordinal(key value.Value, enc []byte) int {
	if s.table != nil {
		return s.table.Find(enc)
	}
	if o, ok := slices.BinarySearchFunc(s.keys, key, value.Compare); ok {
		return o
	}
	return -1
}

// add appends the next key, whose positions are the runs in turn.
//
// governor: re-files positions charged when first indexed.
func (s *segment) add(runs ...[]int32) {
	for _, r := range runs {
		s.pos = append(s.pos, r...)
	}
	s.off = append(s.off, int32(len(s.pos)))
}

// run returns key o's positions, capped so an append cannot reach o+1's.
func (s *segment) run(o int) []int32 { return s.pos[s.off[o]:s.off[o+1]:s.off[o+1]] }

// Spec returns the index declaration.
func (ix *Index) Spec() Spec { return ix.spec }

// Source returns the collection snapshot the index was built over.
func (ix *Index) Source() value.Value { return ix.src }

// Len reports how many elements the index covers.
func (ix *Index) Len() int { return ix.n }

// Slots reports the population of the absent-key slots and the number of
// distinct probeable keys, counted afresh so that appends never pay for it.
func (ix *Index) Slots() (keys, missing, null int) {
	for i, s := range ix.segs {
		missing += len(s.missing)
		null += len(s.null)
		for o := range len(s.off) - 1 {
			key, enc := value.Value(nil), []byte(nil)
			if s.table == nil {
				key = s.keys[o]
			} else {
				enc = s.table.Key(o)
			}
			if !slices.ContainsFunc(ix.segs[:i], func(old *segment) bool { return old.ordinal(key, enc) >= 0 }) {
				keys++
			}
		}
	}
	return keys, missing, null
}

// Extract mirrors eval.Navigate's permissive dot-navigation: tuples
// step into the named attribute (absent → MISSING), MISSING and NULL
// propagate through further steps, and navigating into any other type
// is a permissive type fault yielding MISSING. The index key for an
// element must be exactly what the evaluator would compute for the
// same path, or indexed candidates would diverge from scan results.
func Extract(v value.Value, path []string) value.Value {
	for _, name := range path {
		t, ok := v.(*value.Tuple)
		if !ok {
			if v.Kind() == value.KindNull {
				return value.Null
			}
			return value.Missing
		}
		v, _ = t.Get(name)
	}
	return v
}

// Build constructs an index over src, which must be a collection (array
// or bag). gov, when non-nil, is charged per indexed element, so index
// construction competes for the memory budget of query evaluation.
func Build(spec Spec, src value.Value, gov *eval.Governor) (*Index, error) {
	if len(spec.Path) == 0 || slices.Contains(spec.Path, "") {
		return nil, fmt.Errorf("index %s: empty step in key path %q", spec.Name, spec.PathString())
	}
	elems, ok := value.Elements(src)
	if !ok {
		return nil, fmt.Errorf("index %s: %s is %v, not a collection", spec.Name, spec.Collection, src.Kind())
	}
	return (&Index{spec: spec}).Extended(src, elems, gov)
}

// Extended returns a new index covering src, which must be the previous
// snapshot with elems appended; the receiver is unchanged. The appended
// elements form a new segment, merged with its predecessors while the
// one before is no larger: an append of k elements onto n costs
// amortized O(k·log(n/k)), and older segments are shared, not copied.
//
// governor: charged in newSegment; merges re-file charged entries.
func (ix *Index) Extended(src value.Value, elems []value.Value, gov *eval.Governor) (*Index, error) {
	n := ix.n + len(elems)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("index %s: collection %s exceeds %d elements", ix.spec.Name, ix.spec.Collection, math.MaxInt32)
	}
	if all, ok := value.Elements(src); !ok || len(all) != n {
		return nil, fmt.Errorf("index %s: extend: source is not the %d-element collection the append makes", ix.spec.Name, n)
	}
	s, err := ix.newSegment(elems, gov)
	if err != nil {
		return nil, err
	}
	segs := append(slices.Clip(ix.segs), s)
	for len(segs) > 1 && segs[len(segs)-2].n <= segs[len(segs)-1].n {
		segs = append(segs[:len(segs)-2], merge(segs[len(segs)-2], segs[len(segs)-1]))
	}
	return &Index{spec: ix.spec, src: src, n: n, segs: segs}, nil
}

// newSegment indexes elems as the positions after ix's. It interns and
// counts the keys, then lays the positions out; an ordered segment then
// keeps the keys, sorted, in place of their table.
//
// governor: charged per element; the layout is sized by those elements.
func (ix *Index) newSegment(elems []value.Value, gov *eval.Governor) (*segment, error) {
	s := &segment{n: len(elems), off: []int32{0}, table: new(value.KeyTable)}
	ordered := ix.spec.Kind == Ordered
	ords := make([]int32, len(elems)) // each element's key ordinal+1; 0 if absent
	var reps []value.Value            // ordered: each key's first value
	var buf []byte
	for i, e := range elems {
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.IndexBuildInsert); err != nil {
				return nil, fmt.Errorf("index %s: insert: %w", ix.spec.Name, err)
			}
		}
		key := Extract(e, ix.spec.Path)
		if gov != nil {
			if err := gov.ChargeValues("index-build", 1, key); err != nil {
				return nil, err
			}
		}
		switch key.Kind() {
		case value.KindMissing:
			s.missing = append(s.missing, int32(ix.n+i))
		case value.KindNull:
			s.null = append(s.null, int32(ix.n+i))
		default:
			buf = value.AppendKey(buf[:0], key)
			o, added := s.table.Intern(buf)
			if added {
				s.off = append(s.off, 0) // counts key o's positions in off[o+1]
				if ordered {
					reps = append(reps, key)
				}
			}
			s.off[o+1]++
			ords[i] = int32(o + 1)
		}
	}
	for o := range len(s.off) - 1 {
		s.off[o+1] += s.off[o]
	}
	s.pos = make([]int32, s.off[len(s.off)-1])
	next := slices.Clone(s.off) // each key's next free position
	for i, o := range ords {
		if o > 0 {
			s.pos[next[o-1]] = int32(ix.n + i)
			next[o-1]++
		}
	}
	if !ordered {
		s.off = slices.Clone(s.off)
		s.table.Clip()
		return s, nil
	}
	slices.SortFunc(reps, value.Compare)
	t := &segment{n: s.n, pos: make([]int32, 0, len(s.pos)), off: make([]int32, 1, len(reps)+1), keys: slices.Clone(reps), missing: s.missing, null: s.null}
	for _, k := range reps {
		t.add(s.run(s.table.Find(value.AppendKey(buf[:0], k))))
	}
	return t, nil
}

// merge returns one segment holding a's positions followed by b's; a
// key in both gets a's positions, then b's. Ordered segments merge their
// sorted keys; hash segments add b's new keys to a copy of a's table.
//
// governor: re-files entries of a and b, charged when each was built.
func merge(a, b *segment) *segment {
	na, nb := len(a.off)-1, len(b.off)-1
	m := &segment{n: a.n + b.n, pos: make([]int32, 0, len(a.pos)+len(b.pos)), off: make([]int32, 1, na+nb+1),
		missing: slices.Concat(a.missing, b.missing), null: slices.Concat(a.null, b.null)}
	if a.table == nil {
		m.keys = make([]value.Value, 0, na+nb)
		for i, j := 0, 0; i < na || j < nb; {
			c := 1 // how a's next key compares to b's, an exhausted side last
			if j == nb {
				c = -1
			} else if i < na {
				c = value.Compare(a.keys[i], b.keys[j])
			}
			var ra, rb []int32
			if c <= 0 {
				m.keys, ra, i = append(m.keys, a.keys[i]), a.run(i), i+1
			} else {
				m.keys = append(m.keys, b.keys[j])
			}
			if c >= 0 {
				rb, j = b.run(j), j+1
			}
			m.add(ra, rb)
		}
		m.keys, m.off = slices.Clone(m.keys), slices.Clone(m.off)
		return m
	}
	// b's keys not in a are all of its keys less those a shares, and
	// encode the same: m's table is cloned with room for exactly those.
	newKeys, newBytes := nb, 0
	for j := range nb {
		newBytes += len(b.table.Key(j))
	}
	for o := range na {
		var rb []int32
		if j := b.table.Find(a.table.Key(o)); j >= 0 {
			rb = b.run(j)
			newKeys, newBytes = newKeys-1, newBytes-len(b.table.Key(j))
		}
		m.add(a.run(o), rb)
	}
	m.table = a.table.Clone(newKeys, newBytes)
	for j := range nb {
		if _, added := m.table.Intern(b.table.Key(j)); added {
			m.add(b.run(j))
		}
	}
	m.off = slices.Clone(m.off)
	return m
}

// Lookup returns the ascending positions whose key is grouping-equal to
// key. An absent (MISSING or NULL) probe key matches nothing, as no
// absent key is filed: equality against one is never TRUE. The returned
// slice may be shared with the index and must not be mutated.
//
// governor:charged-at the caller's "index-probe" site (plan/indexscan.go).
func (ix *Index) Lookup(key value.Value) []int32 {
	var buf [64]byte
	var enc []byte
	if ix.spec.Kind == Hash {
		enc = value.AppendKey(buf[:0], key)
	}
	var out []int32
	for _, s := range ix.segs {
		if o := s.ordinal(key, enc); o >= 0 && out == nil {
			out = s.run(o)
		} else if o >= 0 {
			out = append(out, s.run(o)...)
		}
	}
	return out
}

// Range returns the ascending positions whose key k satisfies
// lo (<|<=) k (<|<=) hi under the evaluator's ordering semantics. A nil
// bound is unbounded on that side (at least one must be non-nil).
//
// Evaluator ordering comparisons are only TRUE for scalar operands of
// the same comparison class, so the probe is restricted to the bounds'
// class: bounds of two different classes, or a bound of a non-scalar
// class, match nothing. Within the class the data model's total order
// agrees with the evaluator's, so the result is a superset of the rows
// the predicate accepts (re-verification discards the rest).
//
// governor: charged once per segment window below.
func (ix *Index) Range(lo, hi value.Value, loIncl, hiIncl bool, gov *eval.Governor) ([]int32, error) {
	bound := hi
	if lo != nil {
		bound = lo
	}
	if ix.spec.Kind != Ordered || bound == nil {
		return nil, fmt.Errorf("index %s: a range probe needs an ordered index and a bound", ix.spec.Name)
	}
	// The evaluator only orders scalars: booleans, numbers, strings, bytes.
	class := value.CompareClass(bound.Kind())
	if hi != nil && value.CompareClass(hi.Kind()) != class || class < value.CompareClass(value.KindBool) || class > value.CompareClass(value.KindBytes) {
		return nil, nil
	}
	var winBuf [32][]int32
	wins := winBuf[:0]
	for _, s := range ix.segs {
		a, b := first(s.keys, lo, loIncl, class), first(s.keys, hi, !hiIncl, class+1)
		win := s.pos[s.off[a]:s.off[max(a, b)]]
		if gov != nil {
			if err := gov.ChargeValues("index-probe", int64(len(win)), nil); err != nil {
				return nil, err
			}
		}
		wins = append(wins, win)
	}
	out := slices.Concat(wins...) // sized from the windows before copying
	slices.Sort(out)
	return out, nil
}

// first returns the first of keys at or past v (past it only, unless
// incl); for a nil v, the first key of class c or a later one.
func first(keys []value.Value, v value.Value, incl bool, c int) int {
	return sort.Search(len(keys), func(i int) bool {
		if v == nil {
			return value.CompareClass(keys[i].Kind()) >= c
		}
		d := value.Compare(keys[i], v)
		return d > 0 || d == 0 && incl
	})
}
