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
// collection. Positions are int32 element ordinals in the snapshot,
// kept ascending everywhere so probe results replay in original scan
// order. It is a list of immutable segments, oldest first, each
// covering the position range after its predecessor's.
type Index struct {
	spec     Spec
	src      value.Value // the collection snapshot the positions refer to
	n        int         // elements covered
	segs     []*segment
	distinct int // distinct probeable keys across all segments
}

// segment indexes one contiguous run of positions.
type segment struct {
	n int // positions covered

	// buckets maps the canonical key encoding (value.AppendKey — the
	// engine's grouping equality, under which 1 and 1.0 collide exactly
	// when `=` calls them equal) to ascending positions. Both kinds
	// keep buckets, so equality probes work uniformly.
	buckets map[string][]int32

	// missing and null hold positions whose extracted key was MISSING
	// or NULL. They are never probe candidates; they exist so the index
	// fully accounts for the collection and so diagnostics can report
	// how much of it is unindexable.
	missing []int32
	null    []int32

	// Ordered indexes additionally keep the distinct non-absent keys
	// sorted by value.Compare (the data model's total order), with
	// runs[i] holding the positions for keys[i].
	keys []value.Value
	runs [][]int32
}

// Spec returns the index declaration.
func (ix *Index) Spec() Spec { return ix.spec }

// Source returns the collection snapshot the index was built over.
func (ix *Index) Source() value.Value { return ix.src }

// Len reports how many elements the index covers.
func (ix *Index) Len() int { return ix.n }

// Slots reports the population of the absent-key slots alongside the
// number of distinct probeable keys.
func (ix *Index) Slots() (keys, missing, null int) {
	for _, s := range ix.segs {
		missing += len(s.missing)
		null += len(s.null)
	}
	return ix.distinct, missing, null
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
			switch v.Kind() {
			case value.KindMissing:
				return value.Missing
			case value.KindNull:
				return value.Null
			default:
				return value.Missing
			}
		}
		v, _ = t.Get(name)
	}
	return v
}

// Build constructs an index over src, which must be a collection
// (array or bag). gov, when non-nil, is charged per indexed element so
// index construction competes for the same memory budget as query
// evaluation.
func Build(spec Spec, src value.Value, gov *eval.Governor) (*Index, error) {
	if len(spec.Path) == 0 {
		return nil, fmt.Errorf("index %s: empty key path", spec.Name)
	}
	for _, step := range spec.Path {
		if step == "" {
			return nil, fmt.Errorf("index %s: empty step in key path %q", spec.Name, spec.PathString())
		}
	}
	elems, ok := value.Elements(src)
	if !ok {
		return nil, fmt.Errorf("index %s: %s is %v, not a collection", spec.Name, spec.Collection, src.Kind())
	}
	if len(elems) > math.MaxInt32 {
		return nil, fmt.Errorf("index %s: collection %s exceeds %d elements", spec.Name, spec.Collection, math.MaxInt32)
	}
	ix := &Index{spec: spec, src: src, n: len(elems)}
	s, err := ix.newSegment(0, elems, "build", gov)
	if err != nil {
		return nil, err
	}
	ix.segs = []*segment{s}
	ix.distinct = len(s.buckets)
	return ix, nil
}

// newSegment indexes elems as the positions from base on.
//
// governor: every accumulated entry is charged in insert.
func (ix *Index) newSegment(base int, elems []value.Value, op string, gov *eval.Governor) (*segment, error) {
	s := &segment{n: len(elems), buckets: make(map[string][]int32)}
	var keyBuf []byte
	for i, e := range elems {
		if err := ix.insert(s, int32(base+i), e, &keyBuf, op, gov); err != nil {
			return nil, err
		}
	}
	if ix.spec.Kind == Ordered {
		// Each bucket's first position names its representative key.
		s.keys = make([]value.Value, 0, len(s.buckets))
		s.runs = make([][]int32, 0, len(s.buckets))
		for _, run := range s.buckets {
			s.keys = append(s.keys, Extract(elems[int(run[0])-base], ix.spec.Path))
			s.runs = append(s.runs, run)
		}
		sort.Sort(byKey{s})
	}
	return s, nil
}

// byKey sorts an ordered segment's keys, and their runs with them.
type byKey struct{ *segment }

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return value.Compare(b.keys[i], b.keys[j]) < 0 }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.runs[i], b.runs[j] = b.runs[j], b.runs[i]
}

// insert files one element into s, encoding its key into the reused
// *keyBuf.
func (ix *Index) insert(s *segment, pos int32, elem value.Value, keyBuf *[]byte, op string, gov *eval.Governor) error {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.IndexBuildInsert); err != nil {
			return fmt.Errorf("index %s: %s: %w", ix.spec.Name, op, err)
		}
	}
	key := Extract(elem, ix.spec.Path)
	if gov != nil {
		if err := gov.ChargeValues("index-build", 1, key); err != nil {
			return err
		}
	}
	switch key.Kind() {
	case value.KindMissing:
		s.missing = append(s.missing, pos)
	case value.KindNull:
		s.null = append(s.null, pos)
	default:
		*keyBuf = value.AppendKey((*keyBuf)[:0], key)
		if run, ok := s.buckets[string(*keyBuf)]; ok {
			s.buckets[string(*keyBuf)] = append(run, pos)
		} else {
			s.buckets[string(*keyBuf)] = []int32{pos}
		}
	}
	return nil
}

// Lookup returns the ascending positions whose key is grouping-equal to
// key. An absent (MISSING or NULL) probe key matches nothing: equality
// against an absent value never evaluates to TRUE. The returned slice
// may be shared with the index and must not be mutated.
//
// governor:charged-at the caller's "index-probe" site (plan/indexscan.go).
func (ix *Index) Lookup(key value.Value) []int32 {
	if value.IsAbsent(key) {
		return nil
	}
	var buf [64]byte
	enc := value.AppendKey(buf[:0], key)
	var out []int32
	for _, s := range ix.segs {
		if run := s.buckets[string(enc)]; out == nil {
			out = run
		} else if len(run) > 0 {
			out = append(slices.Clip(out), run...)
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
// governor: charged per merged candidate run below.
func (ix *Index) Range(lo, hi value.Value, loIncl, hiIncl bool, gov *eval.Governor) ([]int32, error) {
	if ix.spec.Kind != Ordered {
		return nil, fmt.Errorf("index %s: range probe on hash index", ix.spec.Name)
	}
	var class int
	switch {
	case lo != nil && hi != nil:
		class = comparisonClass(lo)
		if comparisonClass(hi) != class {
			return nil, nil
		}
	case lo != nil:
		class = comparisonClass(lo)
	case hi != nil:
		class = comparisonClass(hi)
	default:
		return nil, fmt.Errorf("index %s: range probe with no bounds", ix.spec.Name)
	}
	if !scalarClass(class) {
		return nil, nil
	}
	var out []int32
	for _, s := range ix.segs {
		// Narrow to the class segment of keys, then to the bound window.
		keys := s.keys
		a := sort.Search(len(keys), func(i int) bool { return comparisonClass(keys[i]) >= class })
		b := a + sort.Search(len(keys)-a, func(i int) bool { return comparisonClass(keys[a+i]) > class })
		if lo != nil {
			a += sort.Search(b-a, func(i int) bool {
				c := value.Compare(keys[a+i], lo)
				if loIncl {
					return c >= 0
				}
				return c > 0
			})
		}
		if hi != nil {
			b = a + sort.Search(b-a, func(i int) bool {
				c := value.Compare(keys[a+i], hi)
				if hiIncl {
					return c > 0
				}
				return c >= 0
			})
		}
		for _, run := range s.runs[a:b] {
			if gov != nil {
				if err := gov.ChargeValues("index-probe", int64(len(run)), nil); err != nil {
					return nil, err
				}
			}
			out = append(out, run...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Extended returns a new index covering src, which must be the previous
// snapshot with elems appended; the receiver is unchanged. The appended
// elements form a new segment, merged with its predecessors while the
// one before is no larger, so an append of k elements onto n costs
// amortized O(k·log(n/k)) and older segments are shared, never copied.
//
// governor: appended entries are charged in insert; merges re-file
// entries already charged.
func (ix *Index) Extended(src value.Value, elems []value.Value, gov *eval.Governor) (*Index, error) {
	n := ix.n + len(elems)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("index %s: collection %s exceeds %d elements", ix.spec.Name, ix.spec.Collection, math.MaxInt32)
	}
	if all, ok := value.Elements(src); !ok || len(all) != n {
		return nil, fmt.Errorf("index %s: extend: source is not the %d-element collection the append makes", ix.spec.Name, n)
	}
	s, err := ix.newSegment(ix.n, elems, "extend", gov)
	if err != nil {
		return nil, err
	}
	nx := &Index{spec: ix.spec, src: src, n: n, distinct: ix.distinct}
	for k := range s.buckets {
		if !slices.ContainsFunc(ix.segs, func(o *segment) bool { _, ok := o.buckets[k]; return ok }) {
			nx.distinct++
		}
	}
	segs := append(slices.Clip(ix.segs), s)
	for len(segs) > 1 && segs[len(segs)-2].n <= segs[len(segs)-1].n {
		segs = append(segs[:len(segs)-2], merge(segs[len(segs)-2], segs[len(segs)-1], ix.spec.Kind == Ordered))
	}
	nx.segs = segs
	return nx, nil
}

// merge returns one segment holding a's positions followed by b's. A
// key in both gets a's run then b's, carved from one arena; a key in one
// keeps its run. Keys are re-encoded, never re-extracted.
//
// governor: re-files entries of a and b, charged when each was built.
func merge(a, b *segment, ordered bool) *segment {
	m := &segment{
		n:       a.n + b.n,
		buckets: make(map[string][]int32, len(a.buckets)+len(b.buckets)),
		missing: slices.Concat(a.missing, b.missing),
		null:    slices.Concat(a.null, b.null),
	}
	size := 0
	for k, rb := range b.buckets {
		if ra, ok := a.buckets[k]; ok {
			size += len(ra) + len(rb)
		} else {
			m.buckets[k] = rb
		}
	}
	arena := make([]int32, 0, size)
	for k, ra := range a.buckets {
		if rb, ok := b.buckets[k]; ok {
			off := len(arena)
			arena = append(append(arena, ra...), rb...)
			ra = arena[off:len(arena):len(arena)]
		}
		m.buckets[k] = ra
	}
	if !ordered {
		return m
	}
	m.keys = make([]value.Value, 0, len(m.buckets))
	m.runs = make([][]int32, 0, len(m.buckets))
	var buf []byte
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		var k value.Value
		if j == len(b.keys) || i < len(a.keys) && value.Compare(a.keys[i], b.keys[j]) <= 0 {
			k, i = a.keys[i], i+1
			buf = value.AppendKey(buf[:0], k)
		} else {
			k, j = b.keys[j], j+1
			buf = value.AppendKey(buf[:0], k)
			if _, dup := a.buckets[string(buf)]; dup {
				continue // a's representative stands for the key
			}
		}
		m.keys = append(m.keys, k)
		m.runs = append(m.runs, m.buckets[string(buf)])
	}
	return m
}

// comparisonClass buckets a value by the data model's comparison class
// (the same ranking value.Compare orders classes by). Values in
// different classes never satisfy an ordering comparison.
func comparisonClass(v value.Value) int {
	switch v.Kind() {
	case value.KindMissing:
		return 0
	case value.KindNull:
		return 1
	case value.KindBool:
		return 2
	case value.KindInt, value.KindFloat:
		return 3
	case value.KindString:
		return 4
	case value.KindBytes:
		return 5
	case value.KindArray:
		return 6
	case value.KindTuple:
		return 7
	default:
		return 8
	}
}

// scalarClass reports whether ordering comparisons can be TRUE for
// operands of the class: the evaluator only orders scalars.
func scalarClass(c int) bool { return c >= 2 && c <= 5 }
