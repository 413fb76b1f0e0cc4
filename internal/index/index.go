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
// Extended, which returns a copy-on-write successor, so concurrent
// readers of the old version never observe a mutation.
package index

import (
	"fmt"
	"math"
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
// order.
type Index struct {
	spec Spec
	src  value.Value // the collection snapshot the positions refer to
	n    int         // elements covered

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
	return len(ix.buckets), len(ix.missing), len(ix.null)
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
//
// governor: every accumulated entry is charged in insertBuild.
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
	ix := &Index{spec: spec, src: src, buckets: make(map[string][]int32)}
	var keyBuf []byte
	for i, e := range elems {
		if err := ix.insertBuild(int32(i), e, &keyBuf, gov); err != nil {
			return nil, err
		}
	}
	ix.n = len(elems)
	if spec.Kind == Ordered {
		// Each bucket's first position names its representative key.
		ix.keys = make([]value.Value, 0, len(ix.buckets))
		ix.runs = make([][]int32, 0, len(ix.buckets))
		for _, run := range ix.buckets {
			ix.keys = append(ix.keys, Extract(elems[run[0]], spec.Path))
			ix.runs = append(ix.runs, run)
		}
		sort.Sort(byKey{ix})
	}
	return ix, nil
}

// byKey sorts an ordered index's keys, and their runs with them.
type byKey struct{ *Index }

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return value.Compare(b.keys[i], b.keys[j]) < 0 }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.runs[i], b.runs[j] = b.runs[j], b.runs[i]
}

// insertBuild files one element during a full build, encoding its key
// into the reused *keyBuf.
func (ix *Index) insertBuild(pos int32, elem value.Value, keyBuf *[]byte, gov *eval.Governor) error {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.IndexBuildInsert); err != nil {
			return fmt.Errorf("index %s: build: %w", ix.spec.Name, err)
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
		ix.missing = append(ix.missing, pos)
	case value.KindNull:
		ix.null = append(ix.null, pos)
	default:
		*keyBuf = value.AppendKey((*keyBuf)[:0], key)
		if run, ok := ix.buckets[string(*keyBuf)]; ok {
			ix.buckets[string(*keyBuf)] = append(run, pos)
		} else {
			ix.buckets[string(*keyBuf)] = []int32{pos}
		}
	}
	return nil
}

// Lookup returns the ascending positions whose key is grouping-equal to
// key. An absent (MISSING or NULL) probe key matches nothing: equality
// against an absent value never evaluates to TRUE. The returned slice
// is shared with the index and must not be mutated.
func (ix *Index) Lookup(key value.Value) []int32 {
	if value.IsAbsent(key) {
		return nil
	}
	return ix.buckets[value.Key(key)]
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
	// Narrow to the class segment of keys, then to the bound window.
	a := sort.Search(len(ix.keys), func(i int) bool { return comparisonClass(ix.keys[i]) >= class })
	b := a + sort.Search(len(ix.keys)-a, func(i int) bool { return comparisonClass(ix.keys[a+i]) > class })
	if lo != nil {
		a += sort.Search(b-a, func(i int) bool {
			c := value.Compare(ix.keys[a+i], lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	if hi != nil {
		b = a + sort.Search(b-a, func(i int) bool {
			c := value.Compare(ix.keys[a+i], hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if a >= b {
		return nil, nil
	}
	var out []int32
	for _, run := range ix.runs[a:b] {
		if gov != nil {
			if err := gov.ChargeValues("index-probe", int64(len(run)), nil); err != nil {
				return nil, err
			}
		}
		out = append(out, run...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Extended returns a new index covering src, which must be the previous
// snapshot with elems appended; the receiver is unchanged. Untouched
// buckets and runs are shared with the receiver (copy-on-write), so an
// append of k elements costs O(k·log n + distinct keys), not a rebuild.
func (ix *Index) Extended(src value.Value, elems []value.Value, gov *eval.Governor) (*Index, error) {
	if ix.n+len(elems) > math.MaxInt32 {
		return nil, fmt.Errorf("index %s: collection %s exceeds %d elements", ix.spec.Name, ix.spec.Collection, math.MaxInt32)
	}
	nx := &Index{
		spec:    ix.spec,
		src:     src,
		n:       ix.n,
		buckets: make(map[string][]int32, len(ix.buckets)),
		missing: ix.missing,
		null:    ix.null,
	}
	for k, run := range ix.buckets {
		nx.buckets[k] = run
	}
	if ix.spec.Kind == Ordered {
		nx.keys = append([]value.Value(nil), ix.keys...)
		nx.runs = append([][]int32(nil), ix.runs...)
	}
	owned := map[string]bool{}
	ownedAbsent := [2]bool{}
	for _, e := range elems {
		if err := nx.insertExtend(int32(nx.n), e, owned, &ownedAbsent, gov); err != nil {
			return nil, err
		}
		nx.n++
	}
	return nx, nil
}

// insertExtend files one appended element copy-on-write: the first
// touch of a bucket, run, or absent slot reallocates it so the base
// index's slices are never appended to in place.
func (nx *Index) insertExtend(pos int32, elem value.Value, owned map[string]bool, ownedAbsent *[2]bool, gov *eval.Governor) error {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.IndexBuildInsert); err != nil {
			return fmt.Errorf("index %s: extend: %w", nx.spec.Name, err)
		}
	}
	key := Extract(elem, nx.spec.Path)
	if gov != nil {
		if err := gov.ChargeValues("index-build", 1, key); err != nil {
			return err
		}
	}
	switch key.Kind() {
	case value.KindMissing:
		if !ownedAbsent[0] {
			nx.missing = append([]int32(nil), nx.missing...)
			ownedAbsent[0] = true
		}
		nx.missing = append(nx.missing, pos)
		return nil
	case value.KindNull:
		if !ownedAbsent[1] {
			nx.null = append([]int32(nil), nx.null...)
			ownedAbsent[1] = true
		}
		nx.null = append(nx.null, pos)
		return nil
	}
	ks := value.Key(key)
	run, existed := nx.buckets[ks]
	if !owned[ks] {
		run = append(append(make([]int32, 0, len(run)+1), run...), pos)
		owned[ks] = true
	} else {
		run = append(run, pos)
	}
	nx.buckets[ks] = run
	if nx.spec.Kind != Ordered {
		return nil
	}
	if existed {
		// The ordered run for this key must track the bucket: both
		// views share the probeable positions.
		i := sort.Search(len(nx.keys), func(i int) bool { return value.Compare(nx.keys[i], key) >= 0 })
		for ; i < len(nx.keys); i++ {
			if value.Key(nx.keys[i]) == ks {
				nx.runs[i] = run
				return nil
			}
			if value.Compare(nx.keys[i], key) != 0 {
				break
			}
		}
		return fmt.Errorf("index %s: internal: bucket %q missing from ordered runs", nx.spec.Name, ks)
	}
	i := sort.Search(len(nx.keys), func(i int) bool { return value.Compare(nx.keys[i], key) >= 0 })
	nx.keys = append(nx.keys, nil)
	copy(nx.keys[i+1:], nx.keys[i:])
	nx.keys[i] = key
	nx.runs = append(nx.runs, nil)
	copy(nx.runs[i+1:], nx.runs[i:])
	nx.runs[i] = run
	return nil
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
