package index_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sqlpp/internal/eval"
	"sqlpp/internal/index"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

func mustBuild(t *testing.T, spec index.Spec, src value.Value) *index.Index {
	t.Helper()
	ix, err := index.Build(spec, src, nil)
	if err != nil {
		t.Fatalf("Build(%v): %v", spec, err)
	}
	return ix
}

func positionsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bruteEq returns the ascending positions whose extracted key is
// grouping-equal to key (and not MISSING/NULL).
func bruteEq(elems []value.Value, path []string, key value.Value) []int32 {
	var out []int32
	want := value.Key(key)
	for i, e := range elems {
		k := index.Extract(e, path)
		if k.Kind() == value.KindMissing || k.Kind() == value.KindNull {
			continue
		}
		if value.Key(k) == want {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestExtractMirrorsNavigation pins the key extractor to permissive
// dot-navigation semantics.
func TestExtractMirrorsNavigation(t *testing.T) {
	tup := sion.MustParse(`{'a': {'b': 3}, 'n': null, 's': 'x'}`)
	cases := []struct {
		path []string
		want value.Value
	}{
		{[]string{"a", "b"}, value.Int(3)},
		{[]string{"a", "zz"}, value.Missing}, // absent attribute
		{[]string{"a", "zz", "deep"}, value.Missing},
		{[]string{"n"}, value.Null},
		{[]string{"n", "b"}, value.Null},    // NULL propagates
		{[]string{"s", "b"}, value.Missing}, // type fault → MISSING
		{[]string{"zz"}, value.Missing},
	}
	for _, tc := range cases {
		got := index.Extract(tup, tc.path)
		if !value.Equivalent(got, tc.want) {
			t.Errorf("Extract(%v) = %s, want %s", tc.path, got, tc.want)
		}
	}
}

// TestBuildSlotAccounting: every element lands in exactly one of the
// keyed buckets, the MISSING slot, or the NULL slot.
func TestBuildSlotAccounting(t *testing.T) {
	src := sion.MustParse(`{{
	  {'id': 1}, {'id': 1.0}, {'id': 'one'}, {'id': null}, {'x': 9}, {'id': [1,2]}
	}}`)
	ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"id"}}, src)
	if ix.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ix.Len())
	}
	keys, missing, null := ix.Slots()
	// 1 and 1.0 collide under grouping equality; 'one' and [1,2] are
	// distinct keys; null and the absent attribute fill the slots.
	if keys != 3 || missing != 1 || null != 1 {
		t.Errorf("Slots = (%d,%d,%d), want (3,1,1)", keys, missing, null)
	}
	if got := ix.Lookup(value.Int(1)); !positionsEqual(got, []int32{0, 1}) {
		t.Errorf("Lookup(1) = %v, want [0 1] (1 and 1.0 grouping-equal)", got)
	}
	if got := ix.Lookup(value.Float(1)); !positionsEqual(got, []int32{0, 1}) {
		t.Errorf("Lookup(1.0) = %v, want [0 1]", got)
	}
	if got := ix.Lookup(value.String("one")); !positionsEqual(got, []int32{2}) {
		t.Errorf("Lookup('one') = %v, want [2]", got)
	}
	if got := ix.Lookup(value.String("absent")); got != nil {
		t.Errorf("Lookup(absent key) = %v, want nil", got)
	}
	// Absent keys are never probe candidates.
	if got := ix.Lookup(value.Null); got != nil {
		t.Errorf("Lookup(null) = %v, want nil", got)
	}
	if got := ix.Lookup(value.Missing); got != nil {
		t.Errorf("Lookup(missing) = %v, want nil", got)
	}
}

// TestBuildNestedPathAndArraySource: nested key paths over an array
// source; positions are the array ordinals.
func TestBuildNestedPathAndArraySource(t *testing.T) {
	src := sion.MustParse(`[
	  {'addr': {'zip': 92697}},
	  {'addr': {'zip': 10001}},
	  {'addr': {'city': 'nyc'}},
	  {'addr': {'zip': 92697}}
	]`)
	ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"addr", "zip"}, Kind: index.Ordered}, src)
	if got := ix.Lookup(value.Int(92697)); !positionsEqual(got, []int32{0, 3}) {
		t.Errorf("Lookup(92697) = %v, want [0 3]", got)
	}
	_, missing, _ := func() (int, int, int) { k, m, n := ix.Slots(); return k, m, n }()
	if missing != 1 {
		t.Errorf("missing slot = %d, want 1 (element without zip)", missing)
	}
}

// TestBuildRejectsNonCollections: scalars and tuples are not indexable
// sources.
func TestBuildRejectsNonCollections(t *testing.T) {
	for _, src := range []string{`1`, `'s'`, `{'a': 1}`} {
		_, err := index.Build(index.Spec{Name: "ix", Collection: "c", Path: []string{"a"}}, sion.MustParse(src), nil)
		if err == nil {
			t.Errorf("Build over %s: want error, got nil", src)
		}
	}
	_, err := index.Build(index.Spec{Name: "ix", Collection: "c", Path: nil}, sion.MustParse(`{{}}`), nil)
	if err == nil {
		t.Error("Build with empty path: want error, got nil")
	}
}

// TestRangeAgainstBruteForce sweeps randomized range probes over a
// heterogeneous ordered index and cross-checks every candidate set
// against a brute-force scan restricted to the bound's comparison
// class (the evaluator's own range semantics: ordering comparisons
// are only TRUE within one class).
func TestRangeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var elems []value.Value
	for i := 0; i < 400; i++ {
		var key value.Value
		switch rng.Intn(6) {
		case 0:
			key = value.Int(int64(rng.Intn(40)))
		case 1:
			key = value.Float(float64(rng.Intn(40)) + 0.5)
		case 2:
			key = value.String(string(rune('a' + rng.Intn(26))))
		case 3:
			key = value.Null
		case 4:
			key = value.Bool(rng.Intn(2) == 0)
		default:
			key = value.Missing
		}
		t0 := value.EmptyTuple()
		t0.Put("pos", value.Int(int64(i)))
		if key.Kind() != value.KindMissing {
			t0.Put("k", key)
		}
		elems = append(elems, t0)
	}
	src := value.Bag(elems)
	path := []string{"k"}
	ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: path, Kind: index.Ordered}, src)

	brute := func(lo, hi value.Value, loIncl, hiIncl bool) []int32 {
		var out []int32
		for i, e := range elems {
			k := index.Extract(e, path)
			if k.Kind() == value.KindMissing || k.Kind() == value.KindNull {
				continue
			}
			if lo != nil {
				c := value.Compare(k, lo)
				if c < 0 || (c == 0 && !loIncl) {
					continue
				}
			}
			if hi != nil {
				c := value.Compare(k, hi)
				if c > 0 || (c == 0 && !hiIncl) {
					continue
				}
			}
			out = append(out, int32(i))
		}
		return out
	}

	bound := func() value.Value {
		if rng.Intn(2) == 0 {
			return value.Int(int64(rng.Intn(40)))
		}
		return value.String(string(rune('a' + rng.Intn(26))))
	}
	for trial := 0; trial < 300; trial++ {
		lo, hi := bound(), bound()
		if value.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		got, err := ix.Range(lo, hi, loIncl, hiIncl, nil)
		if err != nil {
			t.Fatalf("Range(%s,%s): %v", lo, hi, err)
		}
		if value.Compare(lo, hi) != 0 || comparableClass(lo) == comparableClass(hi) {
			// Mixed-class bounds: the index must return no candidates
			// (the evaluator's range over them is empty too).
			if comparableClass(lo) != comparableClass(hi) {
				if got != nil {
					t.Fatalf("Range(%s,%s) across classes = %v, want nil", lo, hi, got)
				}
				continue
			}
		}
		want := brute(lo, hi, loIncl, hiIncl)
		if !positionsEqual(got, want) {
			t.Fatalf("Range(%s..%s incl %v,%v) = %v, want %v", lo, hi, loIncl, hiIncl, got, want)
		}
	}

	// Equality probes on the same index cross-check the buckets.
	for trial := 0; trial < 100; trial++ {
		k := bound()
		if got, want := ix.Lookup(k), bruteEq(elems, path, k); !positionsEqual(got, want) {
			t.Fatalf("Lookup(%s) = %v, want %v", k, got, want)
		}
	}

	// Range on a hash index is an error, not a wrong answer.
	hash := mustBuild(t, index.Spec{Name: "h", Collection: "c", Path: path}, src)
	if _, err := hash.Range(value.Int(1), value.Int(5), true, true, nil); err == nil {
		t.Error("Range over hash index: want error, got nil")
	}
}

// comparableClass mirrors the comparison classes used by the range
// scan: bools, numbers, and strings order only within their own class.
func comparableClass(v value.Value) int {
	switch v.Kind() {
	case value.KindBool:
		return 1
	case value.KindInt, value.KindFloat:
		return 2
	case value.KindString:
		return 3
	}
	return 0
}

// agreeWithFresh checks ix against a fresh Build over src: Len, Slots,
// Lookup of every probe, and for ordered indexes Range between probes,
// closed, open and one-sided, from every third probe.
func agreeWithFresh(t *testing.T, ix *index.Index, src value.Value, probes []value.Value) {
	t.Helper()
	fresh := mustBuild(t, ix.Spec(), src)
	if ix.Len() != fresh.Len() {
		t.Fatalf("Len %d vs fresh %d", ix.Len(), fresh.Len())
	}
	ik, im, in := ix.Slots()
	fk, fm, fn := fresh.Slots()
	if ik != fk || im != fm || in != fn {
		t.Fatalf("Slots (%d,%d,%d) vs fresh (%d,%d,%d)", ik, im, in, fk, fm, fn)
	}
	for _, k := range probes {
		if got, want := ix.Lookup(k), fresh.Lookup(k); !positionsEqual(got, want) {
			t.Fatalf("Lookup(%s) %v vs fresh %v", k, got, want)
		}
	}
	if ix.Spec().Kind != index.Ordered {
		return
	}
	for i := 0; i < len(probes); i += 3 {
		lo, hi := probes[i], probes[(i*7+4)%len(probes)]
		for _, b := range [][2]value.Value{{lo, hi}, {lo, nil}, {nil, hi}} {
			loIncl, hiIncl := i&1 == 0, i&2 == 0
			got, err1 := ix.Range(b[0], b[1], loIncl, hiIncl, nil)
			want, err2 := fresh.Range(b[0], b[1], loIncl, hiIncl, nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("Range(%v, %v) errs %v %v", b[0], b[1], err1, err2)
			}
			if !positionsEqual(got, want) {
				t.Fatalf("Range(%v, %v, %v, %v) %v vs fresh %v", b[0], b[1], loIncl, hiIncl, got, want)
			}
		}
	}
}

// TestExtendedMatchesFreshBuild: incremental extension over random
// batches must be indistinguishable from rebuilding over the merged
// collection, for both kinds. Sixty batches of 1–300 rows cascade
// segment merges, and 1 vs 1.0 keys collide across segments.
func TestExtendedMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(n, base int) []value.Value {
		var out []value.Value
		for i := 0; i < n; i++ {
			t0 := value.EmptyTuple()
			switch rng.Intn(5) {
			case 0:
				t0.Put("k", value.Int(int64(rng.Intn(20))))
			case 1:
				t0.Put("k", value.Float(float64(rng.Intn(20))))
			case 2:
				t0.Put("k", value.String(string(rune('a'+rng.Intn(6)))))
			case 3:
				t0.Put("k", value.Null)
			default: // no k attribute → MISSING key
			}
			t0.Put("pos", value.Int(int64(base+i)))
			out = append(out, t0)
		}
		return out
	}
	probes := []value.Value{value.Null, value.Missing, value.True, value.Float(2.5), value.String("zz")}
	for i := 0; i < 20; i++ {
		probes = append(probes, value.Int(int64(i)), value.Float(float64(i)))
	}
	for c := 'a'; c < 'a'+6; c++ {
		probes = append(probes, value.String(string(c)))
	}

	for _, kind := range []index.Kind{index.Hash, index.Ordered} {
		elems := mk(100, 0)
		ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}, Kind: kind}, value.Bag(elems))
		for batch := 0; batch < 60; batch++ {
			add := mk(1+rng.Intn(300), len(elems))
			elems = append(elems, add...)
			merged := value.Bag(elems)
			var err error
			ix, err = ix.Extended(merged, add, nil)
			if err != nil {
				t.Fatalf("%v Extended batch %d: %v", kind, batch, err)
			}
			agreeWithFresh(t, ix, merged, probes)
			// The logarithmic method keeps segments strictly shrinking,
			// oldest first.
			sizes := index.SegmentSizes(ix)
			for i := 1; i < len(sizes); i++ {
				if sizes[i-1] <= sizes[i] {
					t.Fatalf("%v batch %d: segment sizes %v not strictly decreasing", kind, batch, sizes)
				}
			}
		}
	}
}

// rowsFrom returns n tuples {'k': i} for i from lo.
func rowsFrom(lo, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		t0 := value.EmptyTuple()
		t0.Put("k", value.Int(int64(lo+i)))
		out[i] = t0
	}
	return out
}

var lookupSink []int32

// TestLookupAllocatesNothing: a probe encodes its key on the stack, and
// a key held by one segment returns that segment's run.
func TestLookupAllocatesNothing(t *testing.T) {
	for _, kind := range []index.Kind{index.Hash, index.Ordered} {
		elems := rowsFrom(0, 4)
		ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}, Kind: kind}, value.Bag(elems))
		for _, n := range []int{2, 1} {
			add := rowsFrom(len(elems), n)
			elems = append(elems, add...)
			var err error
			if ix, err = ix.Extended(value.Bag(elems), add, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := index.SegmentSizes(ix); !slices.Equal(got, []int{4, 2, 1}) {
			t.Fatalf("%v: segment sizes %v, want [4 2 1]", kind, got)
		}
		var key value.Value = value.Int(5)
		if got := ix.Lookup(key); !positionsEqual(got, []int32{5}) {
			t.Fatalf("%v: Lookup(5) = %v, want [5]", kind, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { lookupSink = ix.Lookup(key) }); allocs != 0 {
			t.Errorf("%v: Lookup allocates %.0f times per probe, want 0", kind, allocs)
		}
	}
}

// TestExtendedRejectsWrongSource: the source must be the old snapshot
// plus exactly the appended elements.
func TestExtendedRejectsWrongSource(t *testing.T) {
	elems := rowsFrom(0, 3)
	ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}}, value.Bag(elems))
	add := rowsFrom(3, 2)
	for _, src := range []value.Value{value.Bag(elems), value.Bag(append(elems[:3:3], add[0])), value.Int(5)} {
		if _, err := ix.Extended(src, add, nil); err == nil {
			t.Errorf("Extended over %d-element source %s: want error, got nil", ix.Len(), src)
		}
	}
}

// TestExtendedChargesEachAppendOnce: every appended element is charged
// exactly once, and merging older segments charges nothing.
func TestExtendedChargesEachAppendOnce(t *testing.T) {
	elems := rowsFrom(0, 8)
	ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}, Kind: index.Ordered}, value.Bag(elems))
	for batch := 0; batch < 24; batch++ {
		add := rowsFrom(len(elems), 2+batch%5)
		elems = append(elems, add...)
		src := value.Bag(elems)
		short := eval.NewGovernor(eval.Limits{MaxMaterializedValues: int64(len(add) - 1)})
		if _, err := ix.Extended(src, add, short); err == nil {
			t.Fatalf("batch %d: a budget one short of %d rows was enough", batch, len(add))
		}
		exact := eval.NewGovernor(eval.Limits{MaxMaterializedValues: int64(len(add))})
		var err error
		if ix, err = ix.Extended(src, add, exact); err != nil {
			t.Fatalf("batch %d (segments %v): %v", batch, index.SegmentSizes(ix), err)
		}
	}
}

// TestExtendedDoesNotMutateOriginal: the pre-extension snapshot keeps
// answering from its own positions after Extended returns.
func TestExtendedDoesNotMutateOriginal(t *testing.T) {
	src := sion.MustParse(`{{ {'k': 1}, {'k': 2} }}`)
	ix := mustBuild(t, index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}, Kind: index.Ordered}, src)
	add := []value.Value{sion.MustParse(`{'k': 1}`), sion.MustParse(`{'k': 3}`)}
	merged := sion.MustParse(`{{ {'k': 1}, {'k': 2}, {'k': 1}, {'k': 3} }}`)
	nx, err := ix.Extended(merged, add, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(value.Int(1)); !positionsEqual(got, []int32{0}) {
		t.Errorf("original Lookup(1) changed: %v", got)
	}
	if got := nx.Lookup(value.Int(1)); !positionsEqual(got, []int32{0, 2}) {
		t.Errorf("extended Lookup(1) = %v, want [0 2]", got)
	}
	if got := ix.Lookup(value.Int(3)); got != nil {
		t.Errorf("original sees the extension's key: %v", got)
	}
	if r, _ := ix.Range(value.Int(1), value.Int(3), true, true, nil); !positionsEqual(r, []int32{0, 1}) {
		t.Errorf("original Range changed: %v", r)
	}
}

// TestBuildChargesGovernor: index construction competes for the
// materialized-values budget and fails typed when it exceeds it.
func TestBuildChargesGovernor(t *testing.T) {
	var elems []value.Value
	for i := 0; i < 100; i++ {
		t0 := value.EmptyTuple()
		t0.Put("k", value.Int(int64(i)))
		elems = append(elems, t0)
	}
	gov := eval.NewGovernor(eval.Limits{MaxMaterializedValues: 10})
	_, err := index.Build(index.Spec{Name: "ix", Collection: "c", Path: []string{"k"}}, value.Bag(elems), gov)
	var re *eval.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want ResourceError from governed build, got %v", err)
	}
	if re.Site != "index-build" {
		t.Errorf("charge site = %q, want index-build", re.Site)
	}
}
