package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sqlpp/internal/value"
)

// row builds a one-level tuple from alternating name/value pairs.
func row(pairs ...any) value.Value {
	t := value.EmptyTuple()
	for i := 0; i < len(pairs); i += 2 {
		t.Put(pairs[i].(string), pairs[i+1].(value.Value))
	}
	return t
}

func mustBuild(t *testing.T, src value.Value) *Collection {
	t.Helper()
	c, err := Build(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBuildBasicCounts locks the exact bookkeeping on a collection small
// enough that nothing is estimated: cardinality, per-path present/NULL/
// MISSING splits, exact NDV, and per-class min/max.
func TestBuildBasicCounts(t *testing.T) {
	c := mustBuild(t, value.Bag{
		row("a", value.Int(1), "b", value.String("x")),
		row("a", value.Int(2), "b", value.Null),
		row("a", value.Int(1)),
		row("b", value.String("y")),
		row("a", value.Float(2.5), "b", value.String("x")),
	})
	if got := c.Rows(); got != 5 {
		t.Fatalf("rows = %d, want 5", got)
	}
	s := c.Summarize()
	if len(s.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (a, b)", len(s.Paths))
	}
	a, b := s.Paths[0], s.Paths[1]
	if a.Path != "a" || b.Path != "b" {
		t.Fatalf("paths sorted wrong: %q, %q", a.Path, b.Path)
	}
	if a.Present != 4 || a.Null != 0 || a.Missing != 1 {
		t.Errorf("a: present=%d null=%d missing=%d, want 4/0/1", a.Present, a.Null, a.Missing)
	}
	if b.Present != 3 || b.Null != 1 || b.Missing != 1 {
		t.Errorf("b: present=%d null=%d missing=%d, want 3/1/1", b.Present, b.Null, b.Missing)
	}
	if !a.NDVExact || a.NDV != 3 { // 1, 2, 2.5
		t.Errorf("a: ndv=%v exact=%v, want exactly 3", a.NDV, a.NDVExact)
	}
	if len(a.Classes) != 1 || a.Classes[0].Class != "number" {
		t.Fatalf("a classes = %+v, want one number class", a.Classes)
	}
	if a.Classes[0].Min != "1" || a.Classes[0].Max != "2.5" {
		t.Errorf("a number min/max = %s/%s, want 1/2.5", a.Classes[0].Min, a.Classes[0].Max)
	}
	if len(b.Classes) != 1 || b.Classes[0].Class != "string" || b.Classes[0].Rows != 3 {
		t.Errorf("b classes = %+v, want one string class over 3 rows", b.Classes)
	}
}

// TestNDVEstimateSaturated: far past the sketch size, the bottom-k
// estimator must stay within a loose relative error (the theoretical
// standard error at k=256 is ~6%).
func TestNDVEstimateSaturated(t *testing.T) {
	const n = 50000
	elems := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, row("k", value.Int(int64(i))))
	}
	c := mustBuild(t, elems)
	est, ok := c.NDV([]string{"k"})
	if !ok {
		t.Fatal("no NDV for k")
	}
	if est < 0.75*n || est > 1.25*n {
		t.Fatalf("NDV estimate %f for %d distinct values: outside 25%%", est, n)
	}
	if s := c.Summarize(); s.Paths[0].NDVExact {
		t.Fatal("50000 distinct values reported as exact NDV")
	}
}

// TestFractionsExact: with fewer distinct values than the sketch holds,
// equality fractions are exact and range fractions are exact over the
// (complete) sample.
func TestFractionsExact(t *testing.T) {
	const n = 1000
	elems := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, row("g", value.Int(int64(i%10))))
	}
	c := mustBuild(t, elems)
	if frac, ok := c.EqFraction([]string{"g"}, value.Int(5)); !ok || frac != 0.1 {
		t.Errorf("EqFraction(g=5) = %f, %v; want exactly 0.1", frac, ok)
	}
	if frac, ok := c.EqFraction([]string{"g"}, value.Int(42)); !ok || frac != 0 {
		t.Errorf("EqFraction(g=42) = %f, %v; want exactly 0 (absent, unsaturated)", frac, ok)
	}
	frac, ok := c.RangeFraction([]string{"g"}, value.Int(0), value.Int(5), true, false)
	if !ok || frac != 0.5 {
		t.Errorf("RangeFraction(0 <= g < 5) = %f, %v; want exactly 0.5", frac, ok)
	}
}

// TestRangeFractionSampled: saturated sketches estimate range fractions
// from the retained sample; the error must stay in the few-percent range
// binomial sampling predicts.
func TestRangeFractionSampled(t *testing.T) {
	const n = 10000
	elems := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, row("k", value.Int(int64(i))))
	}
	c := mustBuild(t, elems)
	frac, ok := c.RangeFraction([]string{"k"}, value.Int(0), value.Int(n/4), true, false)
	if !ok {
		t.Fatal("no range estimate")
	}
	if math.Abs(frac-0.25) > 0.1 {
		t.Fatalf("RangeFraction over the first quarter = %f, want 0.25 +- 0.1", frac)
	}
}

// TestRangeFractionAllocatesNothing: a range estimate, made on every
// plan of a range predicate, reads the sketch in place — no sorted copy
// of the sample, no joined path key.
func TestRangeFractionAllocatesNothing(t *testing.T) {
	const n = 2000
	elems := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		inner := row("z", value.Int(int64(i%300)))
		elems = append(elems, row("k", value.Int(int64(i)), "s", inner))
	}
	c := mustBuild(t, elems)
	for _, path := range [][]string{{"k"}, {"s", "z"}} {
		if _, ok := c.RangeFraction(path, value.Int(10), value.Int(200), true, false); !ok {
			t.Fatalf("%v: no range estimate", path)
		}
		if n := testing.AllocsPerRun(100, func() {
			c.RangeFraction(path, value.Int(10), value.Int(200), true, false)
		}); n != 0 {
			t.Errorf("%v: RangeFraction allocates %v times, want 0", path, n)
		}
	}
}

// sortedRangeFraction is RangeFraction's reference: the same row-weighted
// sum, taken over the value-sorted sample.
func sortedRangeFraction(c *Collection, path []string, lo, hi value.Value, loIncl, hiIncl bool) (float64, bool) {
	ps := c.lookup(path)
	if ps == nil || c.rows == 0 {
		return 0, false
	}
	cls := -1
	if lo != nil {
		cls = classOf(lo)
	} else if hi != nil {
		cls = classOf(hi)
	}
	if cls < 0 || (lo != nil && hi != nil && classOf(hi) != cls) {
		return 0, false
	}
	var total, matching int64
	for _, e := range ps.sk.sample() {
		if classOf(e.val) != cls {
			continue
		}
		total += e.count
		if lo != nil && (value.Compare(e.val, lo) < 0 || value.Compare(e.val, lo) == 0 && !loIncl) {
			continue
		}
		if hi != nil && (value.Compare(e.val, hi) > 0 || value.Compare(e.val, hi) == 0 && !hiIncl) {
			continue
		}
		matching += e.count
	}
	if total == 0 {
		return 0, true
	}
	return float64(matching) / float64(total) * float64(ps.classes[cls].rows) / float64(c.rows), true
}

// TestRangeFractionMatchesSortedSample: over random sketches of mixed
// classes, saturated or not, every bound pair and inclusivity estimates
// exactly what the sorted-sample computation does.
func TestRangeFractionMatchesSortedSample(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	scalar := func(spread int) value.Value {
		switch r.Intn(6) {
		case 0:
			return value.Float(float64(r.Intn(spread)) / 4)
		case 1:
			return value.String(fmt.Sprintf("s%03d", r.Intn(spread)))
		case 2:
			return value.Bool(r.Intn(2) == 0)
		case 3:
			return value.Null
		default:
			return value.Int(int64(r.Intn(spread)))
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(3000)
		spread := 1 + r.Intn(2000) // above sketchK distinct values, the sketch saturates
		elems := make(value.Bag, 0, n)
		for i := 0; i < n; i++ {
			if r.Intn(10) == 0 {
				elems = append(elems, row("other", value.Int(1))) // k MISSING
				continue
			}
			elems = append(elems, row("k", scalar(spread)))
		}
		c := mustBuild(t, elems)
		for q := 0; q < 50; q++ {
			var lo, hi value.Value
			if r.Intn(4) > 0 {
				lo = scalar(spread)
			}
			if r.Intn(4) > 0 {
				hi = scalar(spread)
			}
			loIncl, hiIncl := r.Intn(2) == 0, r.Intn(2) == 0
			got, gok := c.RangeFraction([]string{"k"}, lo, hi, loIncl, hiIncl)
			want, wok := sortedRangeFraction(c, []string{"k"}, lo, hi, loIncl, hiIncl)
			if got != want || gok != wok {
				t.Fatalf("trial %d: RangeFraction(k, %v, %v, %v, %v) = %v, %v; sorted sample gives %v, %v",
					trial, lo, hi, loIncl, hiIncl, got, gok, want, wok)
			}
		}
	}
}

// TestExtendedCopyOnWrite: extending a snapshot must leave the original
// observably untouched while the extension sees both row sets.
func TestExtendedCopyOnWrite(t *testing.T) {
	elems := make(value.Bag, 0, 100)
	for i := 0; i < 100; i++ {
		elems = append(elems, row("k", value.Int(int64(i)), "tag", value.String("old")))
	}
	old := mustBuild(t, elems)
	before := old.Summarize()

	more := make([]value.Value, 0, 50)
	for i := 100; i < 150; i++ {
		more = append(more, row("k", value.Int(int64(i)), "tag", value.String("new")))
	}
	ext, err := old.Extended(more, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := old.Summarize(); !reflect.DeepEqual(before, got) {
		t.Fatalf("Extended mutated the original snapshot:\nbefore %+v\nafter  %+v", before, got)
	}
	if ext.Rows() != 150 {
		t.Fatalf("extended rows = %d, want 150", ext.Rows())
	}
	if est, ok := ext.NDV([]string{"k"}); !ok || est != 150 {
		t.Fatalf("extended NDV(k) = %f, %v; want exactly 150", est, ok)
	}
	if frac, ok := ext.EqFraction([]string{"tag"}, value.String("new")); !ok || math.Abs(frac-50.0/150) > 1e-9 {
		t.Fatalf("extended EqFraction(tag='new') = %f, %v; want 1/3", frac, ok)
	}
}

// randRows builds a heterogeneous collection: numbers, strings, bools,
// NULLs, absent fields, and a nested tuple path.
func randRows(rng *rand.Rand, n int) []value.Value {
	out := make([]value.Value, 0, n)
	for i := 0; i < n; i++ {
		t := value.EmptyTuple()
		switch rng.Intn(6) {
		case 0:
			t.Put("k", value.Int(int64(rng.Intn(500))))
		case 1:
			t.Put("k", value.Float(rng.Float64()*100))
		case 2:
			t.Put("k", value.String(fmt.Sprintf("s%03d", rng.Intn(300))))
		case 3:
			t.Put("k", value.Bool(rng.Intn(2) == 0))
		case 4:
			t.Put("k", value.Null)
		default: // absent
		}
		if rng.Intn(3) == 0 {
			sub := value.EmptyTuple()
			sub.Put("z", value.Int(int64(rng.Intn(20))))
			t.Put("n", sub)
		}
		out = append(out, t)
	}
	return out
}

// TestPermutedIngestDeterministic: sketch membership depends only on
// hash values and counts are exact for retained values, so the same
// multiset of rows must summarize identically regardless of ingest
// order — including well past saturation.
func TestPermutedIngestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 20; trial++ {
		rows := randRows(rng, 200+rng.Intn(2000))
		perm := make([]value.Value, len(rows))
		for i, j := range rng.Perm(len(rows)) {
			perm[i] = rows[j]
		}
		a := mustBuild(t, value.Bag(rows))
		b := mustBuild(t, value.Bag(perm))
		if sa, sb := a.Summarize(), b.Summarize(); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("trial %d: permuted ingest diverged:\n%+v\nvs\n%+v", trial, sa, sb)
		}
	}
}

// TestMergeCommutes: Merge(a, b) and Merge(b, a) must be observably
// identical, and agree with building over the concatenation.
func TestMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ra := randRows(rng, 100+rng.Intn(800))
		rb := randRows(rng, 100+rng.Intn(800))
		a := mustBuild(t, value.Bag(ra))
		b := mustBuild(t, value.Bag(rb))
		ab := Merge(a, b).Summarize()
		ba := Merge(b, a).Summarize()
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("trial %d: Merge is order-sensitive:\n%+v\nvs\n%+v", trial, ab, ba)
		}
		both := mustBuild(t, value.Bag(append(append([]value.Value{}, ra...), rb...))).Summarize()
		if !reflect.DeepEqual(ab, both) {
			t.Fatalf("trial %d: Merge diverges from building over the union:\n%+v\nvs\n%+v", trial, ab, both)
		}
	}
}

// TestPathBudgetDeterministic: past maxPaths, the retained path set is
// the lexicographically smallest — independent of ingest order.
func TestPathBudgetDeterministic(t *testing.T) {
	n := maxPaths + 20
	wide := value.EmptyTuple()
	for i := n - 1; i >= 0; i-- { // descending insertion order on purpose
		wide.Put(fmt.Sprintf("p%03d", i), value.Int(int64(i)))
	}
	c := mustBuild(t, value.Bag{wide})
	s := c.Summarize()
	if !s.Truncated {
		t.Fatal("path budget overflow not flagged as truncated")
	}
	if len(s.Paths) != maxPaths {
		t.Fatalf("tracked paths = %d, want %d", len(s.Paths), maxPaths)
	}
	if got, want := s.Paths[len(s.Paths)-1].Path, fmt.Sprintf("p%03d", maxPaths-1); got != want {
		t.Fatalf("largest retained path = %s, want %s", got, want)
	}
}

// TestSketchRetainsBottomK: past saturation the sketch holds exactly the
// sketchK smallest hashes seen, whether it grew by add alone, across a
// clone, or by merge, and holds them in ascending order.
func TestSketchRetainsBottomK(t *testing.T) {
	var hashes []uint64
	whole, half := newSketch(), newSketch()
	var ext *sketch
	for i := 0; i < 20*sketchK; i++ {
		v := value.Int(int64(i) * 7919)
		key := value.AppendKey(nil, v)
		hashes = append(hashes, hashKey(key))
		if err := whole.add(v, key, nil); err != nil {
			t.Fatal(err)
		}
		if i == 10*sketchK {
			ext = half.clone()
		}
		if i >= 10*sketchK {
			if err := ext.add(v, key, nil); err != nil {
				t.Fatal(err)
			}
		} else if err := half.add(v, key, nil); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	merged := half.clone()
	rest := newSketch()
	for i := 10 * sketchK; i < 20*sketchK; i++ {
		v := value.Int(int64(i) * 7919)
		if err := rest.add(v, value.AppendKey(nil, v), nil); err != nil {
			t.Fatal(err)
		}
	}
	merged.merge(rest)
	for name, s := range map[string]*sketch{"add": whole, "clone+add": ext, "merge": merged} {
		if len(s.es) != sketchK || !s.saturated {
			t.Fatalf("%s: %d entries, saturated=%v", name, len(s.es), s.saturated)
		}
		for i, h := range hashes[:sketchK] {
			if s.es[i].h != h {
				t.Fatalf("%s: entry %d has hash %d, want the %d-th smallest %d", name, i, s.es[i].h, i, h)
			}
		}
	}
}
