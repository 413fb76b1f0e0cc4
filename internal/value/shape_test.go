package value

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func TestShapeTransitionsAreCanonical(t *testing.T) {
	a := ShapeOf("id", "name", "id")
	if b := ShapeOf("id").With("name").WithBytes([]byte("id")); a != b {
		t.Error("the same name sequence reached two shapes")
	}
	if a == ShapeOf("id", "name") || a == ShapeOf("name", "id", "id") {
		t.Error("different name sequences share a shape")
	}
	if got := fmt.Sprint(a.names); got != "[id name id]" {
		t.Errorf("names = %s", got)
	}
	if ShapeOf() != EmptyTuple().Shape() || len(ShapeOf().names) != 0 {
		t.Error("the empty tuple does not have the empty shape")
	}
	// Siblings must not see each other's last name through a shared
	// backing array.
	base := ShapeOf("p", "q")
	x, y := base.With("x"), base.With("y")
	if x.names[2] != "x" || y.names[2] != "y" || len(base.names) != 2 {
		t.Errorf("sibling shapes overlap: %v %v %v", base.names, x.names, y.names)
	}
}

// routes builds the logical tuple {a:1, b:'x', c:[2]} along every
// mutation path the API has.
func routes() map[string]*Tuple {
	a, b, c := Value(Int(1)), Value(String("x")), Value(Array{Int(2)})
	put := EmptyTuple()
	put.Put("a", a)
	put.Put("b", b)
	put.Put("c", c)
	reversed := EmptyTuple()
	reversed.Put("c", c)
	reversed.Put("b", b)
	reversed.Put("a", a)
	set := NewTuple(Field{"a", Null}, Field{"c", c})
	set.Set("b", b)
	set.Set("a", a)
	deleted := NewTuple(Field{"z", True}, Field{"a", a}, Field{"z", False}, Field{"b", b}, Field{"c", c})
	deleted.Delete("z")
	viaMissing := NewTuple(Field{"a", a}, Field{"m", True}, Field{"b", b}, Field{"c", c})
	viaMissing.Set("m", Missing)
	return map[string]*Tuple{
		"put":      put,
		"reversed": reversed,
		"set":      set,
		"delete":   deleted,
		"missing":  viaMissing,
		"shaped":   ShapeOf("a", "b", "c").New([]Value{a, b, c}),
		"sparse":   ShapeOf("m1", "a", "m2", "b", "c", "m3").New([]Value{Missing, a, Missing, b, c, Missing}),
		"clone":    Clone(put).(*Tuple),
	}
}

func TestTupleRoutesAreIndistinguishable(t *testing.T) {
	all := routes()
	want := all["put"]
	for name, got := range all {
		if !Equivalent(got, want) || Compare(got, want) != 0 || Compare(want, got) != 0 || Key(got) != Key(want) {
			t.Errorf("%s: %v is not the same tuple as %v", name, got, want)
		}
		if v, ok := got.Get("b"); !ok || v != String("x") {
			t.Errorf("%s: Get(b) = %v, %v", name, v, ok)
		}
		if _, ok := got.Get("m"); ok || got.Len() != 3 {
			t.Errorf("%s: has %d attributes: %v", name, got.Len(), got)
		}
		if ApproxSize(got) != ApproxSize(want) {
			t.Errorf("%s: ApproxSize %d, want %d", name, ApproxSize(got), ApproxSize(want))
		}
	}
	for _, name := range []string{"put", "delete", "missing", "shaped", "sparse", "clone"} {
		if got := all[name]; got.Shape() != want.Shape() || !DeepEqual(got, want) || got.String() != want.String() {
			t.Errorf("%s: same names in the same order, but shape or rendering differs: %v", name, got)
		}
	}
}

// A tuple with a repeated name orders the repeats by value, whatever
// order they were inserted in; Get resolves to the first occurrence.
func TestDuplicateNamesKeepValueTieBreak(t *testing.T) {
	x := NewTuple(Field{"k", Int(2)}, Field{"a", Null}, Field{"k", Int(1)})
	y := NewTuple(Field{"k", Int(1)}, Field{"k", Int(2)}, Field{"a", Null})
	if Compare(x, y) != 0 || Key(x) != Key(y) {
		t.Errorf("%v and %v hold the same attributes", x, y)
	}
	if v, _ := x.Get("k"); v != Int(2) {
		t.Errorf("Get(k) = %v, want the first occurrence", v)
	}
	z := NewTuple(Field{"k", Int(1)}, Field{"k", Int(3)}, Field{"a", Null})
	if Compare(x, z) >= 0 || Key(x) == Key(z) {
		t.Errorf("%v should sort before %v", x, z)
	}
}

func TestShapeHitPathDoesNotAllocate(t *testing.T) {
	shape := ShapeOf("id", "name", "salary")
	keys := [][]byte{[]byte("id"), []byte("name"), []byte("salary")}
	if n := testing.AllocsPerRun(100, func() {
		s := rootShape
		for _, k := range keys {
			s = s.WithBytes(k)
		}
		if s != shape {
			t.Fatal("walk missed")
		}
	}); n != 0 {
		t.Errorf("walking a known shape by []byte keys: %.0f allocations, want 0", n)
	}
	vals := []Value{True, False, Null}
	if n := testing.AllocsPerRun(100, func() { _ = shape.New(vals) }); n != 1 {
		t.Errorf("Shape.New: %.0f allocations, want 1 (the tuple header)", n)
	}
	a, b := shape.New(vals), shape.New(vals)
	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendKey(buf[:0], a)
		_ = Compare(a, b)
	}); n != 0 {
		t.Errorf("keying and comparing same-shaped tuples: %.0f allocations, want 0", n)
	}
}

// Hostile input — more distinct key sets than any collection has — must
// not grow the shape tree past its bound: the tree empties and starts
// over, the tuples built on either side of that are correct, and sharing
// resumes.
func TestShapeTreeIsBounded(t *testing.T) {
	tableBytes := func() int {
		shapeMu.Lock()
		defer shapeMu.Unlock()
		return shapeTableBytes
	}
	gen := shapeGen.Load()
	held := ShapeOf("hostile", "held") // in use across every emptying
	peak := 0
	for i := 0; i < 100_000; i++ {
		names := []string{"hostile", "k" + strconv.Itoa(i), "v" + strconv.Itoa(i%7)}
		tup := ShapeOf(names...).New([]Value{Int(int64(i)), Null, True})
		ref := NewTuple(Field{names[2], True}, Field{names[0], Int(int64(i))}, Field{names[1], Null})
		if v, ok := tup.Get(names[1]); !ok || v != Null || Compare(tup, ref) != 0 || Key(tup) != Key(ref) {
			t.Fatalf("tuple %d is wrong: %v vs %v", i, tup, ref)
		}
		peak = max(peak, tableBytes())
	}
	if peak > maxShapeTableBytes {
		t.Errorf("shape tree held %d bytes, bound is %d", peak, maxShapeTableBytes)
	}
	if shapeGen.Load() == gen {
		t.Errorf("100000 key sets (peak %d bytes) never filled the tree: the test no longer reaches the bound", peak)
	}
	if held.kids.Load() != nil || held.inTree() {
		t.Error("a shape in use kept its subtree through an emptying")
	}
	old := held.New([]Value{Int(1), Int(2)})
	if fresh := ShapeOf("hostile", "held"); fresh == held || fresh != ShapeOf("hostile", "held") ||
		Compare(old, fresh.New([]Value{Int(1), Int(2)})) != 0 {
		t.Error("sharing did not resume, invisibly, after the tree was emptied")
	}
	// One very wide tuple built outside the tree costs its own names, not
	// their square.
	wide := held.New([]Value{Int(1), Int(2)})
	for i := 0; i < 50_000; i++ {
		wide.Put("w"+strconv.Itoa(i), Int(int64(i)))
	}
	if v, ok := wide.Get("w49999"); !ok || v != Int(49999) || wide.Len() != 50_002 {
		t.Errorf("wide tuple lost attributes: len %d", wide.Len())
	}
}

// A row's names cost the tree in proportion to their number (the prefix
// shapes on the way share one name array and never sort it), and a
// shape's name order counts against the bound from when it is computed.
func TestShapeChainCostIsLinear(t *testing.T) {
	tableBytes := func() int {
		shapeMu.Lock()
		defer shapeMu.Unlock()
		return shapeTableBytes
	}
	shapeMu.Lock()
	emptyShapeTree()
	shapeMu.Unlock()
	const width = 4000
	names := make([]string, width)
	for i := range names {
		names[i] = "wide" + strconv.Itoa(i)
	}
	gen := shapeGen.Load()
	s := ShapeOf(names...)
	perName := tableBytes() / width
	if perName > 256 || shapeGen.Load() != gen {
		t.Errorf("a chain of %d names is charged %d bytes a name (tree emptied: %v)", width, perName, shapeGen.Load() != gen)
	}
	before := tableBytes()
	vals := make([]Value, width)
	for i := range vals {
		vals[i] = Int(int64(i))
	}
	_ = Key(s.New(vals))
	_ = Key(s.New(vals))
	if got := tableBytes() - before; got != 4*width {
		t.Errorf("keying tuples of a %d-name shape charged %d bytes, want %d once", width, got, 4*width)
	}
	if ShapeOf(names...) != s {
		t.Error("the wide shape left the tree")
	}
}

// Concurrent constructors racing through transitions nobody has taken yet
// must agree on every shape. Run with -race.
func TestShapeConcurrentColdTransitions(t *testing.T) {
	shapeMu.Lock()
	emptyShapeTree() // so that the bound is not met mid-test
	shapeMu.Unlock()
	const workers, seqs = 8, 400
	prefix := "cold" + strconv.Itoa(rand.Int())
	names := func(i int) []string {
		r := rand.New(rand.NewSource(int64(i)))
		out := []string{prefix}
		for n := 1 + r.Intn(6); n > 0; n-- {
			out = append(out, "a"+strconv.Itoa(r.Intn(5)))
		}
		return out
	}
	got := make([][]*Shape, workers)
	var wg sync.WaitGroup
	for w := range got {
		w := w
		got[w] = make([]*Shape, seqs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(seqs) {
				tup := EmptyTuple()
				for _, n := range names(i) {
					tup.Put(n, Int(int64(i)))
				}
				_ = Key(tup) // the cached order is built under the same race
				got[w][i] = tup.Shape()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < seqs; i++ {
		want := ShapeOf(names(i)...)
		for w := range got {
			if got[w][i] != want {
				t.Fatalf("worker %d reached a different shape for %v", w, names(i))
			}
		}
	}
}
