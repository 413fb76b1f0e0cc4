package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValue produces a random SQL++ value of bounded depth for property
// tests.
func genValue(r *rand.Rand, depth int) Value {
	max := 10
	if depth <= 0 {
		max = 7 // scalars only
	}
	switch r.Intn(max) {
	case 0:
		return Missing
	case 1:
		return Null
	case 2:
		return Bool(r.Intn(2) == 0)
	case 3:
		return Int(r.Int63n(2000) - 1000)
	case 4:
		return Float(r.NormFloat64() * 100)
	case 5:
		const letters = "abcde'δ"
		n := r.Intn(6)
		out := make([]rune, n)
		for i := range out {
			out[i] = []rune(letters)[r.Intn(7)]
		}
		return String(out)
	case 6:
		b := make(Bytes, r.Intn(4))
		r.Read(b)
		return b
	case 7:
		n := r.Intn(4)
		out := make(Array, n)
		for i := range out {
			out[i] = genValue(r, depth-1)
		}
		return out
	case 8:
		n := r.Intn(4)
		out := make(Bag, n)
		for i := range out {
			out[i] = genValue(r, depth-1)
		}
		return out
	default:
		t := EmptyTuple()
		for i, n := 0, r.Intn(4); i < n; i++ {
			t.Put(string(rune('a'+r.Intn(4))), nonMissing(r, depth-1))
		}
		return t
	}
}

func nonMissing(r *rand.Rand, depth int) Value {
	for {
		v := genValue(r, depth)
		if v.Kind() != KindMissing {
			return v
		}
	}
}

// genWrap adapts genValue to testing/quick.
type genWrap struct{ V Value }

func (genWrap) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genWrap{V: genValue(r, 3)})
}

func TestCompareKindOrder(t *testing.T) {
	ordered := []Value{
		Missing, Null, False, True, Int(-5), Float(0.5), Int(1),
		String(""), String("a"), Bytes{0}, Array{}, Array{Int(1)},
		EmptyTuple(), Bag{},
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if sign(got) != want {
				t.Errorf("Compare(%v, %v) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareNumericMixed(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Float(1.0), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Int(math.MaxInt64), Float(math.MaxFloat64), -1},
		{Float(math.Inf(1)), Int(math.MaxInt64), 1},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
		{Float(math.NaN()), Float(0), -1},
		{Float(math.NaN()), Float(math.NaN()), 0},
		// Precision: 2^53+1 is not representable as float64.
		{Int(1<<53 + 1), Float(1 << 53), 1},
	}
	for _, c := range cases {
		if got := sign(CompareNumeric(c.a, c.b)); got != c.want {
			t.Errorf("CompareNumeric(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareBagsOrderInsensitive(t *testing.T) {
	a := Bag{Int(1), Int(2), Int(3)}
	b := Bag{Int(3), Int(1), Int(2)}
	if Compare(a, b) != 0 {
		t.Error("bags compare as sorted multisets")
	}
	c := Bag{Int(1), Int(2)}
	if Compare(a, c) <= 0 {
		t.Error("longer bag with equal prefix compares greater")
	}
}

func TestCompareTuplesAttrOrderInsensitive(t *testing.T) {
	a := NewTuple(Field{"x", Int(1)}, Field{"y", Int(2)})
	b := NewTuple(Field{"y", Int(2)}, Field{"x", Int(1)})
	if Compare(a, b) != 0 {
		t.Error("tuples are unordered: attribute order must not matter")
	}
	c := NewTuple(Field{"x", Int(1)}, Field{"y", Int(3)})
	if Compare(a, c) >= 0 {
		t.Error("tuple with smaller y should compare less")
	}
}

func TestCompareArraysLexicographic(t *testing.T) {
	if Compare(Array{Int(1), Int(2)}, Array{Int(1), Int(3)}) >= 0 {
		t.Error("lexicographic element order")
	}
	if Compare(Array{Int(1)}, Array{Int(1), Int(0)}) >= 0 {
		t.Error("prefix compares less")
	}
}

// Property: Compare is reflexive, antisymmetric, and agrees with Key
// equality.
func TestCompareProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	reflexive := func(w genWrap) bool { return Compare(w.V, w.V) == 0 }
	if err := quick.Check(reflexive, cfg); err != nil {
		t.Error("reflexivity:", err)
	}
	antisym := func(a, b genWrap) bool {
		return sign(Compare(a.V, b.V)) == -sign(Compare(b.V, a.V))
	}
	if err := quick.Check(antisym, cfg); err != nil {
		t.Error("antisymmetry:", err)
	}
	keyAgrees := func(a, b genWrap) bool {
		// Equal canonical keys must mean Compare == 0. (The converse
		// does not hold: NULL and MISSING compare equal within their
		// class but key separately.)
		if Key(a.V) == Key(b.V) {
			return Compare(a.V, b.V) == 0
		}
		return true
	}
	if err := quick.Check(keyAgrees, cfg); err != nil {
		t.Error("key agreement:", err)
	}
}

// Property: transitivity of the total order on random triples.
func TestCompareTransitivity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b, c := genValue(r, 2), genValue(r, 2), genValue(r, 2)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but a > c", a, b, c)
		}
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{String("b"), Int(2), Null, True, Float(1.5)}
	SortValues(vs)
	want := []Value{Null, True, Float(1.5), Int(2), String("b")}
	for i := range want {
		if Compare(vs[i], want[i]) != 0 {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
}

// TestCompareZeroExactlyWhenEquivalent: on every probeable class the
// total order calls two values equal exactly when their grouping keys
// agree. An ordered index answers an equality probe by binary search
// under Compare, so this is what makes it agree with a hash index and
// with '='. The pool mixes the numeric edges (1/1.0, 0/-0.0, NaN of
// both signs, 2^53±1, ±2^63, the int64 limits, ±Inf), arrays and bags
// of them in both orders, tuples with permuted attributes, and random
// values.
func TestCompareZeroExactlyWhenEquivalent(t *testing.T) {
	edges := []Value{
		Int(0), Float(0), Float(math.Copysign(0, -1)), Int(1), Float(1), Int(-1), Float(-1), Float(0.5),
		Float(math.NaN()), Float(math.Copysign(math.NaN(), -1)),
		Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1), Float(1<<53 - 1), Float(1 << 53), Float(1<<53 + 2),
		Int(math.MaxInt64), Int(math.MinInt64), Float(1 << 63), Float(-(1 << 63)),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Bool(false), Bool(true), String(""), String("a"), Bytes{}, Bytes{'a'},
	}
	pool := append([]Value(nil), edges...)
	for _, x := range edges[:10] {
		for _, y := range edges[:10] {
			pool = append(pool, Array{x, y}, Bag{x, y}, Bag{y, x},
				NewTuple(Field{Name: "a", Value: x}, Field{Name: "b", Value: y}),
				NewTuple(Field{Name: "b", Value: y}, Field{Name: "a", Value: x}))
		}
	}
	r := rand.New(rand.NewSource(17))
	for len(pool) < 900 {
		if v := genValue(r, 2); !IsAbsent(v) {
			pool = append(pool, v)
		}
	}
	equal := 0
	for _, a := range pool {
		for _, b := range pool {
			cmp, eq := Compare(a, b) == 0, Equivalent(a, b)
			if cmp != eq {
				t.Fatalf("Compare(%v, %v) == 0 is %v, Equivalent is %v", a, b, cmp, eq)
			}
			if eq {
				equal++
			}
		}
	}
	if equal < 2*len(pool) {
		t.Fatalf("only %d equal pairs among %d values: the pool exercises too few collisions", equal, len(pool))
	}
}
