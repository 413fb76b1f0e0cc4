package funcs

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

var aggNames = []string{"COLL_COUNT", "COLL_SUM", "COLL_AVG", "COLL_MIN", "COLL_MAX",
	"COLL_EVERY", "COLL_ANY", "COLL_SOME", "COLL_ARRAY_AGG"}

// foldSplit folds elems through name's accumulator in len(cuts)+1
// contiguous pieces merged left to right, the way a parallel scan does.
func foldSplit(t *testing.T, name string, elems []value.Value, cuts ...int) (value.Value, error) {
	t.Helper()
	def, ok := NewRegistry().LookupFunc(name)
	if !ok || def.NewAcc == nil {
		t.Fatalf("%s has no accumulator", name)
	}
	total := def.NewAcc()
	lo := 0
	for _, hi := range append(cuts, len(elems)) {
		part := def.NewAcc()
		for _, e := range elems[lo:hi] {
			part.Step(e)
		}
		total.Merge(part)
		lo = hi
	}
	return total.Result()
}

func sameOutcome(v1 value.Value, e1 error, v2 value.Value, e2 error) bool {
	if (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 != nil {
		return e1.Error() == e2.Error()
	}
	return v1.String() == v2.String()
}

// TestSumOverflowIsNotWrapped: int64 overflow used to wrap silently
// (COLL_SUM([MaxInt64, 1]) was MinInt64); the total now widens to Float.
func TestSumOverflowIsNotWrapped(t *testing.T) {
	ctx := flexible()
	check(t, mustCall(t, ctx, "COLL_SUM", "[9223372036854775807, 1]"), "9.223372036854775808e18")
	check(t, mustCall(t, ctx, "COLL_SUM", "[-9223372036854775808, -1]"), "-9.223372036854775809e18")
	// A partial sum may leave int64 as long as the total comes back.
	check(t, mustCall(t, ctx, "COLL_SUM", "[9223372036854775807, 1, -2]"), "9223372036854775806")
	check(t, mustCall(t, ctx, "COLL_AVG", "[9223372036854775807, 9223372036854775807]"), "9.223372036854775807e18")
	// Merge detects it too: every piece fits, the total does not.
	big := value.Int(math.MaxInt64 / 2)
	v, err := foldSplit(t, "COLL_SUM", []value.Value{big, big, big}, 1, 2)
	if err != nil || v.Kind() != value.KindFloat || float64(v.(value.Float)) < float64(math.MaxInt64) {
		t.Errorf("merged overflowing SUM = %v, %v; want a Float above MaxInt64", v, err)
	}
}

// TestSumIsExact: the float sum is the correctly rounded exact sum, so
// it cannot depend on association.
func TestSumIsExact(t *testing.T) {
	ctx := flexible()
	check(t, mustCall(t, ctx, "COLL_SUM", "[1e16, 1.0, -1e16]"), "1.0")
	check(t, mustCall(t, ctx, "COLL_SUM", "[0.1, 0.2, 0.3]"), "0.6")
	check(t, mustCall(t, ctx, "COLL_SUM", "[1e100, 1.0, -1e100, 1e-3]"), "1.001")
	// Mixed: the integer part is exact too.
	check(t, mustCall(t, ctx, "COLL_SUM", "[9007199254740993, 0.5, -9007199254740992]"), "1.5")

	r := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := 1 + r.Intn(40)
		elems := make([]value.Value, n)
		exact := new(big.Float).SetPrec(4096)
		for i := range elems {
			if r.Intn(3) == 0 {
				x := r.Int63() >> uint(r.Intn(63))
				if r.Intn(2) == 0 {
					x = -x
				}
				elems[i] = value.Int(x)
				exact.Add(exact, new(big.Float).SetPrec(4096).SetInt64(x))
			} else {
				x := math.Ldexp(r.Float64()-0.5, r.Intn(120)-60)
				elems[i] = value.Float(x)
				exact.Add(exact, new(big.Float).SetPrec(4096).SetFloat64(x))
			}
		}
		want, _ := exact.Float64()
		got, err := foldSplit(t, "COLL_SUM", elems)
		if err != nil {
			t.Fatal(err)
		}
		gf, _ := value.AsFloat(got)
		if gf != want {
			t.Fatalf("round %d: SUM%v = %v, exact sum rounds to %v", round, elems, got, want)
		}
	}
}

func TestSumNonFinite(t *testing.T) {
	inf, nan := value.Float(math.Inf(1)), value.Float(math.NaN())
	for _, c := range []struct {
		elems []value.Value
		want  func(float64) bool
	}{
		{[]value.Value{value.Float(1), inf, value.Float(2)}, func(f float64) bool { return math.IsInf(f, 1) }},
		{[]value.Value{inf, value.Float(math.Inf(-1))}, math.IsNaN},
		{[]value.Value{value.Int(1), nan}, math.IsNaN},
		{[]value.Value{value.Float(math.MaxFloat64), value.Float(math.MaxFloat64)}, func(f float64) bool { return math.IsInf(f, 1) }},
	} {
		for cut := 0; cut <= len(c.elems); cut++ {
			v, err := foldSplit(t, "COLL_SUM", c.elems, cut)
			if err != nil {
				t.Fatal(err)
			}
			if f, _ := value.AsFloat(v); !c.want(f) {
				t.Errorf("SUM%v split at %d = %v", c.elems, cut, v)
			}
		}
	}
}

// TestAccumulatorMergeIsSequentialFold: for every aggregate, folding a
// heterogeneous collection in pieces and merging gives exactly the
// one-piece fold — value, fault and all — and that fold is what the
// COLL_* function returns.
func TestAccumulatorMergeIsSequentialFold(t *testing.T) {
	pool := []value.Value{
		value.Int(3), value.Int(-7), value.Int(math.MaxInt64), value.Float(2.5), value.Float(1e17), value.Float(-1e17),
		value.Float(0.1), value.String("x"), value.True, value.False, value.Null, value.Missing,
		value.NewTuple(value.Field{Name: "v", Value: value.Int(4)}),
		value.NewTuple(value.Field{Name: "a", Value: value.Int(1)}, value.Field{Name: "b", Value: value.Int(2)}),
		value.Array{value.Int(1)},
	}
	reg := NewRegistry()
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		n := r.Intn(12)
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = pool[r.Intn(len(pool))]
		}
		if round%3 == 0 { // a boolean-only run, so the quantifiers get past element one
			for i := range elems {
				elems[i] = []value.Value{value.True, value.False, value.Null}[r.Intn(3)]
			}
		}
		for _, name := range aggNames {
			def, _ := reg.LookupFunc(name)
			wantV, wantE := def.Fn(&eval.Context{}, []value.Value{value.Bag(elems)})
			seqV, seqE := foldSplit(t, name, elems)
			if !sameOutcome(wantV, wantE, seqV, seqE) {
				t.Fatalf("%s%v: function %v/%v, accumulator %v/%v", name, elems, wantV, wantE, seqV, seqE)
			}
			for trial := 0; trial < 3 && n > 0; trial++ {
				a, b := r.Intn(n+1), r.Intn(n+1)
				if a > b {
					a, b = b, a
				}
				gotV, gotE := foldSplit(t, name, elems, a, b)
				if !sameOutcome(wantV, wantE, gotV, gotE) {
					t.Fatalf("%s%v split at %d,%d: %v/%v, sequential %v/%v", name, elems, a, b, gotV, gotE, wantV, wantE)
				}
			}
		}
	}
}

// TestAggSlotRead: $AGG passes a slot's value through and raises its
// deferred fault — a fresh copy, since the evaluator stamps positions
// into type errors.
func TestAggSlotRead(t *testing.T) {
	def, _ := NewRegistry().LookupFunc("$AGG")
	if v, err := def.Fn(flexible(), []value.Value{value.Int(5)}); err != nil || v != value.Int(5) {
		t.Errorf("$AGG(5) = %v, %v", v, err)
	}
	fault := &eval.TypeError{Op: "COLL_SUM", Detail: "element is string"}
	_, err := def.Fn(flexible(), []value.Value{eval.AggFault{Err: fault}})
	te, ok := err.(*eval.TypeError)
	if !ok || te == fault || te.Error() != fault.Error() {
		t.Errorf("$AGG(fault) = %v; want a copy of %v", err, fault)
	}
}
