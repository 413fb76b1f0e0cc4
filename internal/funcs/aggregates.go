package funcs

import (
	"math"
	"math/bits"

	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// The COLL_* aggregates (§V-C). Each is defined once, as an accumulator;
// the function over a collection is "fold the accumulator over the
// elements", and the plan's streaming GROUP BY folds rows into the same
// accumulator without building the collection, so the two agree by
// construction.

// registerAgg registers a COLL_* aggregate: one collection-valued
// argument, absent arguments propagate, a non-collection argument is a
// type fault.
func (r *Registry) registerAgg(name string, newAcc func() eval.Accumulator) {
	r.byName[name] = &eval.FuncDef{Name: name, MinArgs: 1, MaxArgs: 1, NewAcc: newAcc,
		Fn: func(ctx *eval.Context, args []value.Value) (value.Value, error) {
			if v, done := propagateAbsent(ctx, args); done {
				return v, nil
			}
			elems, ok := value.Elements(args[0])
			if !ok {
				return nil, typeErr(name, "argument is "+args[0].Kind().String()+", not a collection")
			}
			acc := newAcc()
			for _, e := range elems {
				acc.Step(e)
			}
			return acc.Result()
		}}
}

func (r *Registry) registerAggregates() {
	// COLL_COUNT counts the non-absent elements of a collection. The SQL
	// COUNT(*) rewrite passes the GROUP AS collection, whose elements
	// are never absent, so it yields the group size.
	r.registerAgg("COLL_COUNT", func() eval.Accumulator { return &countAcc{} })
	r.registerAgg("COLL_SUM", func() eval.Accumulator { return &sumAcc{} })
	r.registerAgg("COLL_AVG", func() eval.Accumulator { return &sumAcc{avg: true} })
	r.registerAgg("COLL_MIN", func() eval.Accumulator { return &extremeAcc{} })
	r.registerAgg("COLL_MAX", func() eval.Accumulator { return &extremeAcc{wantMax: true} })
	r.registerAgg("COLL_EVERY", func() eval.Accumulator { return &quantAcc{every: true} })
	r.registerAgg("COLL_ANY", func() eval.Accumulator { return &quantAcc{} })
	r.registerAgg("COLL_SOME", func() eval.Accumulator { return &quantAcc{some: true} })
	// ARRAY_AGG materializes a collection as an array, keeping absent
	// elements as NULLs (positional).
	r.registerAgg("COLL_ARRAY_AGG", func() eval.Accumulator { return &arrayAcc{} })
}

// unwrapAggElem lets aggregates accept elements produced by a SQL-style
// single-column SELECT: a one-attribute tuple stands for its value. The
// paper's Listing 18 writes COLL_AVG(FROM g AS gi SELECT gi.e.salary) —
// a sugar SELECT whose rows are {'salary': v} tuples.
func unwrapAggElem(e value.Value) value.Value {
	if t, ok := e.(*value.Tuple); ok && t.Len() == 1 {
		return t.Values()[0]
	}
	return e
}

type countAcc struct{ n int64 }

func (a *countAcc) Step(v value.Value) {
	if !value.IsAbsent(v) {
		a.n++
	}
}
func (a *countAcc) Merge(o eval.Accumulator)     { a.n += o.(*countAcc).n }
func (a *countAcc) Result() (value.Value, error) { return value.Int(a.n), nil }

// sumAcc is COLL_SUM and COLL_AVG. Both are exact, so the result does
// not depend on how a parallel scan or a sharded plan associates the
// additions: Int addends accumulate in 128 bits (no int64 sum of int64
// addends can overflow that), Float addends in Shewchuk partials, and the
// total is rounded to float64 once, at Result. SUM stays an Int while
// every addend was an Int and the total fits int64; a total that does not
// fit is returned as the (correctly rounded) Float instead of wrapping.
// A streamed GROUP BY keeps one per group, so the state is small: the
// partials are allocated by the first Float addend, and an Int SUM fits
// one 48-byte allocation.
type sumAcc struct {
	avg   bool
	float bool // a Float addend was seen
	// fault is the kind of the first non-numeric element, KindMissing
	// while there is none (an absent element is never a fault); once set
	// the aggregate is a type fault whatever follows.
	fault value.Kind
	n     int64 // numeric addends
	// hi:lo is the two's-complement 128-bit total of the Int addends.
	hi   int64
	lo   uint64
	fsum *exactSum // the Float addends, nil before the first
}

func (a *sumAcc) Step(v value.Value) {
	if a.fault != value.KindMissing {
		return
	}
	v = unwrapAggElem(v)
	switch x := v.(type) {
	case value.Int:
		var c uint64
		a.lo, c = bits.Add64(a.lo, uint64(x), 0)
		a.hi += int64(x>>63) + int64(c)
	case value.Float:
		a.float = true
		if a.fsum == nil {
			a.fsum = new(exactSum)
		}
		a.fsum.add(float64(x))
	default:
		if !value.IsAbsent(v) { // SQL aggregates ignore absent inputs
			a.fault = v.Kind()
		}
		return
	}
	a.n++
}

func (a *sumAcc) Merge(other eval.Accumulator) {
	o := other.(*sumAcc)
	if a.fault != value.KindMissing {
		return
	}
	a.fault = o.fault
	a.n += o.n
	var c uint64
	a.lo, c = bits.Add64(a.lo, o.lo, 0)
	a.hi += o.hi + int64(c)
	a.float = a.float || o.float
	if o.fsum != nil {
		if a.fsum == nil {
			a.fsum = new(exactSum)
		}
		a.fsum.merge(o.fsum)
	}
}

func (a *sumAcc) Result() (value.Value, error) {
	if a.fault != value.KindMissing {
		op := "COLL_SUM"
		if a.avg {
			op = "COLL_AVG"
		}
		return nil, typeErr(op, "element is "+a.fault.String())
	}
	if a.n == 0 {
		return value.Null, nil // SQL: aggregate of empty input is NULL
	}
	if a.avg {
		return value.Float(a.total() / float64(a.n)), nil
	}
	if !a.float && a.hi == int64(a.lo)>>63 {
		return value.Int(int64(a.lo)), nil
	}
	return value.Float(a.total()), nil
}

// total is the exact sum of every addend, rounded once to float64.
func (a *sumAcc) total() float64 {
	var s exactSum
	if a.fsum != nil {
		s = exactSum{parts: append([]float64(nil), a.fsum.parts...), special: a.fsum.special, hasSpecial: a.fsum.hasSpecial}
	}
	if a.hi == int64(a.lo)>>63 && s.parts == nil && !s.hasSpecial {
		return float64(int64(a.lo))
	}
	// Feed the integer total in as 32-bit limbs: each limb times its
	// power of two is exactly representable, so nothing is rounded before
	// the final pass.
	hi, lo, neg := uint64(a.hi), a.lo, a.hi < 0
	if neg {
		var c uint64
		lo, c = bits.Add64(^lo, 1, 0)
		hi = ^hi + c
	}
	for i, limb := range [4]uint64{lo & 0xffffffff, lo >> 32, hi & 0xffffffff, hi >> 32} {
		f := math.Ldexp(float64(limb), 32*i)
		if neg {
			f = -f
		}
		s.add(f)
	}
	return s.value()
}

// exactSum adds float64s without rounding error (Shewchuk's algorithm, as
// in Python's math.fsum): parts are non-overlapping partial sums in
// increasing magnitude whose exact sum is the exact sum of the finite
// addends. Non-finite addends are summed apart and dominate the result
// with their IEEE sum (NaN, or the infinity when all agree in sign). A
// finite partial that overflows float64 counts as that infinity; only in
// that corner can the result depend on addition order.
type exactSum struct {
	parts      []float64
	special    float64
	hasSpecial bool
}

func (s *exactSum) add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		s.hasSpecial = true
		return
	}
	i := 0
	for _, y := range s.parts {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if math.IsInf(hi, 0) {
			s.special += hi
			s.hasSpecial = true
			s.parts = s.parts[:0]
			return
		}
		if lo := y - (hi - x); lo != 0 {
			s.parts[i] = lo
			i++
		}
		x = hi
	}
	s.parts = s.parts[:i]
	if x != 0 {
		s.parts = append(s.parts, x)
	}
}

func (s *exactSum) merge(o *exactSum) {
	if o.hasSpecial {
		s.special += o.special
		s.hasSpecial = true
	}
	for _, p := range o.parts {
		s.add(p)
	}
}

// value rounds the exact sum to the nearest float64 (ties to even).
func (s *exactSum) value() float64 {
	if s.hasSpecial {
		return s.special
	}
	p := s.parts
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// Half-way case: the discarded remainder and the next partial agree in
	// sign, so round-half-even went the wrong way; nudge by one ulp.
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		y := lo * 2
		if x := hi + y; y == x-hi {
			hi = x
		}
	}
	return hi
}

// extremeAcc is COLL_MIN and COLL_MAX under the SQL++ total order; the
// earliest of equal extremes is kept.
type extremeAcc struct {
	wantMax bool
	best    value.Value
}

func (a *extremeAcc) Step(v value.Value) { a.fold(unwrapAggElem(v)) }

func (a *extremeAcc) fold(v value.Value) {
	if value.IsAbsent(v) {
		return
	}
	if a.best == nil {
		a.best = v
		return
	}
	if c := value.Compare(v, a.best); (a.wantMax && c > 0) || (!a.wantMax && c < 0) {
		a.best = v
	}
}

func (a *extremeAcc) Merge(other eval.Accumulator) {
	if b := other.(*extremeAcc).best; b != nil {
		a.fold(b)
	}
}

func (a *extremeAcc) Result() (value.Value, error) {
	if a.best == nil {
		return value.Null, nil
	}
	return a.best, nil
}

// quantAcc is COLL_EVERY / COLL_ANY / COLL_SOME. The first deciding
// element in collection order — a FALSE for EVERY, a TRUE for ANY, or a
// non-boolean (type fault) — fixes the result; nothing after it counts.
type quantAcc struct {
	every, some bool // COLL_EVERY, COLL_SOME; COLL_ANY is neither
	decided     bool
	// fault is the kind of the deciding element when it was a
	// non-boolean, KindMissing otherwise.
	fault     value.Kind
	sawAbsent bool
}

func (a *quantAcc) Step(v value.Value) {
	if a.decided {
		return
	}
	v = unwrapAggElem(v)
	if value.IsAbsent(v) {
		a.sawAbsent = true
		return
	}
	b, ok := v.(value.Bool)
	if !ok {
		a.decided, a.fault = true, v.Kind()
	} else if bool(b) != a.every {
		a.decided = true
	}
}

func (a *quantAcc) Merge(other eval.Accumulator) {
	o := other.(*quantAcc)
	if a.decided {
		return
	}
	a.decided, a.fault = o.decided, o.fault
	a.sawAbsent = a.sawAbsent || o.sawAbsent
}

func (a *quantAcc) Result() (value.Value, error) {
	switch {
	case a.fault != value.KindMissing:
		op := "COLL_ANY"
		if a.every {
			op = "COLL_EVERY"
		} else if a.some {
			op = "COLL_SOME"
		}
		return nil, typeErr(op, "element is "+a.fault.String())
	case a.decided:
		return value.Bool(!a.every), nil
	case a.sawAbsent:
		return value.Null, nil
	}
	return value.Bool(a.every), nil
}

type arrayAcc struct{ out value.Array }

func (a *arrayAcc) Step(v value.Value) {
	if v.Kind() == value.KindMissing {
		v = value.Null
	}
	a.out = append(a.out, v)
}

func (a *arrayAcc) Merge(o eval.Accumulator) { a.out = append(a.out, o.(*arrayAcc).out...) }

func (a *arrayAcc) Result() (value.Value, error) {
	if a.out == nil {
		return value.Array{}, nil
	}
	return a.out, nil
}
