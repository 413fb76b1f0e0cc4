package eval

import (
	"fmt"
	"math"

	"sqlpp/internal/ast"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// Eval evaluates an expression in env under ctx. Dynamic type errors
// yield MISSING in permissive mode and an error in stop-on-error mode;
// all other errors (unresolved names, resource limits) are returned in
// both modes.
func Eval(ctx *Context, env *Env, e ast.Expr) (value.Value, error) {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.Interpret); err != nil {
			return nil, err
		}
	}
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil
	case *ast.VarRef:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		if ctx.Names != nil {
			if v, ok := ctx.Names.LookupValue(x.Name); ok {
				return v, nil
			}
		}
		return nil, &NameError{Pos: x.Pos(), Name: x.Name}
	case *ast.NamedRef:
		if ctx.Names != nil {
			if v, ok := ctx.Names.LookupValue(x.Name); ok {
				return v, nil
			}
		}
		return nil, &NameError{Pos: x.Pos(), Name: x.Name}
	case *ast.FieldAccess:
		base, err := Eval(ctx, env, x.Base)
		if err != nil {
			return nil, err
		}
		return Navigate(ctx, base, x.Name, x.Pos())
	case *ast.IndexAccess:
		return evalIndex(ctx, env, x)
	case *ast.Unary:
		return evalUnary(ctx, env, x)
	case *ast.Binary:
		return evalBinary(ctx, env, x)
	case *ast.Like:
		return evalLike(ctx, env, x)
	case *ast.Between:
		return evalBetween(ctx, env, x)
	case *ast.In:
		return evalIn(ctx, env, x)
	case *ast.Is:
		return evalIs(ctx, env, x)
	case *ast.Quantified:
		return evalQuantified(ctx, env, x)
	case *ast.Case:
		return evalCase(ctx, env, x)
	case *ast.Call:
		return evalCall(ctx, env, x)
	case *ast.TupleCtor:
		return evalTupleCtor(ctx, env, x)
	case *ast.ArrayCtor:
		out := make(value.Array, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := Eval(ctx, env, el)
			if err != nil {
				return nil, err
			}
			// Arrays are positional: a MISSING element becomes NULL so
			// later elements keep their ordinals.
			if v.Kind() == value.KindMissing {
				v = value.Null
			}
			out = append(out, v)
		}
		return out, nil
	case *ast.BagCtor:
		out := make(value.Bag, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := Eval(ctx, env, el)
			if err != nil {
				return nil, err
			}
			// Bags have no positions; MISSING elements vanish.
			if v.Kind() == value.KindMissing {
				continue
			}
			out = append(out, v)
		}
		return out, nil
	case *ast.Exists:
		v, err := Eval(ctx, env, x.Operand)
		if err != nil {
			return nil, err
		}
		return existsValue(ctx, v, x.Pos())
	case *ast.SFW:
		return dispatchBlock(ctx, env, x)
	case *ast.SetOp:
		return setOpValue(ctx, env, x, Interpret(x.L), Interpret(x.R))
	case *ast.With:
		binds := make([]CompiledExpr, len(x.Bindings))
		for i, b := range x.Bindings {
			binds[i] = Interpret(b.Expr)
		}
		return withValue(ctx, env, x, binds, Interpret(x.Body))
	}
	return nil, fmt.Errorf("eval: unknown expression node %T at %s", e, e.Pos())
}

// Navigate performs dot navigation base.name with SQL++ semantics:
// tuples navigate (absent attribute gives MISSING), MISSING gives
// MISSING, NULL gives NULL, and anything else is a type fault.
func Navigate(ctx *Context, base value.Value, name string, pos lexer.Pos) (value.Value, error) {
	switch b := base.(type) {
	case *value.Tuple:
		v, _ := b.Get(name)
		return v, nil
	default:
		switch base.Kind() {
		case value.KindMissing:
			return value.Missing, nil
		case value.KindNull:
			return value.Null, nil
		}
		return ctx.mistyped(pos, "navigation", "cannot navigate into %s with .%s", base.Kind().String(), name)
	}
}

func existsValue(ctx *Context, v value.Value, pos lexer.Pos) (value.Value, error) {
	if elems, ok := value.Elements(v); ok {
		return value.Bool(len(elems) > 0), nil
	}
	if value.IsAbsent(v) {
		return value.False, nil
	}
	return ctx.mistyped(pos, "EXISTS", "operand is %s, not a collection", v.Kind().String())
}

func evalIndex(ctx *Context, env *Env, x *ast.IndexAccess) (value.Value, error) {
	base, err := Eval(ctx, env, x.Base)
	if err != nil {
		return nil, err
	}
	idx, err := Eval(ctx, env, x.Index)
	if err != nil {
		return nil, err
	}
	return indexValue(ctx, base, idx, x.Pos())
}

// indexValue applies base[idx] to already-evaluated operands.
func indexValue(ctx *Context, base, idx value.Value, pos lexer.Pos) (value.Value, error) {
	switch b := base.(type) {
	case value.Array:
		i, ok := value.AsInt(idx)
		if !ok {
			if value.IsAbsent(idx) {
				return absentOut(ctx, idx.Kind() == value.KindMissing), nil
			}
			return ctx.mistyped(pos, "indexing", "array index is %s", idx.Kind().String())
		}
		if i < 0 || i >= int64(len(b)) {
			return value.Missing, nil
		}
		return b[i], nil
	case *value.Tuple:
		s, ok := idx.(value.String)
		if !ok {
			if value.IsAbsent(idx) {
				return absentOut(ctx, idx.Kind() == value.KindMissing), nil
			}
			return ctx.mistyped(pos, "indexing", "tuple index is %s, not a string", idx.Kind().String())
		}
		v, _ := b.Get(string(s))
		return v, nil
	default:
		switch base.Kind() {
		case value.KindMissing:
			return value.Missing, nil
		case value.KindNull:
			return value.Null, nil
		}
		return ctx.mistyped(pos, "indexing", "cannot index into %s", base.Kind().String())
	}
}

func evalUnary(ctx *Context, env *Env, x *ast.Unary) (value.Value, error) {
	v, err := Eval(ctx, env, x.Operand)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "-", "NOT":
		return unaryValue(ctx, x.Op, v, x.Pos())
	}
	return nil, fmt.Errorf("eval: unknown unary operator %q at %s", x.Op, x.Pos())
}

// unaryValue applies a unary operator to an already-evaluated operand.
func unaryValue(ctx *Context, op string, v value.Value, pos lexer.Pos) (value.Value, error) {
	if op == "-" {
		switch n := v.(type) {
		case value.Int:
			if n == math.MinInt64 {
				return value.Float(-float64(n)), nil // 2^63 does not fit int64
			}
			return value.Int(-n), nil
		case value.Float:
			return value.Float(-n), nil
		}
		if value.IsAbsent(v) {
			return absentOut(ctx, v.Kind() == value.KindMissing), nil
		}
		return ctx.mistyped(pos, "unary -", "operand is %s", v.Kind().String())
	}
	t, ok := truthOf(v)
	if !ok {
		return ctx.mistyped(pos, "NOT", "operand is %s", v.Kind().String())
	}
	return not3(t).val(ctx), nil
}

func evalBinary(ctx *Context, env *Env, x *ast.Binary) (value.Value, error) {
	switch x.Op {
	case "AND", "OR":
		return evalLogical(ctx, env, x)
	}
	l, err := Eval(ctx, env, x.L)
	if err != nil {
		return nil, err
	}
	r, err := Eval(ctx, env, x.R)
	if err != nil {
		return nil, err
	}
	if apply := binaryOperator(x.Op); apply != nil {
		return apply(ctx, x.Op, l, r, x.Pos())
	}
	return nil, fmt.Errorf("eval: unknown binary operator %q at %s", x.Op, x.Pos())
}

// binaryOperator returns the value-level helper of a binary operator whose
// operands both evaluate first — arithmetic, || and the comparisons — and
// nil for any other operator (AND and OR evaluate lazily).
func binaryOperator(op string) func(*Context, string, value.Value, value.Value, lexer.Pos) (value.Value, error) {
	switch op {
	case "+", "-", "*", "/", "%":
		return Arith
	case "||":
		return evalConcat
	case "=", "<>", "<", "<=", ">", ">=":
		return Comparison
	}
	return nil
}

// evalLogical implements AND/OR with SQL three-valued logic, evaluating
// lazily so a determining left operand skips the right side.
func evalLogical(ctx *Context, env *Env, x *ast.Binary) (value.Value, error) {
	l, err := Eval(ctx, env, x.L)
	if err != nil {
		return nil, err
	}
	lt, ok := truthOf(l)
	if !ok {
		return ctx.mistyped(x.Pos(), x.Op, "left operand is %s", l.Kind().String())
	}
	if x.Op == "AND" && lt == truthFalse {
		return value.False, nil
	}
	if x.Op == "OR" && lt == truthTrue {
		return value.True, nil
	}
	r, err := Eval(ctx, env, x.R)
	if err != nil {
		return nil, err
	}
	rt, ok := truthOf(r)
	if !ok {
		return ctx.mistyped(x.Pos(), x.Op, "right operand is %s", r.Kind().String())
	}
	if x.Op == "AND" {
		return and3(lt, rt).val(ctx), nil
	}
	return or3(lt, rt).val(ctx), nil
}

// Arith evaluates an arithmetic operator with SQL++ typing: integer
// arithmetic stays integral (with integer division) while the result fits
// int64, any float operand promotes to float, absent values propagate, and
// non-numeric operands are a type fault (the paper's 2 * 'some string'
// example).
func Arith(ctx *Context, op string, l, r value.Value, pos lexer.Pos) (value.Value, error) {
	if value.IsAbsent(l) || value.IsAbsent(r) {
		return absentOut(ctx, l.Kind() == value.KindMissing || r.Kind() == value.KindMissing), nil
	}
	li, lIsInt := l.(value.Int)
	ri, rIsInt := r.(value.Int)
	if lIsInt && rIsInt {
		// A result that does not fit int64 widens to the Float arithmetic
		// below instead of wrapping, as COLL_SUM does.
		a, b := int64(li), int64(ri)
		switch op {
		case "+":
			if s := a + b; (s > a) == (b > 0) {
				return value.Int(s), nil
			}
		case "-":
			if d := a - b; (d < a) == (b > 0) {
				return value.Int(d), nil
			}
		case "*":
			if p := a * b; a == 0 || (p/a == b && !(a == -1 && b == math.MinInt64)) {
				return value.Int(p), nil
			}
		case "/":
			if b == 0 {
				return ctx.mistyped(pos, op, "division by zero")
			}
			if !(a == math.MinInt64 && b == -1) {
				return value.Int(a / b), nil
			}
		case "%":
			if b == 0 {
				return ctx.mistyped(pos, op, "modulo by zero")
			}
			return value.Int(a % b), nil
		}
	}
	lf, lOK := value.AsFloat(l)
	rf, rOK := value.AsFloat(r)
	if !lOK || !rOK {
		return ctx.mistyped(pos, op, "operands are %s and %s", l.Kind().String(), r.Kind().String())
	}
	switch op {
	case "+":
		return value.Float(lf + rf), nil
	case "-":
		return value.Float(lf - rf), nil
	case "*":
		return value.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return ctx.mistyped(pos, op, "division by zero")
		}
		return value.Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return ctx.mistyped(pos, op, "modulo by zero")
		}
		return value.Float(math.Mod(lf, rf)), nil
	}
	return nil, fmt.Errorf("eval: unknown arithmetic operator %q", op)
}

func evalConcat(ctx *Context, _ string, l, r value.Value, pos lexer.Pos) (value.Value, error) {
	if value.IsAbsent(l) || value.IsAbsent(r) {
		return absentOut(ctx, l.Kind() == value.KindMissing || r.Kind() == value.KindMissing), nil
	}
	ls, lOK := l.(value.String)
	rs, rOK := r.(value.String)
	if !lOK || !rOK {
		return ctx.mistyped(pos, "||", "operands are %s and %s", l.Kind().String(), r.Kind().String())
	}
	return ls + rs, nil
}

// Comparison evaluates a comparison operator. Absent operands propagate.
// Equality between values of different type classes is FALSE (never an
// error), so heterogeneous data can be filtered without tripping the
// typing mode; ordering comparisons across classes or on non-scalar
// operands are a type fault.
func Comparison(ctx *Context, op string, l, r value.Value, pos lexer.Pos) (value.Value, error) {
	if value.IsAbsent(l) || value.IsAbsent(r) {
		return absentOut(ctx, l.Kind() == value.KindMissing || r.Kind() == value.KindMissing), nil
	}
	comparable := sameComparisonClass(l, r)
	switch op {
	case "=":
		if !comparable {
			return value.False, nil
		}
		return value.Bool(value.Equivalent(l, r)), nil
	case "<>":
		if !comparable {
			return value.True, nil
		}
		return value.Bool(!value.Equivalent(l, r)), nil
	}
	if !comparable || !isScalar(l) {
		return ctx.mistyped(pos, op, "cannot order %s and %s", l.Kind().String(), r.Kind().String())
	}
	c := value.Compare(l, r)
	switch op {
	case "<":
		return value.Bool(c < 0), nil
	case "<=":
		return value.Bool(c <= 0), nil
	case ">":
		return value.Bool(c > 0), nil
	case ">=":
		return value.Bool(c >= 0), nil
	}
	return nil, fmt.Errorf("eval: unknown comparison operator %q", op)
}

func sameComparisonClass(l, r value.Value) bool {
	if value.IsNumeric(l) && value.IsNumeric(r) {
		return true
	}
	return l.Kind() == r.Kind()
}

func isScalar(v value.Value) bool {
	switch v.Kind() {
	case value.KindBool, value.KindInt, value.KindFloat, value.KindString, value.KindBytes:
		return true
	}
	return false
}

func evalLike(ctx *Context, env *Env, x *ast.Like) (value.Value, error) {
	target, err := Eval(ctx, env, x.Target)
	if err != nil {
		return nil, err
	}
	pattern, err := Eval(ctx, env, x.Pattern)
	if err != nil {
		return nil, err
	}
	var escape rune
	if x.Escape != nil {
		ev, err := Eval(ctx, env, x.Escape)
		if err != nil {
			return nil, err
		}
		var bad value.Value
		escape, bad, err = likeEscapeRune(ctx, ev, x.Pos())
		if bad != nil || err != nil {
			return bad, err
		}
	}
	return likeValue(ctx, target, pattern, escape, x.Negate, x.Pos())
}

// likeEscapeRune validates an evaluated ESCAPE operand. On a type fault
// the non-nil bad value (permissive) or error (strict) short-circuits
// the whole LIKE.
func likeEscapeRune(ctx *Context, ev value.Value, pos lexer.Pos) (escape rune, bad value.Value, err error) {
	es, ok := ev.(value.String)
	if !ok || len([]rune(string(es))) != 1 {
		bad, err = ctx.mistyped(pos, "LIKE", "ESCAPE must be a single-character string")
		return 0, bad, err
	}
	return []rune(string(es))[0], nil, nil
}

// likeValue applies LIKE to already-evaluated target and pattern with a
// validated escape rune (0 when no ESCAPE clause).
func likeValue(ctx *Context, target, pattern value.Value, escape rune, negate bool, pos lexer.Pos) (value.Value, error) {
	if value.IsAbsent(target) || value.IsAbsent(pattern) {
		return absentOut(ctx, target.Kind() == value.KindMissing || pattern.Kind() == value.KindMissing), nil
	}
	ts, tOK := target.(value.String)
	ps, pOK := pattern.(value.String)
	if !tOK || !pOK {
		return ctx.mistyped(pos, "LIKE", "operands are %s and %s", target.Kind().String(), pattern.Kind().String())
	}
	m, ok := compileLike(string(ps), escape)
	if !ok {
		return ctx.mistyped(pos, "LIKE", "malformed pattern %s", ps.String())
	}
	result := m.match(string(ts))
	if negate {
		result = !result
	}
	return value.Bool(result), nil
}

func evalBetween(ctx *Context, env *Env, x *ast.Between) (value.Value, error) {
	target, err := Eval(ctx, env, x.Target)
	if err != nil {
		return nil, err
	}
	lo, err := Eval(ctx, env, x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := Eval(ctx, env, x.Hi)
	if err != nil {
		return nil, err
	}
	return betweenValues(ctx, target, lo, hi, x.Negate, x.Pos())
}

// betweenValues applies BETWEEN to already-evaluated operands.
func betweenValues(ctx *Context, target, lo, hi value.Value, negate bool, pos lexer.Pos) (value.Value, error) {
	ge, err := Comparison(ctx, ">=", target, lo, pos)
	if err != nil {
		return nil, err
	}
	le, err := Comparison(ctx, "<=", target, hi, pos)
	if err != nil {
		return nil, err
	}
	gt, ok1 := truthOf(ge)
	lt, ok2 := truthOf(le)
	if !ok1 || !ok2 {
		return ctx.mistyped(pos, "BETWEEN", "bounds comparison did not produce a boolean")
	}
	result := and3(gt, lt)
	if negate {
		result = not3(result)
	}
	return result.val(ctx), nil
}

func evalIn(ctx *Context, env *Env, x *ast.In) (value.Value, error) {
	target, err := Eval(ctx, env, x.Target)
	if err != nil {
		return nil, err
	}
	var elems []value.Value
	if x.List != nil {
		elems = make([]value.Value, 0, len(x.List))
		for _, le := range x.List {
			v, err := Eval(ctx, env, le)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
	} else {
		set, err := Eval(ctx, env, x.Set)
		if err != nil {
			return nil, err
		}
		var short value.Value
		elems, short, err = collectionElems(ctx, set, "IN", x.Pos())
		if short != nil || err != nil {
			return short, err
		}
	}
	return inValues(ctx, target, elems, x.Negate, x.Pos())
}

// collectionElems extracts the element list of an evaluated right-hand
// collection operand. On absent or mistyped input the non-nil short
// value (or error) short-circuits the enclosing predicate.
func collectionElems(ctx *Context, set value.Value, op string, pos lexer.Pos) (elems []value.Value, short value.Value, err error) {
	elems, ok := value.Elements(set)
	if ok {
		return elems, nil, nil
	}
	if value.IsAbsent(set) {
		return nil, absentOut(ctx, set.Kind() == value.KindMissing), nil
	}
	short, err = ctx.mistyped(pos, op, "right operand is %s, not a collection", set.Kind().String())
	return nil, short, err
}

// inValues applies IN to an already-evaluated target and element list.
func inValues(ctx *Context, target value.Value, elems []value.Value, negate bool, pos lexer.Pos) (value.Value, error) {
	result := truthFalse
	for _, e := range elems {
		eq, err := Comparison(ctx, "=", target, e, pos)
		if err != nil {
			return nil, err
		}
		t, ok := truthOf(eq)
		if !ok {
			continue
		}
		result = or3(result, t)
		if result == truthTrue {
			break
		}
	}
	if negate {
		result = not3(result)
	}
	return result.val(ctx), nil
}

// evalQuantified implements SQL quantified comparisons: op ALL over an
// empty collection is TRUE, op ANY/SOME over an empty collection is
// FALSE, and unknowns combine with three-valued logic.
func evalQuantified(ctx *Context, env *Env, x *ast.Quantified) (value.Value, error) {
	target, err := Eval(ctx, env, x.Target)
	if err != nil {
		return nil, err
	}
	set, err := Eval(ctx, env, x.Set)
	if err != nil {
		return nil, err
	}
	elems, short, err := collectionElems(ctx, set, "quantified comparison", x.Pos())
	if short != nil || err != nil {
		return short, err
	}
	return quantifiedValues(ctx, x.Op, x.All, target, elems, x.Pos())
}

// quantifiedValues applies op ALL / op ANY to an already-evaluated
// target and element list.
func quantifiedValues(ctx *Context, op string, all bool, target value.Value, elems []value.Value, pos lexer.Pos) (value.Value, error) {
	result := truthTrue
	if !all {
		result = truthFalse
	}
	for _, e := range elems {
		cmp, err := Comparison(ctx, op, target, e, pos)
		if err != nil {
			return nil, err
		}
		t, ok := truthOf(cmp)
		if !ok {
			continue
		}
		if all {
			result = and3(result, t)
			if result == truthFalse {
				break
			}
		} else {
			result = or3(result, t)
			if result == truthTrue {
				break
			}
		}
	}
	return result.val(ctx), nil
}

func evalIs(ctx *Context, env *Env, x *ast.Is) (value.Value, error) {
	v, err := Eval(ctx, env, x.Target)
	if err != nil {
		return nil, err
	}
	return isValue(ctx, v, x.What, x.Negate, x.Pos())
}

// isValue applies an IS predicate to an already-evaluated operand.
func isValue(ctx *Context, v value.Value, what string, negate bool, pos lexer.Pos) (value.Value, error) {
	var result bool
	switch what {
	case "NULL":
		// In SQL-compatibility mode MISSING satisfies IS NULL, which is
		// what makes the null/missing guarantee of §IV-B hold for
		// WHERE x IS NULL predicates. In flexible mode the two absent
		// values are distinguishable.
		result = v.Kind() == value.KindNull || (ctx.Compat && v.Kind() == value.KindMissing)
	case "MISSING":
		result = v.Kind() == value.KindMissing
	case "UNKNOWN":
		t, ok := truthOf(v)
		if !ok {
			return ctx.mistyped(pos, "IS UNKNOWN", "operand is %s", v.Kind().String())
		}
		result = t.isUnknown()
	default:
		return nil, fmt.Errorf("eval: unknown IS predicate %q at %s", what, pos)
	}
	if negate {
		result = !result
	}
	return value.Bool(result), nil
}

// evalCase implements CASE with the paper's §IV-B semantics: in flexible
// mode a MISSING WHEN condition propagates MISSING through the whole
// CASE ("CASE WHEN MISSING ... END evaluates to MISSING"); in SQL
// compatibility mode MISSING behaves like NULL, i.e. the arm simply does
// not match. An absent simple-CASE operand likewise propagates.
func evalCase(ctx *Context, env *Env, x *ast.Case) (value.Value, error) {
	var operand value.Value
	if x.Operand != nil {
		var err error
		operand, err = Eval(ctx, env, x.Operand)
		if err != nil {
			return nil, err
		}
		if !ctx.Compat && operand.Kind() == value.KindMissing {
			return value.Missing, nil
		}
	}
	for _, w := range x.Whens {
		var cond value.Value
		var err error
		if x.Operand != nil {
			wv, err := Eval(ctx, env, w.Cond)
			if err != nil {
				return nil, err
			}
			cond, err = Comparison(ctx, "=", operand, wv, x.Pos())
			if err != nil {
				return nil, err
			}
		} else {
			cond, err = Eval(ctx, env, w.Cond)
			if err != nil {
				return nil, err
			}
		}
		if !ctx.Compat && cond.Kind() == value.KindMissing {
			return value.Missing, nil
		}
		if IsTrue(cond) {
			return Eval(ctx, env, w.Result)
		}
	}
	if x.Else != nil {
		return Eval(ctx, env, x.Else)
	}
	return value.Null, nil
}

func evalCall(ctx *Context, env *Env, x *ast.Call) (value.Value, error) {
	if ctx.Funcs == nil {
		return nil, fmt.Errorf("eval: no function source configured (call to %s at %s)", x.Name, x.Pos())
	}
	def, ok := ctx.Funcs.LookupFunc(x.Name)
	if !ok {
		return nil, &NameError{Pos: x.Pos(), Name: x.Name + "()"}
	}
	if len(x.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(x.Args) > def.MaxArgs) {
		return nil, fmt.Errorf("eval: %s expects %d..%d arguments, got %d at %s",
			x.Name, def.MinArgs, def.MaxArgs, len(x.Args), x.Pos())
	}
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := Eval(ctx, env, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return callFunc(ctx, def, args, x.Pos())
}

// callFunc invokes a resolved function on already-evaluated arguments,
// applying the mode policy to type errors it raises.
func callFunc(ctx *Context, def *FuncDef, args []value.Value, pos lexer.Pos) (value.Value, error) {
	v, err := def.Fn(ctx, args)
	if err != nil {
		if te, ok := err.(*TypeError); ok {
			if te.Pos == (lexer.Pos{}) {
				te.Pos = pos
			}
			if ctx.Mode == Permissive {
				return value.Missing, nil
			}
		}
		return nil, err
	}
	return v, nil
}

func evalTupleCtor(ctx *Context, env *Env, x *ast.TupleCtor) (value.Value, error) {
	shape := value.ShapeOf()
	vals := make([]value.Value, 0, len(x.Fields))
	for _, f := range x.Fields {
		nameV, err := Eval(ctx, env, f.Name)
		if err != nil {
			return nil, err
		}
		name, ok, err := tupleFieldName(ctx, nameV, x.Pos())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		v, err := Eval(ctx, env, f.Value)
		if err != nil {
			return nil, err
		}
		shape = shape.With(name)
		vals = append(vals, v)
	}
	return shape.New(vals), nil
}

// tupleFieldName validates an evaluated attribute-name operand. A
// non-string name is a type fault; in permissive mode the attribute is
// skipped (ok=false, MISSING attribute name => missing attribute)
// without evaluating its value.
func tupleFieldName(ctx *Context, nameV value.Value, pos lexer.Pos) (string, bool, error) {
	name, ok := nameV.(value.String)
	if !ok {
		if _, err := ctx.mistyped(pos, "tuple constructor", "attribute name is %s", nameV.Kind().String()); err != nil {
			return "", false, err
		}
		return "", false, nil
	}
	return string(name), true, nil
}
