package eval

import (
	"fmt"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// Closure compilation: each AST node is lowered once, at prepare time,
// to a CompiledExpr closure. The per-row work then runs without the
// tree-walk dispatch of Eval — literals are captured constants, the
// typing-mode and compat branches are resolved to captured bits,
// function definitions and LIKE matchers for literal patterns are
// looked up once, and argument/element buffers are the only per-row
// allocations that remain.
//
// Identity with the interpreter is held by construction: every compiled
// closure delegates to the same value-level helpers Eval uses (Arith,
// Comparison, Navigate, likeValue, inValues, ...), evaluates operands
// in the same order, and produces the same error values. Node kinds the
// compiler does not lower — nested query blocks chiefly — become a
// closure around Eval (Interpret), so compiled and interpreted subtrees
// mix freely.
//
// A CompiledExpr is only valid under a Context whose Mode and Compat
// match the CompileOpts it was compiled with; the planner guarantees
// that by compiling with the engine's own option bits.
//
// Discipline, enforced by the compilepure linter: closures are
// allocated at compile time only. No compiled closure body may allocate
// another closure per row, so no func literal nests inside another func
// literal in this file.

// CompiledExpr is a prepared expression: Eval specialized to one AST
// node, ready to run against a row environment.
type CompiledExpr func(*Context, *Env) (value.Value, error)

// CompileOpts are the semantics bits a compilation specializes on. They
// must match the Context the compiled expression later runs under.
type CompileOpts struct {
	// Mode is the typing mode (permissive vs stop-on-error) baked into
	// the compiled closures.
	Mode TypingMode
	// Compat is the SQL-compatibility bit baked into the compiled
	// closures.
	Compat bool
	// Funcs resolves function calls at compile time. Nil leaves calls
	// on the interpreted path.
	Funcs FuncSource
}

// Compile lowers e to a closure. A nil expression compiles to nil.
func Compile(e ast.Expr, o CompileOpts) CompiledExpr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.Literal:
		return compileLiteral(x)
	case *ast.VarRef:
		return compileVarRef(x)
	case *ast.NamedRef:
		return compileNamedRef(x)
	case *ast.FieldAccess:
		return compileFieldAccess(x, o)
	case *ast.IndexAccess:
		return compileIndexAccess(x, o)
	case *ast.Unary:
		return compileUnary(x, o)
	case *ast.Binary:
		return compileBinary(x, o)
	case *ast.Like:
		return compileLikeExpr(x, o)
	case *ast.Between:
		return compileBetween(x, o)
	case *ast.In:
		return compileIn(x, o)
	case *ast.Is:
		return compileIs(x, o)
	case *ast.Quantified:
		return compileQuantified(x, o)
	case *ast.Case:
		return compileCase(x, o)
	case *ast.Call:
		return compileCall(x, o)
	case *ast.TupleCtor:
		return compileTupleCtor(x, o)
	case *ast.ArrayCtor:
		return compileArrayCtor(x, o)
	case *ast.BagCtor:
		return compileBagCtor(x, o)
	case *ast.Exists:
		return compileExists(x, o)
	}
	// Query blocks (PIVOT included), set ops, WITH and any future node
	// kinds run through the interpreter; their sub-blocks get their own
	// compiled physical plans when they execute.
	return Interpret(e)
}

// CompileAll compiles a slice of expressions; nil in, nil out.
func CompileAll(es []ast.Expr, o CompileOpts) []CompiledExpr {
	if es == nil {
		return nil
	}
	out := make([]CompiledExpr, len(es))
	for i, e := range es {
		out[i] = Compile(e, o)
	}
	return out
}

// Interpret returns e's evaluator through the tree-walking interpreter:
// what Compile produces for node kinds it does not lower, and what a
// block that runs without a physical plan (the reference oracle) hands
// the operators it shares with planned blocks. A nil expression yields
// nil.
func Interpret(e ast.Expr) CompiledExpr {
	if e == nil {
		return nil
	}
	return func(ctx *Context, env *Env) (value.Value, error) {
		return Eval(ctx, env, e)
	}
}

// compileErr lowers a prepare-time failure (unknown function, bad
// arity) to a closure returning it, preserving the interpreter's
// behavior of reporting such errors before evaluating any operand.
func compileErr(err error) CompiledExpr {
	return func(*Context, *Env) (value.Value, error) {
		return nil, err
	}
}

func compileLiteral(x *ast.Literal) CompiledExpr {
	v := x.Val
	return func(*Context, *Env) (value.Value, error) {
		return v, nil
	}
}

func compileVarRef(x *ast.VarRef) CompiledExpr {
	name := x.Name
	errUnresolved := &NameError{Pos: x.Pos(), Name: name}
	return func(ctx *Context, env *Env) (value.Value, error) {
		if v, ok := env.Lookup(name); ok {
			return v, nil
		}
		if ctx.Names != nil {
			if v, ok := ctx.Names.LookupValue(name); ok {
				return v, nil
			}
		}
		return nil, errUnresolved
	}
}

func compileNamedRef(x *ast.NamedRef) CompiledExpr {
	name := x.Name
	errUnresolved := &NameError{Pos: x.Pos(), Name: name}
	return func(ctx *Context, env *Env) (value.Value, error) {
		if ctx.Names != nil {
			if v, ok := ctx.Names.LookupValue(name); ok {
				return v, nil
			}
		}
		return nil, errUnresolved
	}
}

func compileFieldAccess(x *ast.FieldAccess, o CompileOpts) CompiledExpr {
	base := Compile(x.Base, o)
	name, pos := x.Name, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		v, err := base(ctx, env)
		if err != nil {
			return nil, err
		}
		return Navigate(ctx, v, name, pos)
	}
}

func compileIndexAccess(x *ast.IndexAccess, o CompileOpts) CompiledExpr {
	base := Compile(x.Base, o)
	idx := Compile(x.Index, o)
	pos := x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		bv, err := base(ctx, env)
		if err != nil {
			return nil, err
		}
		iv, err := idx(ctx, env)
		if err != nil {
			return nil, err
		}
		return indexValue(ctx, bv, iv, pos)
	}
}

func compileUnary(x *ast.Unary, o CompileOpts) CompiledExpr {
	switch x.Op {
	case "-", "NOT":
	default:
		return Interpret(x)
	}
	operand := Compile(x.Operand, o)
	op, pos := x.Op, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		v, err := operand(ctx, env)
		if err != nil {
			return nil, err
		}
		return unaryValue(ctx, op, v, pos)
	}
}

func compileBinary(x *ast.Binary, o CompileOpts) CompiledExpr {
	switch x.Op {
	case "AND", "OR":
		return compileLogical(x, o)
	case "+", "-", "*", "/", "%":
		return compileArith(x, o)
	case "||":
		return compileConcat(x, o)
	case "=", "<>", "<", "<=", ">", ">=":
		return compileComparison(x, o)
	}
	return Interpret(x)
}

func compileArith(x *ast.Binary, o CompileOpts) CompiledExpr {
	l := Compile(x.L, o)
	r := Compile(x.R, o)
	op, pos := x.Op, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		lv, err := l(ctx, env)
		if err != nil {
			return nil, err
		}
		rv, err := r(ctx, env)
		if err != nil {
			return nil, err
		}
		return Arith(ctx, op, lv, rv, pos)
	}
}

func compileConcat(x *ast.Binary, o CompileOpts) CompiledExpr {
	l := Compile(x.L, o)
	r := Compile(x.R, o)
	pos := x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		lv, err := l(ctx, env)
		if err != nil {
			return nil, err
		}
		rv, err := r(ctx, env)
		if err != nil {
			return nil, err
		}
		return evalConcat(ctx, lv, rv, pos)
	}
}

func compileComparison(x *ast.Binary, o CompileOpts) CompiledExpr {
	l := Compile(x.L, o)
	r := Compile(x.R, o)
	op, pos := x.Op, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		lv, err := l(ctx, env)
		if err != nil {
			return nil, err
		}
		rv, err := r(ctx, env)
		if err != nil {
			return nil, err
		}
		return Comparison(ctx, op, lv, rv, pos)
	}
}

// compileLogical lowers AND/OR. Laziness is preserved: a determining
// left operand skips the right closure, exactly as evalLogical skips
// the right subtree.
func compileLogical(x *ast.Binary, o CompileOpts) CompiledExpr {
	l := Compile(x.L, o)
	r := Compile(x.R, o)
	isAnd := x.Op == "AND"
	strict := o.Mode == StopOnError
	compat := o.Compat
	op, pos := x.Op, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		lv, err := l(ctx, env)
		if err != nil {
			return nil, err
		}
		lt, ok := truthOf(lv)
		if !ok {
			if strict {
				return nil, &TypeError{Pos: pos, Op: op, Detail: "left operand is " + lv.Kind().String()}
			}
			return value.Missing, nil
		}
		if isAnd && lt == truthFalse {
			return value.False, nil
		}
		if !isAnd && lt == truthTrue {
			return value.True, nil
		}
		rv, err := r(ctx, env)
		if err != nil {
			return nil, err
		}
		rt, ok := truthOf(rv)
		if !ok {
			if strict {
				return nil, &TypeError{Pos: pos, Op: op, Detail: "right operand is " + rv.Kind().String()}
			}
			return value.Missing, nil
		}
		if isAnd {
			return and3(lt, rt).valc(compat), nil
		}
		return or3(lt, rt).valc(compat), nil
	}
}

// compileLikeExpr lowers LIKE. When the pattern (and the ESCAPE
// operand, if any) is a literal, the matcher is compiled once here and
// the per-row work is a single match call; otherwise the generic
// closure mirrors evalLike's operand order exactly.
func compileLikeExpr(x *ast.Like, o CompileOpts) CompiledExpr {
	target := Compile(x.Target, o)
	negate, pos := x.Negate, x.Pos()
	strict := o.Mode == StopOnError
	compat := o.Compat

	plit, pIsLit := x.Pattern.(*ast.Literal)
	elit, eIsLit := x.Escape.(*ast.Literal)
	if pIsLit && (x.Escape == nil || eIsLit) {
		if ps, isStr := plit.Val.(value.String); isStr {
			escape := rune(0)
			escOK := true
			if x.Escape != nil {
				es, isEscStr := elit.Val.(value.String)
				if !isEscStr || len([]rune(string(es))) != 1 {
					escOK = false
				} else {
					escape = []rune(string(es))[0]
				}
			}
			var m *likeMatcher
			mOK := false
			if escOK {
				m, mOK = compileLike(string(ps), escape)
			}
			patStr := ps.String()
			return compileLikeLiteral(target, m, mOK, escOK, patStr, negate, strict, compat, pos)
		}
	}

	pattern := Compile(x.Pattern, o)
	var escapeC CompiledExpr
	if x.Escape != nil {
		escapeC = Compile(x.Escape, o)
	}
	return compileLikeGeneric(target, pattern, escapeC, negate, pos)
}

// compileLikeLiteral is the literal-pattern LIKE closure. The checks
// mirror evalLike's order for a literal pattern: target evaluates
// first, then the ESCAPE validation verdict, then absent propagation,
// then the string check, then the (precompiled) pattern verdict.
func compileLikeLiteral(target CompiledExpr, m *likeMatcher, mOK, escOK bool, patStr string, negate, strict, compat bool, pos lexer.Pos) CompiledExpr {
	return func(ctx *Context, env *Env) (value.Value, error) {
		tv, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		if !escOK {
			if strict {
				return nil, &TypeError{Pos: pos, Op: "LIKE", Detail: "ESCAPE must be a single-character string"}
			}
			return value.Missing, nil
		}
		if value.IsAbsent(tv) {
			return absentVal(compat, tv.Kind() == value.KindMissing), nil
		}
		ts, isStr := tv.(value.String)
		if !isStr {
			if strict {
				return nil, &TypeError{Pos: pos, Op: "LIKE", Detail: "operands are " + tv.Kind().String() + " and string"}
			}
			return value.Missing, nil
		}
		if !mOK {
			if strict {
				return nil, &TypeError{Pos: pos, Op: "LIKE", Detail: "malformed pattern " + patStr}
			}
			return value.Missing, nil
		}
		result := m.match(string(ts))
		if negate {
			result = !result
		}
		return value.Bool(result), nil
	}
}

func compileLikeGeneric(target, pattern, escapeC CompiledExpr, negate bool, pos lexer.Pos) CompiledExpr {
	return func(ctx *Context, env *Env) (value.Value, error) {
		tv, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		pv, err := pattern(ctx, env)
		if err != nil {
			return nil, err
		}
		var escape rune
		if escapeC != nil {
			ev, err := escapeC(ctx, env)
			if err != nil {
				return nil, err
			}
			var bad value.Value
			escape, bad, err = likeEscapeRune(ctx, ev, pos)
			if bad != nil || err != nil {
				return bad, err
			}
		}
		return likeValue(ctx, tv, pv, escape, negate, pos)
	}
}

func compileBetween(x *ast.Between, o CompileOpts) CompiledExpr {
	target := Compile(x.Target, o)
	lo := Compile(x.Lo, o)
	hi := Compile(x.Hi, o)
	negate, pos := x.Negate, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		tv, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		lov, err := lo(ctx, env)
		if err != nil {
			return nil, err
		}
		hiv, err := hi(ctx, env)
		if err != nil {
			return nil, err
		}
		return betweenValues(ctx, tv, lov, hiv, negate, pos)
	}
}

func compileIn(x *ast.In, o CompileOpts) CompiledExpr {
	target := Compile(x.Target, o)
	negate, pos := x.Negate, x.Pos()
	if x.List != nil {
		list := CompileAll(x.List, o)
		return compileInList(target, list, negate, pos)
	}
	set := Compile(x.Set, o)
	return compileInSet(target, set, negate, pos)
}

func compileInList(target CompiledExpr, list []CompiledExpr, negate bool, pos lexer.Pos) CompiledExpr {
	return func(ctx *Context, env *Env) (value.Value, error) {
		tv, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		elems := make([]value.Value, len(list))
		for i, le := range list {
			v, err := le(ctx, env)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return inValues(ctx, tv, elems, negate, pos)
	}
}

func compileInSet(target, set CompiledExpr, negate bool, pos lexer.Pos) CompiledExpr {
	return func(ctx *Context, env *Env) (value.Value, error) {
		tv, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		sv, err := set(ctx, env)
		if err != nil {
			return nil, err
		}
		elems, short, err := collectionElems(ctx, sv, "IN", pos)
		if short != nil || err != nil {
			return short, err
		}
		return inValues(ctx, tv, elems, negate, pos)
	}
}

func compileIs(x *ast.Is, o CompileOpts) CompiledExpr {
	target := Compile(x.Target, o)
	what, negate, pos := x.What, x.Negate, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		v, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		return isValue(ctx, v, what, negate, pos)
	}
}

func compileQuantified(x *ast.Quantified, o CompileOpts) CompiledExpr {
	target := Compile(x.Target, o)
	set := Compile(x.Set, o)
	op, all, pos := x.Op, x.All, x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		tv, err := target(ctx, env)
		if err != nil {
			return nil, err
		}
		sv, err := set(ctx, env)
		if err != nil {
			return nil, err
		}
		elems, short, err := collectionElems(ctx, sv, "quantified comparison", pos)
		if short != nil || err != nil {
			return short, err
		}
		return quantifiedValues(ctx, op, all, tv, elems, pos)
	}
}

func compileCase(x *ast.Case, o CompileOpts) CompiledExpr {
	var operand CompiledExpr
	if x.Operand != nil {
		operand = Compile(x.Operand, o)
	}
	conds := make([]CompiledExpr, len(x.Whens))
	results := make([]CompiledExpr, len(x.Whens))
	for i, w := range x.Whens {
		conds[i] = Compile(w.Cond, o)
		results[i] = Compile(w.Result, o)
	}
	var els CompiledExpr
	if x.Else != nil {
		els = Compile(x.Else, o)
	}
	compat := o.Compat
	pos := x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		var opv value.Value
		if operand != nil {
			var err error
			opv, err = operand(ctx, env)
			if err != nil {
				return nil, err
			}
			if !compat && opv.Kind() == value.KindMissing {
				return value.Missing, nil
			}
		}
		for i := range conds {
			var cond value.Value
			var err error
			if operand != nil {
				wv, werr := conds[i](ctx, env)
				if werr != nil {
					return nil, werr
				}
				cond, err = Comparison(ctx, "=", opv, wv, pos)
			} else {
				cond, err = conds[i](ctx, env)
			}
			if err != nil {
				return nil, err
			}
			if !compat && cond.Kind() == value.KindMissing {
				return value.Missing, nil
			}
			if IsTrue(cond) {
				return results[i](ctx, env)
			}
		}
		if els != nil {
			return els(ctx, env)
		}
		return value.Null, nil
	}
}

// compileCall resolves the function definition and checks arity once at
// compile time; resolution failures compile to error closures so they
// surface at the same point the interpreter reports them — before any
// argument evaluates.
func compileCall(x *ast.Call, o CompileOpts) CompiledExpr {
	if o.Funcs == nil {
		return Interpret(x)
	}
	def, ok := o.Funcs.LookupFunc(x.Name)
	if !ok {
		return compileErr(&NameError{Pos: x.Pos(), Name: x.Name + "()"})
	}
	if len(x.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(x.Args) > def.MaxArgs) {
		return compileErr(fmt.Errorf("eval: %s expects %d..%d arguments, got %d at %s",
			x.Name, def.MinArgs, def.MaxArgs, len(x.Args), x.Pos()))
	}
	args := CompileAll(x.Args, o)
	pos := x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		vals := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a(ctx, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return callFunc(ctx, def, vals, pos)
	}
}

// compileTupleCtor lowers a tuple constructor. One whose attribute names
// are all string literals resolves its shape here, once; any other walks
// the shape tree per evaluation.
//
// governor: accumulation bounded by len(x.Fields), a parse-time constant.
func compileTupleCtor(x *ast.TupleCtor, o CompileOpts) CompiledExpr {
	vals := make([]CompiledExpr, len(x.Fields))
	for i, f := range x.Fields {
		vals[i] = Compile(f.Value, o)
	}
	if shape, ok := literalShape(x); ok {
		return func(ctx *Context, env *Env) (value.Value, error) {
			out := make([]value.Value, len(vals))
			for i, val := range vals {
				v, err := val(ctx, env)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return shape.New(out), nil
		}
	}
	names := make([]CompiledExpr, len(x.Fields))
	for i, f := range x.Fields {
		names[i] = Compile(f.Name, o)
	}
	pos := x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		shape := value.ShapeOf()
		out := make([]value.Value, 0, len(names))
		for i := range names {
			nameV, err := names[i](ctx, env)
			if err != nil {
				return nil, err
			}
			name, ok, err := tupleFieldName(ctx, nameV, pos)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			v, err := vals[i](ctx, env)
			if err != nil {
				return nil, err
			}
			shape = shape.With(name)
			out = append(out, v)
		}
		return shape.New(out), nil
	}
}

// literalShape is the shape of a constructor whose attribute names are
// all string literals.
func literalShape(x *ast.TupleCtor) (*value.Shape, bool) {
	shape := value.ShapeOf()
	for _, f := range x.Fields {
		lit, ok := f.Name.(*ast.Literal)
		if !ok {
			return nil, false
		}
		name, ok := lit.Val.(value.String)
		if !ok {
			return nil, false
		}
		shape = shape.With(string(name))
	}
	return shape, true
}

func compileArrayCtor(x *ast.ArrayCtor, o CompileOpts) CompiledExpr {
	elems := CompileAll(x.Elems, o)
	return func(ctx *Context, env *Env) (value.Value, error) {
		out := make(value.Array, len(elems))
		for i, el := range elems {
			v, err := el(ctx, env)
			if err != nil {
				return nil, err
			}
			// Arrays are positional: a MISSING element becomes NULL so
			// later elements keep their ordinals.
			if v.Kind() == value.KindMissing {
				v = value.Null
			}
			out[i] = v
		}
		return out, nil
	}
}

// compileBagCtor lowers a bag constructor. The closure's append loop is
// bounded by the constructor's literal element count — AST size, not
// data size.
//
// governor: accumulation bounded by len(x.Elems), a parse-time constant.
func compileBagCtor(x *ast.BagCtor, o CompileOpts) CompiledExpr {
	elems := CompileAll(x.Elems, o)
	return func(ctx *Context, env *Env) (value.Value, error) {
		out := make(value.Bag, 0, len(elems))
		for _, el := range elems {
			v, err := el(ctx, env)
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
	}
}

func compileExists(x *ast.Exists, o CompileOpts) CompiledExpr {
	operand := Compile(x.Operand, o)
	pos := x.Pos()
	return func(ctx *Context, env *Env) (value.Value, error) {
		v, err := operand(ctx, env)
		if err != nil {
			return nil, err
		}
		return existsValue(ctx, v, pos)
	}
}
