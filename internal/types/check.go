package types

import (
	"fmt"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// ProblemCode classifies a static-checker finding so downstream layers
// (package sema) can map it to a severity without parsing the message.
type ProblemCode string

// Problem codes. The split that matters is type faults (stop-on-error
// mode would abort at runtime were the expression evaluated) versus
// guaranteed-MISSING findings (the dynamic semantics yield MISSING in
// both modes — navigation into an absent attribute is not a fault).
const (
	// Type faults under stop-on-error (§VI).
	CodeBagIndex      ProblemCode = "bag-index"      // indexing an unordered bag
	CodeNonNumeric    ProblemCode = "non-numeric"    // arithmetic over a provably non-numeric operand
	CodeIncomparable  ProblemCode = "incomparable"   // ordering between incompatible comparison classes
	CodeNonString     ProblemCode = "non-string"     // || or LIKE over a provably non-string operand
	CodeNavInto       ProblemCode = "nav-scalar"     // navigation into a scalar or collection
	CodeNonCollection ProblemCode = "non-collection" // COLL_* aggregate over a provably non-collection argument
	// Guaranteed MISSING in both modes.
	CodeClosedMiss ProblemCode = "closed-miss" // attribute a closed struct type proves absent
)

// IsTypeFault reports whether the code names a finding the stop-on-error
// typing mode (§VI) would abort on at runtime, as opposed to one the
// dynamic semantics absorb as MISSING in every mode.
func (c ProblemCode) IsTypeFault() bool { return c != CodeClosedMiss }

// Problem is one finding of the static checker.
type Problem struct {
	Pos  lexer.Pos
	Code ProblemCode
	Msg  string
}

// String renders the problem with its position.
func (p Problem) String() string { return fmt.Sprintf("%s: %s", p.Pos, p.Msg) }

// CheckQuery statically checks a rewritten (Core-form) query against the
// declared schemas: navigation into attributes that a closed struct type
// proves absent, ordering comparisons between provably incomparable
// types, and arithmetic over provably non-numeric operands. It
// implements the paper's §IV observation that the optional schema
// enables static type checking — findings are advisory (the dynamic
// semantics would yield MISSING), so they are returned, not enforced.
func CheckQuery(e ast.Expr, s *Schema) []Problem {
	c := &checker{schema: s}
	c.expr(e, typeEnv{})
	return c.problems
}

type typeEnv map[string]Type

func (env typeEnv) child() typeEnv {
	out := make(typeEnv, len(env)+2)
	for k, v := range env {
		out[k] = v
	}
	return out
}

type checker struct {
	schema   *Schema
	problems []Problem
}

func (c *checker) report(pos lexer.Pos, code ProblemCode, format string, args ...any) {
	c.problems = append(c.problems, Problem{Pos: pos, Code: code, Msg: fmt.Sprintf(format, args...)})
}

// expr computes the static type of e (Any when unknown), reporting
// problems along the way.
func (c *checker) expr(e ast.Expr, env typeEnv) Type {
	switch x := e.(type) {
	case nil:
		return Any
	case *ast.Literal:
		return literalType(x.Val)
	case *ast.VarRef:
		if t, ok := env[x.Name]; ok {
			return t
		}
		return Any
	case *ast.NamedRef:
		if t, ok := c.schema.TypeOf(x.Name); ok {
			return t
		}
		return Any
	case *ast.FieldAccess:
		base := c.expr(x.Base, env)
		return c.navigate(base, x.Name, x.Pos())
	case *ast.IndexAccess:
		base := c.expr(x.Base, env)
		c.expr(x.Index, env)
		switch bt := base.(type) {
		case *ArrayOf:
			return bt.Elem
		case *BagOf:
			c.report(x.Pos(), CodeBagIndex, "indexing into a bag: bags are unordered")
			return Any
		}
		return Any
	case *ast.Unary:
		t := c.expr(x.Operand, env)
		if x.Op == "-" && provablyNonNumeric(t) {
			c.report(x.Pos(), CodeNonNumeric, "unary - over %s", t)
		}
		return t
	case *ast.Binary:
		lt := c.expr(x.L, env)
		rt := c.expr(x.R, env)
		switch x.Op {
		case "+", "-", "*", "/", "%":
			if provablyNonNumeric(lt) {
				c.report(x.Pos(), CodeNonNumeric, "arithmetic %s over %s", x.Op, lt)
			}
			if provablyNonNumeric(rt) {
				c.report(x.Pos(), CodeNonNumeric, "arithmetic %s over %s", x.Op, rt)
			}
			return numericResult(lt, rt)
		case "<", "<=", ">", ">=":
			if incomparable(lt, rt) {
				c.report(x.Pos(), CodeIncomparable, "ordering comparison between %s and %s", lt, rt)
			}
			return BoolType
		case "=", "<>":
			return BoolType
		case "AND", "OR":
			return BoolType
		case "||":
			if provablyNot(lt, StringType) {
				c.report(x.Pos(), CodeNonString, "|| over %s", lt)
			}
			if provablyNot(rt, StringType) {
				c.report(x.Pos(), CodeNonString, "|| over %s", rt)
			}
			return StringType
		}
		return Any
	case *ast.Like:
		if t := c.expr(x.Target, env); provablyNot(t, StringType) {
			c.report(x.Pos(), CodeNonString, "LIKE over %s", t)
		}
		c.expr(x.Pattern, env)
		c.expr(x.Escape, env)
		return BoolType
	case *ast.Between:
		c.expr(x.Target, env)
		c.expr(x.Lo, env)
		c.expr(x.Hi, env)
		return BoolType
	case *ast.In:
		c.expr(x.Target, env)
		for _, l := range x.List {
			c.expr(l, env)
		}
		c.expr(x.Set, env)
		return BoolType
	case *ast.Is:
		c.expr(x.Target, env)
		return BoolType
	case *ast.Quantified:
		c.expr(x.Target, env)
		c.expr(x.Set, env)
		return BoolType
	case *ast.Exists:
		c.expr(x.Operand, env)
		return BoolType
	case *ast.Case:
		c.expr(x.Operand, env)
		var out Type
		for _, w := range x.Whens {
			c.expr(w.Cond, env)
			out = Unify(out, c.expr(w.Result, env))
		}
		if x.Else != nil {
			out = Unify(out, c.expr(x.Else, env))
		}
		if out == nil {
			return Any
		}
		return out
	case *ast.Call:
		var argTypes []Type
		for _, a := range x.Args {
			argTypes = append(argTypes, c.expr(a, env))
		}
		if collAggregates[x.Name] && len(argTypes) == 1 && provablyNonCollection(argTypes[0]) {
			c.report(x.Pos(), CodeNonCollection, "%s over %s, not a collection", x.Name, argTypes[0])
		}
		return Any
	case *ast.TupleCtor:
		st := &Struct{}
		for _, f := range x.Fields {
			vt := c.expr(f.Value, env)
			if lit, ok := f.Name.(*ast.Literal); ok {
				if name, ok := lit.Val.(value.String); ok {
					st.Fields = append(st.Fields, Field{Name: string(name), Type: vt})
					continue
				}
			}
			c.expr(f.Name, env)
			st.Open = true
		}
		return st
	case *ast.ArrayCtor:
		var elem Type
		for _, el := range x.Elems {
			elem = Unify(elem, c.expr(el, env))
		}
		if elem == nil {
			elem = Any
		}
		return &ArrayOf{Elem: elem}
	case *ast.BagCtor:
		var elem Type
		for _, el := range x.Elems {
			elem = Unify(elem, c.expr(el, env))
		}
		if elem == nil {
			elem = Any
		}
		return &BagOf{Elem: elem}
	case *ast.SFW:
		return c.sfw(x, env)
	case *ast.SetOp:
		lt := c.expr(x.L, env)
		rt := c.expr(x.R, env)
		return Unify(lt, rt)
	case *ast.With:
		inner := env.child()
		for _, b := range x.Bindings {
			inner[b.Name] = c.expr(b.Expr, inner)
		}
		return c.expr(x.Body, inner)
	case *ast.Window:
		for _, a := range x.Fn.Args {
			c.expr(a, env)
		}
		return Any
	}
	return Any
}

// navigate types base.name, reporting definite misses.
func (c *checker) navigate(base Type, name string, pos lexer.Pos) Type {
	switch bt := base.(type) {
	case *Struct:
		if f, ok := bt.Attr(name); ok {
			return f.Type
		}
		if !bt.Open {
			c.report(pos, CodeClosedMiss, "attribute %q cannot exist: closed type %s", name, bt)
		}
		return Any
	case *Union:
		var out Type
		navigable := false
		for _, m := range bt.Members {
			if st, ok := m.(*Struct); ok {
				navigable = true
				if f, ok := st.Attr(name); ok {
					out = Unify(out, f.Type)
				}
			}
		}
		if !navigable {
			c.report(pos, CodeNavInto, "navigation .%s into %s, which has no tuple member", name, bt)
		}
		if out == nil {
			return Any
		}
		return out
	case *ArrayOf, *BagOf:
		c.report(pos, CodeNavInto, "navigation .%s into a collection; range over it with FROM instead", name)
		return Any
	case Primitive:
		if bt != Any && bt != NullType {
			c.report(pos, CodeNavInto, "navigation .%s into %s", name, bt)
		}
		return Any
	}
	return Any
}

// sfw types a query block and checks its clauses. A PIVOT block builds
// one tuple whose attribute names are data.
func (c *checker) sfw(q *ast.SFW, env typeEnv) Type {
	inner := env.child()
	for _, f := range q.From {
		c.fromItem(f, inner)
	}
	for _, l := range q.Lets {
		inner[l.Name] = c.expr(l.Expr, inner)
	}
	c.expr(q.Where, inner)
	post := inner
	if q.GroupBy != nil {
		post = env.child()
		for _, k := range q.GroupBy.Keys {
			post[k.Alias] = c.expr(k.Expr, inner)
		}
		if q.GroupBy.GroupAs != "" {
			content := &Struct{Open: true}
			post[q.GroupBy.GroupAs] = &BagOf{Elem: content}
		}
	}
	c.expr(q.Having, post)
	for _, w := range q.Windows {
		for _, a := range w.Fn.Args {
			c.expr(a, post)
		}
		for _, pe := range w.Spec.PartitionBy {
			c.expr(pe, post)
		}
		for _, o := range w.Spec.OrderBy {
			c.expr(o.Expr, post)
		}
		post[w.Name] = Any
	}
	elem := c.expr(q.Select.Value, post)
	c.expr(q.Select.PivotAt, post)
	for _, o := range q.OrderBy {
		c.expr(o.Expr, post)
	}
	c.expr(q.Limit, env)
	c.expr(q.Offset, env)
	if q.Select.PivotAt != nil {
		return &Struct{Open: true}
	}
	if elem == nil {
		elem = Any
	}
	if len(q.OrderBy) > 0 {
		return &ArrayOf{Elem: elem}
	}
	return &BagOf{Elem: elem}
}

// fromItem types the variables a FROM item introduces.
func (c *checker) fromItem(f ast.FromItem, env typeEnv) {
	switch x := f.(type) {
	case *ast.FromExpr:
		src := c.expr(x.Expr, env)
		env[x.As] = rangeElement(src)
		if x.AtVar != "" {
			env[x.AtVar] = IntType
		}
	case *ast.FromUnpivot:
		src := c.expr(x.Expr, env)
		env[x.ValueVar] = unpivotValue(src)
		env[x.NameVar] = StringType
	case *ast.FromJoin:
		c.fromItem(x.Left, env)
		c.fromItem(x.Right, env)
		c.expr(x.On, env)
	}
}

// rangeElement is the static type a FROM variable binds to when ranging
// over src.
func rangeElement(src Type) Type {
	switch t := src.(type) {
	case *ArrayOf:
		return t.Elem
	case *BagOf:
		return t.Elem
	case *Union:
		var out Type
		for _, m := range t.Members {
			out = Unify(out, rangeElement(m))
		}
		if out == nil {
			return Any
		}
		return out
	default:
		// Permissive mode binds non-collections as singletons.
		return src
	}
}

func unpivotValue(src Type) Type {
	st, ok := src.(*Struct)
	if !ok || st.Open {
		return Any
	}
	var out Type
	for _, f := range st.Fields {
		out = Unify(out, f.Type)
	}
	if out == nil {
		return Any
	}
	return out
}

func literalType(v value.Value) Type {
	switch v.Kind() {
	case value.KindBool:
		return BoolType
	case value.KindInt:
		return IntType
	case value.KindFloat:
		return FloatType
	case value.KindString:
		return StringType
	case value.KindBytes:
		return BytesType
	case value.KindNull:
		return NullType
	default:
		return Any
	}
}

// provablyNonNumeric reports whether no value of t can be numeric.
func provablyNonNumeric(t Type) bool {
	switch x := t.(type) {
	case Primitive:
		return x != Any && x != IntType && x != FloatType && x != NullType
	case *Union:
		for _, m := range x.Members {
			if !provablyNonNumeric(m) {
				return false
			}
		}
		return true
	case *Struct, *ArrayOf, *BagOf:
		return true
	}
	return false
}

// collAggregates is the aggregate set whose single argument must be a
// collection at runtime (aggInput makes a non-collection argument a type
// fault).
var collAggregates = map[string]bool{
	"COLL_COUNT": true, "COLL_SUM": true, "COLL_AVG": true,
	"COLL_MIN": true, "COLL_MAX": true,
	"COLL_EVERY": true, "COLL_ANY": true, "COLL_SOME": true,
	"COLL_ARRAY_AGG": true,
}

// provablyNonCollection reports whether no value of t can be a
// collection.
func provablyNonCollection(t Type) bool {
	switch x := t.(type) {
	case Primitive:
		return x != Any && x != NullType
	case *Struct:
		return true
	case *Union:
		for _, m := range x.Members {
			if !provablyNonCollection(m) {
				return false
			}
		}
		return true
	}
	return false
}

// provablyNot reports whether no value of t can have the primitive type
// want.
func provablyNot(t Type, want Primitive) bool {
	switch x := t.(type) {
	case Primitive:
		return x != Any && x != want && x != NullType
	case *Union:
		for _, m := range x.Members {
			if !provablyNot(m, want) {
				return false
			}
		}
		return true
	case *Struct, *ArrayOf, *BagOf:
		return true
	}
	return false
}

// incomparable reports whether ordering between the two types is
// provably a type fault: both are known scalar primitives of different
// comparison classes, or either is a known non-scalar.
func incomparable(a, b Type) bool {
	pa, aOK := a.(Primitive)
	pb, bOK := b.(Primitive)
	if aOK && bOK {
		if pa == Any || pb == Any || pa == NullType || pb == NullType {
			return false
		}
		return comparisonClass(pa) != comparisonClass(pb)
	}
	switch a.(type) {
	case *Struct, *ArrayOf, *BagOf:
		return true
	}
	switch b.(type) {
	case *Struct, *ArrayOf, *BagOf:
		return true
	}
	return false
}

// numericResult is the static type of an arithmetic expression: INT only
// when both sides are provably INT, DOUBLE when either side is known
// floating, Any otherwise.
func numericResult(a, b Type) Type {
	pa, aOK := a.(Primitive)
	pb, bOK := b.(Primitive)
	if aOK && bOK && pa == IntType && pb == IntType {
		return IntType
	}
	if (aOK && pa == FloatType) || (bOK && pb == FloatType) {
		return FloatType
	}
	return Any
}

func comparisonClass(p Primitive) int {
	switch p {
	case IntType, FloatType:
		return 1
	case StringType:
		return 2
	case BoolType:
		return 3
	case BytesType:
		return 4
	}
	return 0
}
