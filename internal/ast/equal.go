package ast

import (
	"math"

	"sqlpp/internal/value"
)

// Equal reports whether two trees are the same query: the same node
// types with the same operators, names, flags and literal values, in the
// same places. Source positions and physical annotations (SFW.Phys) are
// ignored, and a nil list equals an empty one — except In.List, whose
// nil-ness selects the IN form. Literals are equal only when they are
// the same value of the same kind: 1 and 1.0 differ.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *Literal:
		y, ok := b.(*Literal)
		return ok && sameLiteral(x.Val, y.Val)
	case *VarRef:
		y, ok := b.(*VarRef)
		return ok && x.Name == y.Name
	case *NamedRef:
		y, ok := b.(*NamedRef)
		return ok && x.Name == y.Name
	case *FieldAccess:
		y, ok := b.(*FieldAccess)
		return ok && x.Name == y.Name && Equal(x.Base, y.Base)
	case *IndexAccess:
		y, ok := b.(*IndexAccess)
		return ok && Equal(x.Base, y.Base) && Equal(x.Index, y.Index)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && Equal(x.Operand, y.Operand)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Negate == y.Negate && Equal(x.Target, y.Target) &&
			Equal(x.Pattern, y.Pattern) && Equal(x.Escape, y.Escape)
	case *Between:
		y, ok := b.(*Between)
		return ok && x.Negate == y.Negate && Equal(x.Target, y.Target) &&
			Equal(x.Lo, y.Lo) && Equal(x.Hi, y.Hi)
	case *In:
		y, ok := b.(*In)
		return ok && x.Negate == y.Negate && (x.List == nil) == (y.List == nil) &&
			Equal(x.Target, y.Target) && equalExprs(x.List, y.List) && Equal(x.Set, y.Set)
	case *Is:
		y, ok := b.(*Is)
		return ok && x.What == y.What && x.Negate == y.Negate && Equal(x.Target, y.Target)
	case *Quantified:
		y, ok := b.(*Quantified)
		return ok && x.Op == y.Op && x.All == y.All && Equal(x.Target, y.Target) && Equal(x.Set, y.Set)
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) || !Equal(x.Operand, y.Operand) || !Equal(x.Else, y.Else) {
			return false
		}
		for i := range x.Whens {
			if !Equal(x.Whens[i].Cond, y.Whens[i].Cond) || !Equal(x.Whens[i].Result, y.Whens[i].Result) {
				return false
			}
		}
		return true
	case *Call:
		y, ok := b.(*Call)
		return ok && equalCalls(x, y)
	case *TupleCtor:
		y, ok := b.(*TupleCtor)
		if !ok || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if !Equal(x.Fields[i].Name, y.Fields[i].Name) || !Equal(x.Fields[i].Value, y.Fields[i].Value) {
				return false
			}
		}
		return true
	case *ArrayCtor:
		y, ok := b.(*ArrayCtor)
		return ok && equalExprs(x.Elems, y.Elems)
	case *BagCtor:
		y, ok := b.(*BagCtor)
		return ok && equalExprs(x.Elems, y.Elems)
	case *Exists:
		y, ok := b.(*Exists)
		return ok && Equal(x.Operand, y.Operand)
	case *SFW:
		y, ok := b.(*SFW)
		return ok && equalSFW(x, y)
	case *SetOp:
		y, ok := b.(*SetOp)
		return ok && x.Op == y.Op && x.All == y.All && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *With:
		y, ok := b.(*With)
		if !ok || len(x.Bindings) != len(y.Bindings) || !Equal(x.Body, y.Body) {
			return false
		}
		for i := range x.Bindings {
			if x.Bindings[i].Name != y.Bindings[i].Name || !Equal(x.Bindings[i].Expr, y.Bindings[i].Expr) {
				return false
			}
		}
		return true
	case *Window:
		y, ok := b.(*Window)
		return ok && equalCalls(x.Fn, y.Fn) && equalWindowSpecs(x.Spec, y.Spec)
	}
	panic("ast: Equal of unknown node type")
}

// sameLiteral is value identity: same kind, same value, and for floats
// the same bits (so 0.0 and -0.0 differ, as their printed forms do).
func sameLiteral(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if fa, ok := a.(value.Float); ok {
		return math.Float64bits(float64(fa)) == math.Float64bits(float64(b.(value.Float)))
	}
	return value.DeepEqual(a, b)
}

func equalExprs(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalCalls(x, y *Call) bool {
	if x == nil || y == nil {
		return x == y
	}
	return x.Name == y.Name && x.Distinct == y.Distinct && x.Star == y.Star && equalExprs(x.Args, y.Args)
}

func equalOrderItems(a, b []OrderItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Desc != y.Desc || (x.NullsFirst == nil) != (y.NullsFirst == nil) ||
			(x.NullsFirst != nil && *x.NullsFirst != *y.NullsFirst) || !Equal(x.Expr, y.Expr) {
			return false
		}
	}
	return true
}

func equalWindowSpecs(a, b WindowSpec) bool {
	return equalExprs(a.PartitionBy, b.PartitionBy) && equalOrderItems(a.OrderBy, b.OrderBy)
}

func equalSFW(x, y *SFW) bool {
	xs, ys := &x.Select, &y.Select
	if xs.Distinct != ys.Distinct || xs.Star != ys.Star || len(xs.Items) != len(ys.Items) ||
		!Equal(xs.Value, ys.Value) || !Equal(xs.PivotAt, ys.PivotAt) {
		return false
	}
	for i := range xs.Items {
		a, b := xs.Items[i], ys.Items[i]
		if a.Alias != b.Alias || a.HasAlias != b.HasAlias || !Equal(a.Expr, b.Expr) || !Equal(a.StarOf, b.StarOf) {
			return false
		}
	}
	if len(x.From) != len(y.From) || len(x.Lets) != len(y.Lets) || len(x.Windows) != len(y.Windows) ||
		x.SelectLast != y.SelectLast || (x.GroupBy == nil) != (y.GroupBy == nil) {
		return false
	}
	for i := range x.From {
		if !equalFromItems(x.From[i], y.From[i]) {
			return false
		}
	}
	for i := range x.Lets {
		if x.Lets[i].Name != y.Lets[i].Name || !Equal(x.Lets[i].Expr, y.Lets[i].Expr) {
			return false
		}
	}
	if g, h := x.GroupBy, y.GroupBy; g != nil {
		if g.GroupAs != h.GroupAs || len(g.Keys) != len(h.Keys) {
			return false
		}
		for i := range g.Keys {
			if g.Keys[i].Alias != h.Keys[i].Alias || !Equal(g.Keys[i].Expr, h.Keys[i].Expr) {
				return false
			}
		}
	}
	for i := range x.Windows {
		a, b := x.Windows[i], y.Windows[i]
		if a.Name != b.Name || !equalCalls(a.Fn, b.Fn) || !equalWindowSpecs(a.Spec, b.Spec) {
			return false
		}
	}
	return Equal(x.Where, y.Where) && Equal(x.Having, y.Having) && equalOrderItems(x.OrderBy, y.OrderBy) &&
		Equal(x.Limit, y.Limit) && Equal(x.Offset, y.Offset)
}

func equalFromItems(a, b FromItem) bool {
	switch x := a.(type) {
	case *FromExpr:
		y, ok := b.(*FromExpr)
		return ok && x.As == y.As && x.AtVar == y.AtVar && Equal(x.Expr, y.Expr)
	case *FromUnpivot:
		y, ok := b.(*FromUnpivot)
		return ok && x.ValueVar == y.ValueVar && x.NameVar == y.NameVar && Equal(x.Expr, y.Expr)
	case *FromJoin:
		y, ok := b.(*FromJoin)
		return ok && x.Kind == y.Kind && equalFromItems(x.Left, y.Left) &&
			equalFromItems(x.Right, y.Right) && Equal(x.On, y.On)
	}
	panic("ast: Equal of unknown FROM item type")
}
