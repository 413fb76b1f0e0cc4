package ast

// Visitor is called by Inspect for every expression node. Returning false
// stops descent into the node's children.
type Visitor func(Expr) bool

// Inspect walks the expression tree rooted at e in depth-first order,
// calling v for every expression node. Subquery bodies are visited too:
// the rewriter relies on seeing aggregate calls inside nested blocks.
func Inspect(e Expr, v Visitor) {
	if e == nil || !v(e) {
		return
	}
	switch x := e.(type) {
	case *Literal, *VarRef, *NamedRef:
	case *FieldAccess:
		Inspect(x.Base, v)
	case *IndexAccess:
		Inspect(x.Base, v)
		Inspect(x.Index, v)
	case *Unary:
		Inspect(x.Operand, v)
	case *Binary:
		Inspect(x.L, v)
		Inspect(x.R, v)
	case *Like:
		Inspect(x.Target, v)
		Inspect(x.Pattern, v)
		Inspect(x.Escape, v)
	case *Between:
		Inspect(x.Target, v)
		Inspect(x.Lo, v)
		Inspect(x.Hi, v)
	case *In:
		Inspect(x.Target, v)
		for _, e := range x.List {
			Inspect(e, v)
		}
		Inspect(x.Set, v)
	case *Is:
		Inspect(x.Target, v)
	case *Quantified:
		Inspect(x.Target, v)
		Inspect(x.Set, v)
	case *Case:
		Inspect(x.Operand, v)
		for _, w := range x.Whens {
			Inspect(w.Cond, v)
			Inspect(w.Result, v)
		}
		Inspect(x.Else, v)
	case *Call:
		for _, a := range x.Args {
			Inspect(a, v)
		}
	case *TupleCtor:
		for _, f := range x.Fields {
			Inspect(f.Name, v)
			Inspect(f.Value, v)
		}
	case *ArrayCtor:
		for _, e := range x.Elems {
			Inspect(e, v)
		}
	case *BagCtor:
		for _, e := range x.Elems {
			Inspect(e, v)
		}
	case *Exists:
		Inspect(x.Operand, v)
	case *SFW:
		inspectSFW(x, v)
	case *SetOp:
		Inspect(x.L, v)
		Inspect(x.R, v)
	case *With:
		for _, b := range x.Bindings {
			Inspect(b.Expr, v)
		}
		Inspect(x.Body, v)
	case *Window:
		Inspect(x.Fn, v)
		for _, e := range x.Spec.PartitionBy {
			Inspect(e, v)
		}
		for _, o := range x.Spec.OrderBy {
			Inspect(o.Expr, v)
		}
	}
}

func inspectSFW(q *SFW, v Visitor) {
	Inspect(q.Select.Value, v)
	Inspect(q.Select.PivotAt, v)
	for _, it := range q.Select.Items {
		Inspect(it.Expr, v)
		Inspect(it.StarOf, v)
	}
	for _, f := range q.From {
		inspectFrom(f, v)
	}
	for _, l := range q.Lets {
		Inspect(l.Expr, v)
	}
	Inspect(q.Where, v)
	inspectGroupBy(q.GroupBy, v)
	Inspect(q.Having, v)
	for _, o := range q.OrderBy {
		Inspect(o.Expr, v)
	}
	Inspect(q.Limit, v)
	Inspect(q.Offset, v)
}

func inspectFrom(f FromItem, v Visitor) {
	switch x := f.(type) {
	case *FromExpr:
		Inspect(x.Expr, v)
	case *FromUnpivot:
		Inspect(x.Expr, v)
	case *FromJoin:
		inspectFrom(x.Left, v)
		inspectFrom(x.Right, v)
		Inspect(x.On, v)
	}
}

func inspectGroupBy(g *GroupBy, v Visitor) {
	if g == nil {
		return
	}
	for _, k := range g.Keys {
		Inspect(k.Expr, v)
	}
}
