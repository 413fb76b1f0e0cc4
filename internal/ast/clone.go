package ast

// CloneExpr returns a deep copy of e. The rewriter substitutes
// subexpressions into multiple positions; cloning keeps each occurrence
// independently rewritable.
func CloneExpr(e Expr) Expr { return cloner{}.expr(e) }

// CloneReplace copies e like CloneExpr, except that every node for which
// replace returns a non-nil expression is substituted by that expression
// as is: it is neither copied nor descended into. Nodes are offered to
// replace in pre-order, nested query blocks included — returning such a
// block itself keeps it shared with the original tree, physical
// annotation and all, which is how the optimizer derives rewritten
// expressions without touching the tree it annotates.
func CloneReplace(e Expr, replace func(Expr) Expr) Expr { return cloner{replace}.expr(e) }

type cloner struct{ replace func(Expr) Expr }

func (cn cloner) expr(e Expr) Expr {
	if cn.replace != nil && e != nil {
		if r := cn.replace(e); r != nil {
			return r
		}
	}
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		c := *x
		return &c
	case *VarRef:
		c := *x
		return &c
	case *NamedRef:
		c := *x
		return &c
	case *FieldAccess:
		c := *x
		c.Base = cn.expr(x.Base)
		return &c
	case *IndexAccess:
		c := *x
		c.Base = cn.expr(x.Base)
		c.Index = cn.expr(x.Index)
		return &c
	case *Unary:
		c := *x
		c.Operand = cn.expr(x.Operand)
		return &c
	case *Binary:
		c := *x
		c.L = cn.expr(x.L)
		c.R = cn.expr(x.R)
		return &c
	case *Like:
		c := *x
		c.Target = cn.expr(x.Target)
		c.Pattern = cn.expr(x.Pattern)
		c.Escape = cn.expr(x.Escape)
		return &c
	case *Between:
		c := *x
		c.Target = cn.expr(x.Target)
		c.Lo = cn.expr(x.Lo)
		c.Hi = cn.expr(x.Hi)
		return &c
	case *In:
		c := *x
		c.Target = cn.expr(x.Target)
		c.Set = cn.expr(x.Set)
		c.List = cn.cloneExprs(x.List)
		return &c
	case *Is:
		c := *x
		c.Target = cn.expr(x.Target)
		return &c
	case *Quantified:
		c := *x
		c.Target = cn.expr(x.Target)
		c.Set = cn.expr(x.Set)
		return &c
	case *Case:
		c := *x
		c.Operand = cn.expr(x.Operand)
		c.Whens = make([]When, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = When{Cond: cn.expr(w.Cond), Result: cn.expr(w.Result)}
		}
		c.Else = cn.expr(x.Else)
		return &c
	case *Call:
		c := *x
		c.Args = cn.cloneExprs(x.Args)
		return &c
	case *TupleCtor:
		c := *x
		c.Fields = make([]TupleField, len(x.Fields))
		for i, f := range x.Fields {
			c.Fields[i] = TupleField{Name: cn.expr(f.Name), Value: cn.expr(f.Value)}
		}
		return &c
	case *ArrayCtor:
		c := *x
		c.Elems = cn.cloneExprs(x.Elems)
		return &c
	case *BagCtor:
		c := *x
		c.Elems = cn.cloneExprs(x.Elems)
		return &c
	case *Exists:
		c := *x
		c.Operand = cn.expr(x.Operand)
		return &c
	case *SFW:
		return cn.cloneSFW(x)
	case *PivotQuery:
		c := *x
		c.Value = cn.expr(x.Value)
		c.Name = cn.expr(x.Name)
		c.From = cn.cloneFromItems(x.From)
		c.Lets = cn.cloneLets(x.Lets)
		c.Where = cn.expr(x.Where)
		c.GroupBy = cn.cloneGroupBy(x.GroupBy)
		c.Having = cn.expr(x.Having)
		return &c
	case *SetOp:
		c := *x
		c.L = cn.expr(x.L)
		c.R = cn.expr(x.R)
		return &c
	case *With:
		c := *x
		c.Bindings = make([]WithBinding, len(x.Bindings))
		for i, b := range x.Bindings {
			cb := b
			cb.Expr = cn.expr(b.Expr)
			c.Bindings[i] = cb
		}
		c.Body = cn.expr(x.Body)
		return &c
	case *Window:
		c := *x
		c.Fn = cn.expr(x.Fn).(*Call)
		c.Spec = cn.cloneWindowSpec(x.Spec)
		return &c
	}
	panic("ast: CloneExpr of unknown node type")
}

func (cn cloner) cloneExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = cn.expr(e)
	}
	return out
}

func (cn cloner) cloneSFW(q *SFW) *SFW {
	c := *q
	c.Phys = nil // physical annotations never survive a clone
	c.Select.Value = cn.expr(q.Select.Value)
	c.Select.Items = make([]SelectItem, len(q.Select.Items))
	for i, it := range q.Select.Items {
		c.Select.Items[i] = SelectItem{
			Expr:     cn.expr(it.Expr),
			Alias:    it.Alias,
			HasAlias: it.HasAlias,
			StarOf:   cn.expr(it.StarOf),
		}
	}
	c.From = cn.cloneFromItems(q.From)
	c.Lets = cn.cloneLets(q.Lets)
	c.Where = cn.expr(q.Where)
	c.GroupBy = cn.cloneGroupBy(q.GroupBy)
	c.Having = cn.expr(q.Having)
	c.OrderBy = make([]OrderItem, len(q.OrderBy))
	for i, o := range q.OrderBy {
		c.OrderBy[i] = OrderItem{Expr: cn.expr(o.Expr), Desc: o.Desc, NullsFirst: o.NullsFirst}
	}
	c.Limit = cn.expr(q.Limit)
	c.Offset = cn.expr(q.Offset)
	c.Windows = make([]NamedWindow, len(q.Windows))
	for i, w := range q.Windows {
		cw := w
		cw.Fn = cn.expr(w.Fn).(*Call)
		cw.Spec = cn.cloneWindowSpec(w.Spec)
		c.Windows[i] = cw
	}
	return &c
}

func (cn cloner) cloneFromItems(items []FromItem) []FromItem {
	if items == nil {
		return nil
	}
	out := make([]FromItem, len(items))
	for i, f := range items {
		out[i] = cn.cloneFromItem(f)
	}
	return out
}

func (cn cloner) cloneFromItem(f FromItem) FromItem {
	switch x := f.(type) {
	case *FromExpr:
		c := *x
		c.Expr = cn.expr(x.Expr)
		return &c
	case *FromUnpivot:
		c := *x
		c.Expr = cn.expr(x.Expr)
		return &c
	case *FromJoin:
		c := *x
		c.Left = cn.cloneFromItem(x.Left)
		c.Right = cn.cloneFromItem(x.Right)
		c.On = cn.expr(x.On)
		return &c
	}
	panic("ast: cloneFromItem of unknown node type")
}

func (cn cloner) cloneLets(ls []LetBinding) []LetBinding {
	if ls == nil {
		return nil
	}
	out := make([]LetBinding, len(ls))
	for i, l := range ls {
		cl := l
		cl.Expr = cn.expr(l.Expr)
		out[i] = cl
	}
	return out
}

func (cn cloner) cloneWindowSpec(w WindowSpec) WindowSpec {
	out := WindowSpec{}
	out.PartitionBy = cn.cloneExprs(w.PartitionBy)
	out.OrderBy = make([]OrderItem, len(w.OrderBy))
	for i, o := range w.OrderBy {
		out.OrderBy[i] = OrderItem{Expr: cn.expr(o.Expr), Desc: o.Desc, NullsFirst: o.NullsFirst}
	}
	return out
}

func (cn cloner) cloneGroupBy(g *GroupBy) *GroupBy {
	if g == nil {
		return nil
	}
	c := *g
	c.Keys = make([]GroupKey, len(g.Keys))
	for i, k := range g.Keys {
		ck := k
		ck.Expr = cn.expr(k.Expr)
		c.Keys[i] = ck
	}
	return &c
}
