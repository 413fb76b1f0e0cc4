package ast

// The slot table: Children is the one place that lists where each node
// kind holds its child expressions. Walkers that only need "every child"
// (Inspect, the binder, ReplaceKeys, which the rewriter's in-place
// group-key substitution runs on) delegate to it and keep just their
// node-specific cases; evaluators, printing, cloning and equality keep
// their own switches because each does different work per node.

// Children calls f with the address of every non-nil child expression of
// e, so f can read the child or replace it in place. It does not recurse:
// the caller decides where to descend and which nodes (query blocks, set
// operations, WITH) to stop at. A window application's children are its
// function arguments and the expressions of its OVER specification. A
// query block's children come in clause order: SELECT, FROM, LET, WHERE,
// GROUP BY keys, HAVING, ORDER BY, LIMIT, OFFSET, then the lowered
// windows.
func Children(e Expr, f func(*Expr)) {
	switch x := e.(type) {
	case *FieldAccess:
		visit(f, &x.Base)
	case *IndexAccess:
		visit(f, &x.Base, &x.Index)
	case *Unary:
		visit(f, &x.Operand)
	case *Binary:
		visit(f, &x.L, &x.R)
	case *Like:
		visit(f, &x.Target, &x.Pattern, &x.Escape)
	case *Between:
		visit(f, &x.Target, &x.Lo, &x.Hi)
	case *In:
		visit(f, &x.Target)
		visitList(f, x.List)
		visit(f, &x.Set)
	case *Is:
		visit(f, &x.Target)
	case *Quantified:
		visit(f, &x.Target, &x.Set)
	case *Case:
		visit(f, &x.Operand)
		for i := range x.Whens {
			visit(f, &x.Whens[i].Cond, &x.Whens[i].Result)
		}
		visit(f, &x.Else)
	case *Call:
		visitList(f, x.Args)
	case *TupleCtor:
		for i := range x.Fields {
			visit(f, &x.Fields[i].Name, &x.Fields[i].Value)
		}
	case *ArrayCtor:
		visitList(f, x.Elems)
	case *BagCtor:
		visitList(f, x.Elems)
	case *Exists:
		visit(f, &x.Operand)
	case *Window:
		windowChildren(x.Fn, &x.Spec, f)
	case *SetOp:
		visit(f, &x.L, &x.R)
	case *With:
		for i := range x.Bindings {
			visit(f, &x.Bindings[i].Expr)
		}
		visit(f, &x.Body)
	case *SFW:
		selectChildren(&x.Select, f)
		for _, item := range x.From {
			fromChildren(item, f)
		}
		for i := range x.Lets {
			visit(f, &x.Lets[i].Expr)
		}
		visit(f, &x.Where)
		if x.GroupBy != nil {
			for i := range x.GroupBy.Keys {
				visit(f, &x.GroupBy.Keys[i].Expr)
			}
		}
		visit(f, &x.Having)
		orderChildren(x.OrderBy, f)
		visit(f, &x.Limit, &x.Offset)
		for i := range x.Windows {
			windowChildren(x.Windows[i].Fn, &x.Windows[i].Spec, f)
		}
	}
}

func visit(f func(*Expr), slots ...*Expr) {
	for _, s := range slots {
		if *s != nil {
			f(s)
		}
	}
}

func visitList(f func(*Expr), list []Expr) {
	for i := range list {
		visit(f, &list[i])
	}
}

func selectChildren(s *SelectClause, f func(*Expr)) {
	visit(f, &s.Value, &s.PivotAt)
	for i := range s.Items {
		visit(f, &s.Items[i].Expr, &s.Items[i].StarOf)
	}
}

func fromChildren(item FromItem, f func(*Expr)) {
	switch x := item.(type) {
	case *FromExpr:
		visit(f, &x.Expr)
	case *FromUnpivot:
		visit(f, &x.Expr)
	case *FromJoin:
		fromChildren(x.Left, f)
		fromChildren(x.Right, f)
		visit(f, &x.On)
	}
}

func orderChildren(items []OrderItem, f func(*Expr)) {
	for i := range items {
		visit(f, &items[i].Expr)
	}
}

func windowChildren(fn *Call, spec *WindowSpec, f func(*Expr)) {
	if fn != nil {
		visitList(f, fn.Args)
	}
	visitList(f, spec.PartitionBy)
	orderChildren(spec.OrderBy, f)
}

// Visitor is called by Inspect for every expression node. Returning false
// stops descent into the node's children.
type Visitor func(Expr) bool

// Inspect walks the expression tree rooted at e in depth-first order,
// calling v for every expression node. Subquery bodies are visited too:
// the rewriter relies on seeing aggregate calls inside nested blocks, and
// the optimizer on reaching every block, a window's included.
func Inspect(e Expr, v Visitor) {
	if e == nil || !v(e) {
		return
	}
	Children(e, func(c *Expr) { Inspect(*c, v) })
}

// ReplaceKeys rewrites e top-down, in place: each largest subtree Equal
// to one of keys becomes with(i, subtree), where keys[i] is the last key
// it equals (a later key takes precedence, as in a map filled in key
// order). Any other node is offered to other, which returns its
// replacement and true, or false to have ReplaceKeys descend into the
// node's children. A node is compared only with the keys of its own node
// count: Equal trees have equal counts, and subtrees of one count never
// nest, so the walk is linear in the size of e for each key.
func ReplaceKeys(e Expr, keys []Expr, with func(int, Expr) Expr, other func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	// counts holds the node count of each subtree of e in pre-order; next
	// is the pre-order position of the node walk visits next.
	var counts []int
	sizes := make([]int, len(keys))
	for i, k := range keys {
		counts = nodeCounts(k, counts[:0])
		sizes[i] = len(counts)
	}
	counts = nodeCounts(e, counts[:0])
	next := 0
	var walk func(Expr) Expr
	walk = func(e Expr) Expr {
		n := counts[next]
		next += n
		for i := len(keys) - 1; i >= 0; i-- {
			if sizes[i] == n && Equal(e, keys[i]) {
				return with(i, e)
			}
		}
		if out, done := other(e); done {
			return out
		}
		next += 1 - n
		Children(e, func(c *Expr) { *c = walk(*c) })
		return e
	}
	return walk(e)
}

// nodeCounts appends to out the node count of each subtree of e, in
// pre-order, counting the children Children visits.
func nodeCounts(e Expr, out []int) []int {
	at := len(out)
	out = append(out, 0)
	Children(e, func(c *Expr) { out = nodeCounts(*c, out) })
	out[at] = len(out) - at
	return out
}

// NumberRunSlots numbers the query blocks and set operations under root
// in Inspect order, setting their RunSlot fields.
func NumberRunSlots(root Expr) {
	n := 0
	Inspect(root, func(e Expr) bool {
		switch x := e.(type) {
		case *SFW:
			x.RunSlot, n = n, n+1
		case *SetOp:
			x.RunSlot, n = n, n+1
		}
		return true
	})
}
