package ast

import "strconv"

// Free-variable analysis for the physical optimizer. A variable occurs
// free in an expression when it is not bound by an enclosing query-block
// construct inside that expression: FROM item aliases, LET names, group
// key aliases, GROUP AS, and lowered window names all bind. NamedRef
// nodes are catalog references resolved by the rewriter and are never
// free. The analysis is conservative: over-reporting a name as free only
// disables an optimization, never changes semantics, so constructs with
// subtle scoping err on the side of reporting more.

// FreeVars returns the set of variable names occurring free in e. The
// result is freshly allocated and owned by the caller. A nil expression
// has no free variables.
func FreeVars(e Expr) map[string]bool {
	w := &fvWalker{free: map[string]bool{}, bound: map[string]int{}}
	w.expr(e)
	return w.free
}

// FreeVarsOver reports whether any name in vars occurs free in e.
func FreeVarsOver(e Expr, vars map[string]bool) bool {
	if len(vars) == 0 {
		return false
	}
	for name := range FreeVars(e) {
		if vars[name] {
			return true
		}
	}
	return false
}

// fvWalker accumulates free variables. bound counts active bindings per
// name so shadowed re-bindings nest correctly.
type fvWalker struct {
	free  map[string]bool
	bound map[string]int
}

func (w *fvWalker) bind(name string) {
	if name != "" {
		w.bound[name]++
	}
}

func (w *fvWalker) unbind(name string) {
	if name != "" {
		w.bound[name]--
	}
}

// scope tracks a batch of bindings so they can be popped together.
type fvScope struct {
	w     *fvWalker
	names []string
}

func (s *fvScope) bind(name string) {
	if name == "" {
		return
	}
	s.w.bind(name)
	s.names = append(s.names, name)
}

func (s *fvScope) pop() {
	for i := len(s.names) - 1; i >= 0; i-- {
		s.w.unbind(s.names[i])
	}
	s.names = s.names[:0]
}

func (w *fvWalker) expr(e Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *Literal, *NamedRef:
	case *VarRef:
		if w.bound[x.Name] == 0 {
			w.free[x.Name] = true
		}
	case *FieldAccess:
		w.expr(x.Base)
	case *IndexAccess:
		w.expr(x.Base)
		w.expr(x.Index)
	case *Unary:
		w.expr(x.Operand)
	case *Binary:
		w.expr(x.L)
		w.expr(x.R)
	case *Like:
		w.expr(x.Target)
		w.expr(x.Pattern)
		w.expr(x.Escape)
	case *Between:
		w.expr(x.Target)
		w.expr(x.Lo)
		w.expr(x.Hi)
	case *In:
		w.expr(x.Target)
		for _, e := range x.List {
			w.expr(e)
		}
		w.expr(x.Set)
	case *Is:
		w.expr(x.Target)
	case *Quantified:
		w.expr(x.Target)
		w.expr(x.Set)
	case *Case:
		w.expr(x.Operand)
		for _, arm := range x.Whens {
			w.expr(arm.Cond)
			w.expr(arm.Result)
		}
		w.expr(x.Else)
	case *Call:
		for _, a := range x.Args {
			w.expr(a)
		}
	case *TupleCtor:
		for _, f := range x.Fields {
			w.expr(f.Name)
			w.expr(f.Value)
		}
	case *ArrayCtor:
		for _, e := range x.Elems {
			w.expr(e)
		}
	case *BagCtor:
		for _, e := range x.Elems {
			w.expr(e)
		}
	case *Exists:
		w.expr(x.Operand)
	case *SFW:
		w.sfw(x)
	case *SetOp:
		w.expr(x.L)
		w.expr(x.R)
	case *With:
		var s fvScope
		s.w = w
		for _, b := range x.Bindings {
			w.expr(b.Expr)
			s.bind(b.Name)
		}
		w.expr(x.Body)
		s.pop()
	case *Window:
		w.expr(x.Fn)
		for _, e := range x.Spec.PartitionBy {
			w.expr(e)
		}
		for _, o := range x.Spec.OrderBy {
			w.expr(o.Expr)
		}
	}
}

// sfw walks a query block with its scoping rules: FROM items bind left to
// right (a join's right side sees the left side's variables), LETs bind
// after FROM, and GROUP BY replaces the pre-group variables with the key
// aliases plus GROUP AS for every post-group clause. LIMIT/OFFSET are
// evaluated in the outer environment and are walked outside all block
// bindings, as plan.Run evaluates them.
func (w *fvWalker) sfw(q *SFW) {
	w.expr(q.Limit)
	w.expr(q.Offset)

	var pre fvScope
	pre.w = w
	for _, item := range q.From {
		w.fromItem(item, &pre)
	}
	for _, l := range q.Lets {
		w.expr(l.Expr)
		pre.bind(l.Name)
	}
	w.expr(q.Where)

	if q.GroupBy == nil {
		// Window names bind only for SELECT and ORDER BY; HAVING runs
		// before windows are computed.
		w.expr(q.Having)
		var win fvScope
		win.w = w
		w.windows(q.Windows, &win)
		w.expr(q.Select.Value)
		w.expr(q.Select.PivotAt)
		w.selectItems(q.Select.Items)
		for _, o := range q.OrderBy {
			w.expr(o.Expr)
		}
		win.pop()
		pre.pop()
		return
	}

	// Group keys see the pre-group variables; everything after GROUP BY
	// sees only the key aliases, GROUP AS, and the enclosing scope.
	for _, key := range q.GroupBy.Keys {
		w.expr(key.Expr)
	}
	pre.pop()

	var post fvScope
	post.w = w
	for i, key := range q.GroupBy.Keys {
		alias := key.Alias
		if alias == "" {
			alias = implicitKeyAlias(i)
		}
		post.bind(alias)
	}
	post.bind(q.GroupBy.GroupAs)
	w.expr(q.Having)
	var win fvScope
	win.w = w
	w.windows(q.Windows, &win)
	w.expr(q.Select.Value)
	w.expr(q.Select.PivotAt)
	w.selectItems(q.Select.Items)
	for _, o := range q.OrderBy {
		w.expr(o.Expr)
	}
	win.pop()
	post.pop()
}

// fromItem walks one FROM item's source expressions under the bindings
// accumulated so far and then adds the item's own variables to s.
func (w *fvWalker) fromItem(item FromItem, s *fvScope) {
	switch x := item.(type) {
	case *FromExpr:
		w.expr(x.Expr)
		s.bind(x.As)
		s.bind(x.AtVar)
	case *FromUnpivot:
		w.expr(x.Expr)
		s.bind(x.ValueVar)
		s.bind(x.NameVar)
	case *FromJoin:
		w.fromItem(x.Left, s)
		w.fromItem(x.Right, s)
		w.expr(x.On)
	}
}

func (w *fvWalker) windows(ws []NamedWindow, s *fvScope) {
	for _, nw := range ws {
		w.expr(nw.Fn)
		for _, e := range nw.Spec.PartitionBy {
			w.expr(e)
		}
		for _, o := range nw.Spec.OrderBy {
			w.expr(o.Expr)
		}
		s.bind(nw.Name)
	}
}

func (w *fvWalker) selectItems(items []SelectItem) {
	for _, it := range items {
		w.expr(it.Expr)
		w.expr(it.StarOf)
	}
}

// implicitKeyAlias is the alias a group key without an explicit AS binds
// under; it must match the executor's groupState.flush.
func implicitKeyAlias(i int) string { return "$k" + strconv.Itoa(i+1) }

// ItemVars returns the variable names a FROM item introduces, in binding
// order.
func ItemVars(item FromItem) []string {
	switch x := item.(type) {
	case *FromExpr:
		vars := []string{x.As}
		if x.AtVar != "" {
			vars = append(vars, x.AtVar)
		}
		return vars
	case *FromUnpivot:
		return []string{x.ValueVar, x.NameVar}
	case *FromJoin:
		return append(ItemVars(x.Left), ItemVars(x.Right)...)
	}
	return nil
}
