package rewrite

import (
	"fmt"
	"strconv"

	"sqlpp/internal/ast"
	"sqlpp/internal/value"
)

// sfw rewrites a query block: FROM-chain resolution with left
// correlation, implicit and explicit grouping, aggregate rewriting onto
// COLL_* functions, and lowering of the SQL SELECT list onto SELECT
// VALUE.
func (rw *rewriter) sfw(q *ast.SFW, outer *scope) (ast.Expr, error) {
	substituteOrderAliases(q)

	blk := newScope(outer, true)
	for _, f := range q.From {
		if err := rw.fromItem(f, blk); err != nil {
			return nil, err
		}
	}
	for i := range q.Lets {
		e, err := rw.expr(q.Lets[i].Expr, blk)
		if err != nil {
			return nil, err
		}
		q.Lets[i].Expr = e
		blk.bindOrdered(q.Lets[i].Name)
	}
	if q.Where != nil {
		if err := rw.coerceInto(&q.Where, blk); err != nil {
			return nil, err
		}
	}

	// SQL implicit grouping: aggregates with no GROUP BY form a single
	// group over the whole input.
	if q.GroupBy == nil && (selectHasAggregate(&q.Select) || hasShallowAggregate(q.Having) || orderHasAggregate(q.OrderBy)) {
		q.GroupBy = &ast.GroupBy{}
	}

	post := blk
	var tf *groupTransform
	if q.GroupBy != nil {
		var err error
		post, tf, err = rw.prepareGroup(q.GroupBy, blk, outer)
		if err != nil {
			return nil, err
		}
	}

	if q.Having != nil {
		q.Having = tf.apply(q.Having)
		if err := rw.coerceInto(&q.Having, post); err != nil {
			return nil, err
		}
	}

	if err := rw.lowerSelect(q, post, tf); err != nil {
		return nil, err
	}

	for i := range q.OrderBy {
		q.OrderBy[i].Expr = tf.apply(q.OrderBy[i].Expr)
		lifted, err := rw.liftWindows(q, q.OrderBy[i].Expr, post)
		if err != nil {
			return nil, err
		}
		q.OrderBy[i].Expr = lifted
		if err := rw.coerceInto(&q.OrderBy[i].Expr, post); err != nil {
			return nil, err
		}
	}
	if q.Limit != nil {
		e, err := rw.expr(q.Limit, outer)
		if err != nil {
			return nil, err
		}
		q.Limit = e
	}
	if q.Offset != nil {
		e, err := rw.expr(q.Offset, outer)
		if err != nil {
			return nil, err
		}
		q.Offset = e
	}
	return q, nil
}

// fromItem resolves one FROM item, binding its variables into blk so that
// later items see them (left correlation, §III).
func (rw *rewriter) fromItem(f ast.FromItem, blk *scope) error {
	switch x := f.(type) {
	case *ast.FromExpr:
		e, err := rw.expr(x.Expr, blk)
		if err != nil {
			return err
		}
		x.Expr = e
		if x.As == "" {
			return &Error{Pos: x.Pos(), Msg: "FROM item requires an alias"}
		}
		source := ""
		if ref, ok := e.(*ast.NamedRef); ok {
			source = ref.Name
		}
		blk.bindRangeOrdered(x.As, source)
		if x.AtVar != "" {
			blk.bindOrdered(x.AtVar)
		}
		return nil
	case *ast.FromUnpivot:
		e, err := rw.expr(x.Expr, blk)
		if err != nil {
			return err
		}
		x.Expr = e
		blk.bindOrdered(x.ValueVar)
		blk.bindOrdered(x.NameVar)
		return nil
	case *ast.FromJoin:
		if err := rw.fromItem(x.Left, blk); err != nil {
			return err
		}
		if err := rw.fromItem(x.Right, blk); err != nil {
			return err
		}
		if x.On != nil {
			if err := rw.coerceInto(&x.On, blk); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("rewrite: unknown FROM item %T", f)
}

// prepareGroup resolves the GROUP BY keys, assigns aliases, synthesizes
// the GROUP AS variable when absent, and returns the post-group scope and
// the transform to apply to SELECT/HAVING/ORDER BY expressions.
func (rw *rewriter) prepareGroup(g *ast.GroupBy, blk, outer *scope) (*scope, *groupTransform, error) {
	tf := &groupTransform{
		rw:        rw,
		blockVars: map[string]bool{},
	}
	for _, v := range blk.order {
		tf.blockVars[v] = true
	}
	for i := range g.Keys {
		// Resolution rewrites the key in place; keep its written form.
		raw := ast.CloneExpr(g.Keys[i].Expr)
		e, err := rw.expr(g.Keys[i].Expr, blk)
		if err != nil {
			return nil, nil, err
		}
		g.Keys[i].Expr = e
		g.Keys[i].Alias = ast.KeyAlias(g.Keys[i], i)
		// The resolved form also matches, so key expressions referenced
		// through an unqualified name line up after qualification.
		tf.keys = append(tf.keys, raw, e)
		tf.aliases = append(tf.aliases, g.Keys[i].Alias, g.Keys[i].Alias)
	}
	if g.GroupAs == "" {
		g.GroupAs = rw.fresh("g")
	}
	tf.groupAs = g.GroupAs

	post := newScope(outer, true)
	for _, k := range g.Keys {
		post.bindOrdered(k.Alias)
	}
	post.bindOrdered(g.GroupAs)
	return post, tf, nil
}

// groupTransform rewrites post-group expressions: group-key occurrences
// become key-alias references, and SQL aggregate calls become COLL_*
// applications over the GROUP AS collection (§V-C).
type groupTransform struct {
	rw *rewriter
	// keys holds each GROUP BY key as written and as resolved, in key
	// order; an occurrence of keys[i] reads aliases[i].
	keys      []ast.Expr
	aliases   []string
	blockVars map[string]bool
	groupAs   string
}

// apply transforms e in place (returning the replacement); a block
// without GROUP BY has no transform, and apply returns e as it is.
func (tf *groupTransform) apply(e ast.Expr) ast.Expr {
	if tf == nil {
		return e
	}
	return ast.ReplaceKeys(e, tf.keys, tf.keyRef, tf.rewriteNode)
}

// keyRef is the alias reference that replaces at, an occurrence of
// keys[i].
func (tf *groupTransform) keyRef(i int, at ast.Expr) ast.Expr {
	v := &ast.VarRef{Name: tf.aliases[i]}
	v.SetPos(at.Pos())
	return v
}

// rewriteNode lowers an aggregate call, and stops at nested query blocks:
// they have their own scopes and their own grouping. A window applies
// over the post-group bindings, so its argument and specification may
// reference group keys.
func (tf *groupTransform) rewriteNode(e ast.Expr) (ast.Expr, bool) {
	if call, ok := e.(*ast.Call); ok {
		if collName, isAgg := sqlAggregates[call.Name]; isAgg {
			return tf.rewriteAggregate(call, collName), true
		}
	}
	switch e.(type) {
	case *ast.SFW, *ast.SetOp, *ast.With:
		return e, true
	}
	return nil, false
}

// rewriteAggregate lowers AGG(arg) to
//
//	COLL_AGG(SELECT VALUE arg' FROM groupAs AS $gi)
//
// where arg' replaces each block variable v with $gi.v — the paper's
// conceptual materialization of the group followed by a composable
// aggregate (§V-C, Listings 15–18). COUNT(*) becomes COLL_COUNT over the
// group collection itself.
func (tf *groupTransform) rewriteAggregate(call *ast.Call, collName string) ast.Expr {
	groupRef := &ast.VarRef{Name: tf.groupAs}
	groupRef.SetPos(call.Pos())
	if call.Star {
		out := &ast.Call{Name: "COLL_COUNT", Args: []ast.Expr{groupRef}}
		out.SetPos(call.Pos())
		return out
	}
	if len(call.Args) == 0 {
		// Zero-arg aggregate (e.g. COUNT() without *): leave the call
		// untouched so evaluation reports its usual arity error; apply
		// has no error channel of its own.
		return call
	}
	gi := tf.rw.fresh("gi")
	arg := substituteBlockVars(call.Args[0], tf.blockVars, gi)
	inner := &ast.SFW{
		Select: ast.SelectClause{Value: arg},
		From: []ast.FromItem{
			&ast.FromExpr{Expr: groupRef, As: gi},
		},
	}
	inner.SetPos(call.Pos())
	var collArg ast.Expr = inner
	if call.Distinct {
		d := &ast.Call{Name: "$DISTINCT", Args: []ast.Expr{inner}}
		d.SetPos(call.Pos())
		collArg = d
	}
	out := &ast.Call{Name: collName, Args: []ast.Expr{collArg}}
	out.SetPos(call.Pos())
	return out
}

// substituteBlockVars replaces the free occurrences of pre-group block
// variables in the aggregate argument e with navigation through the group
// element variable gi. It descends the whole subtree, nested blocks and
// their GROUP BY keys included (an aggregate argument may contain a
// subquery correlated with the group element), and leaves a name alone
// where a nested block binds it again. The argument is not yet rewritten,
// so the binder reads it as surface syntax.
func substituteBlockVars(e ast.Expr, blockVars map[string]bool, gi string) ast.Expr {
	b := ast.Binder{Surface: true, Ref: func(r ast.Ref) {
		if r.To == nil && blockVars[r.Var.Name] {
			base := &ast.VarRef{Name: gi}
			base.SetPos(r.Var.Pos())
			fa := &ast.FieldAccess{Base: base, Name: r.Var.Name}
			fa.SetPos(r.Var.Pos())
			*r.Slot = fa
		}
	}}
	b.Walk(&e)
	return e
}

// selectHasAggregate reports whether the SELECT clause contains a shallow
// SQL aggregate call.
func selectHasAggregate(s *ast.SelectClause) bool {
	if hasShallowAggregate(s.Value) || hasShallowAggregate(s.PivotAt) {
		return true
	}
	for _, it := range s.Items {
		if hasShallowAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func orderHasAggregate(items []ast.OrderItem) bool {
	for _, o := range items {
		if hasShallowAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// hasShallowAggregate reports whether e contains a SQL aggregate call
// without descending into nested query blocks or window applications (a
// window's SUM is no grouping aggregate).
func hasShallowAggregate(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Expr) bool {
		switch x := n.(type) {
		case *ast.SFW, *ast.SetOp, *ast.With, *ast.Window:
			return false
		case *ast.Call:
			found = found || IsSQLAggregate(x.Name)
		}
		return !found
	})
	return found
}

// substituteOrderAliases replaces a bare ORDER BY reference to a SELECT
// item alias with a clone of that item's expression (SQL allows ordering
// by output column names).
func substituteOrderAliases(q *ast.SFW) {
	if len(q.OrderBy) == 0 || len(q.Select.Items) == 0 {
		return
	}
	byAlias := map[string]ast.Expr{}
	for _, it := range q.Select.Items {
		if it.Alias != "" && it.Expr != nil {
			byAlias[it.Alias] = it.Expr
		}
	}
	for i := range q.OrderBy {
		if v, ok := q.OrderBy[i].Expr.(*ast.VarRef); ok {
			if src, ok := byAlias[v.Name]; ok {
				q.OrderBy[i].Expr = ast.CloneExpr(src)
			}
		}
	}
}

// lowerSelect rewrites the SELECT clause onto SELECT VALUE (§V-A):
//
//	SELECT e1 AS a1, ..., en AS an  =>  SELECT VALUE {a1: e1, ..., an: en}
//	SELECT *                        =>  SELECT VALUE $MERGE(name/value...)
//
// lifts window applications onto named per-binding computations, and
// resolves the resulting value expression in the post-group scope. A
// PIVOT's value and name resolve the same way, but lift no windows: a
// window there is left for resolution to reject.
func (rw *rewriter) lowerSelect(q *ast.SFW, post *scope, tf *groupTransform) error {
	if q.Select.PivotAt != nil {
		q.Select.Value = tf.apply(q.Select.Value)
		q.Select.PivotAt = tf.apply(q.Select.PivotAt)
		if err := rw.coerceInto(&q.Select.Value, post); err != nil {
			return err
		}
		return rw.coerceInto(&q.Select.PivotAt, post)
	}
	finish := func() error {
		lifted, err := rw.liftWindows(q, q.Select.Value, post)
		if err != nil {
			return err
		}
		q.Select.Value = lifted
		return rw.coerceInto(&q.Select.Value, post)
	}
	switch {
	case q.Select.Value != nil:
		q.Select.Value = tf.apply(q.Select.Value)
		return finish()
	case q.Select.Star:
		merge := &ast.Call{Name: "$MERGE"}
		merge.SetPos(q.Pos())
		for _, v := range post.order {
			nameLit := &ast.Literal{Val: value.String(v)}
			nameLit.SetPos(q.Pos())
			ref := &ast.VarRef{Name: v}
			ref.SetPos(q.Pos())
			merge.Args = append(merge.Args, nameLit, ref)
		}
		q.Select.Value = merge
		q.Select.Star = false
		return finish()
	default:
		// The items become name/value pairs: the fields of one tuple
		// constructor or, with an expr.* item (whose name is ''), the
		// arguments of a $MERGE.
		var pairs []ast.Expr
		hasStarOf := false
		for i, it := range q.Select.Items {
			name, e := it.Alias, it.Expr
			if it.StarOf != nil {
				name, e, hasStarOf = "", it.StarOf, true
			} else if name == "" {
				name = "_" + strconv.Itoa(i+1)
			}
			nameLit := &ast.Literal{Val: value.String(name)}
			nameLit.SetPos(q.Pos())
			pairs = append(pairs, nameLit, tf.apply(e))
		}
		if hasStarOf {
			merge := &ast.Call{Name: "$MERGE", Args: pairs}
			merge.SetPos(q.Pos())
			q.Select.Value = merge
		} else {
			ctor := &ast.TupleCtor{}
			ctor.SetPos(q.Pos())
			for i := 0; i < len(pairs); i += 2 {
				ctor.Fields = append(ctor.Fields, ast.TupleField{Name: pairs[i], Value: pairs[i+1]})
			}
			q.Select.Value = ctor
		}
		q.Select.Items = nil
		return finish()
	}
}
