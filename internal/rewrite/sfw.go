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
		if tf != nil {
			q.Having = tf.apply(q.Having)
		}
		if err := rw.coerceInto(&q.Having, post); err != nil {
			return nil, err
		}
	}

	if err := rw.lowerSelect(q, post, tf); err != nil {
		return nil, err
	}

	for i := range q.OrderBy {
		if tf != nil {
			q.OrderBy[i].Expr = tf.apply(q.OrderBy[i].Expr)
		}
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
		blk.bindRangeOrdered(x.As, ast.Format(e))
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
		keyAlias:  map[string]string{},
		blockVars: map[string]bool{},
	}
	for _, v := range blk.order {
		tf.blockVars[v] = true
	}
	for i := range g.Keys {
		rawFmt := ast.Format(g.Keys[i].Expr)
		e, err := rw.expr(g.Keys[i].Expr, blk)
		if err != nil {
			return nil, nil, err
		}
		g.Keys[i].Expr = e
		if g.Keys[i].Alias == "" {
			if a := implicitKeyAlias(e); a != "" {
				g.Keys[i].Alias = a
			} else {
				g.Keys[i].Alias = "$k" + strconv.Itoa(i+1)
			}
		}
		tf.keyAlias[rawFmt] = g.Keys[i].Alias
		// The resolved form also matches, so key expressions referenced
		// through an unqualified name line up after qualification.
		tf.keyAlias[ast.Format(e)] = g.Keys[i].Alias
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

// implicitKeyAlias derives the SQL-style alias of an unaliased group key.
func implicitKeyAlias(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.VarRef:
		return x.Name
	case *ast.FieldAccess:
		return x.Name
	}
	return ""
}

// groupTransform rewrites post-group expressions: group-key occurrences
// become key-alias references, and SQL aggregate calls become COLL_*
// applications over the GROUP AS collection (§V-C).
type groupTransform struct {
	rw        *rewriter
	keyAlias  map[string]string // formatted key expression -> alias
	blockVars map[string]bool
	groupAs   string
}

// apply transforms e in place (returning the replacement).
func (tf *groupTransform) apply(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if alias, ok := tf.keyAlias[ast.Format(e)]; ok {
		v := &ast.VarRef{Name: alias}
		v.SetPos(e.Pos())
		return v
	}
	if call, ok := e.(*ast.Call); ok {
		if collName, isAgg := sqlAggregates[call.Name]; isAgg {
			return tf.rewriteAggregate(call, collName)
		}
	}
	// Recurse into children, but not into nested query blocks: they have
	// their own scopes and their own grouping.
	switch x := e.(type) {
	case *ast.SFW, *ast.SetOp:
		return e
	case *ast.FieldAccess:
		x.Base = tf.apply(x.Base)
	case *ast.IndexAccess:
		x.Base = tf.apply(x.Base)
		x.Index = tf.apply(x.Index)
	case *ast.Unary:
		x.Operand = tf.apply(x.Operand)
	case *ast.Binary:
		x.L = tf.apply(x.L)
		x.R = tf.apply(x.R)
	case *ast.Like:
		x.Target = tf.apply(x.Target)
		x.Pattern = tf.apply(x.Pattern)
		x.Escape = tf.apply(x.Escape)
	case *ast.Between:
		x.Target = tf.apply(x.Target)
		x.Lo = tf.apply(x.Lo)
		x.Hi = tf.apply(x.Hi)
	case *ast.In:
		x.Target = tf.apply(x.Target)
		for i := range x.List {
			x.List[i] = tf.apply(x.List[i])
		}
		x.Set = tf.apply(x.Set)
	case *ast.Is:
		x.Target = tf.apply(x.Target)
	case *ast.Quantified:
		x.Target = tf.apply(x.Target)
		x.Set = tf.apply(x.Set)
	case *ast.Case:
		x.Operand = tf.apply(x.Operand)
		for i := range x.Whens {
			x.Whens[i].Cond = tf.apply(x.Whens[i].Cond)
			x.Whens[i].Result = tf.apply(x.Whens[i].Result)
		}
		x.Else = tf.apply(x.Else)
	case *ast.Call:
		for i := range x.Args {
			x.Args[i] = tf.apply(x.Args[i])
		}
	case *ast.TupleCtor:
		for i := range x.Fields {
			x.Fields[i].Name = tf.apply(x.Fields[i].Name)
			x.Fields[i].Value = tf.apply(x.Fields[i].Value)
		}
	case *ast.ArrayCtor:
		for i := range x.Elems {
			x.Elems[i] = tf.apply(x.Elems[i])
		}
	case *ast.BagCtor:
		for i := range x.Elems {
			x.Elems[i] = tf.apply(x.Elems[i])
		}
	case *ast.Exists:
		x.Operand = tf.apply(x.Operand)
	case *ast.Window:
		// A window function applies over the post-group bindings; its
		// argument and specification may reference group keys.
		for i := range x.Fn.Args {
			x.Fn.Args[i] = tf.apply(x.Fn.Args[i])
		}
		for i := range x.Spec.PartitionBy {
			x.Spec.PartitionBy[i] = tf.apply(x.Spec.PartitionBy[i])
		}
		for i := range x.Spec.OrderBy {
			x.Spec.OrderBy[i].Expr = tf.apply(x.Spec.OrderBy[i].Expr)
		}
	}
	return e
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

// substituteBlockVars replaces references to pre-group block variables
// with navigation through the group element variable gi. It descends the
// whole subtree, including nested blocks (an aggregate argument may
// contain a correlated subquery over the group element).
func substituteBlockVars(e ast.Expr, blockVars map[string]bool, gi string) ast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.VarRef:
		if blockVars[x.Name] {
			base := &ast.VarRef{Name: gi}
			base.SetPos(x.Pos())
			fa := &ast.FieldAccess{Base: base, Name: x.Name}
			fa.SetPos(x.Pos())
			return fa
		}
		return x
	case *ast.FieldAccess:
		x.Base = substituteBlockVars(x.Base, blockVars, gi)
		return x
	case *ast.IndexAccess:
		x.Base = substituteBlockVars(x.Base, blockVars, gi)
		x.Index = substituteBlockVars(x.Index, blockVars, gi)
		return x
	case *ast.Unary:
		x.Operand = substituteBlockVars(x.Operand, blockVars, gi)
		return x
	case *ast.Binary:
		x.L = substituteBlockVars(x.L, blockVars, gi)
		x.R = substituteBlockVars(x.R, blockVars, gi)
		return x
	case *ast.Like:
		x.Target = substituteBlockVars(x.Target, blockVars, gi)
		x.Pattern = substituteBlockVars(x.Pattern, blockVars, gi)
		x.Escape = substituteBlockVars(x.Escape, blockVars, gi)
		return x
	case *ast.Between:
		x.Target = substituteBlockVars(x.Target, blockVars, gi)
		x.Lo = substituteBlockVars(x.Lo, blockVars, gi)
		x.Hi = substituteBlockVars(x.Hi, blockVars, gi)
		return x
	case *ast.In:
		x.Target = substituteBlockVars(x.Target, blockVars, gi)
		for i := range x.List {
			x.List[i] = substituteBlockVars(x.List[i], blockVars, gi)
		}
		x.Set = substituteBlockVars(x.Set, blockVars, gi)
		return x
	case *ast.Is:
		x.Target = substituteBlockVars(x.Target, blockVars, gi)
		return x
	case *ast.Quantified:
		x.Target = substituteBlockVars(x.Target, blockVars, gi)
		x.Set = substituteBlockVars(x.Set, blockVars, gi)
		return x
	case *ast.Case:
		x.Operand = substituteBlockVars(x.Operand, blockVars, gi)
		for i := range x.Whens {
			x.Whens[i].Cond = substituteBlockVars(x.Whens[i].Cond, blockVars, gi)
			x.Whens[i].Result = substituteBlockVars(x.Whens[i].Result, blockVars, gi)
		}
		x.Else = substituteBlockVars(x.Else, blockVars, gi)
		return x
	case *ast.Call:
		for i := range x.Args {
			x.Args[i] = substituteBlockVars(x.Args[i], blockVars, gi)
		}
		return x
	case *ast.TupleCtor:
		for i := range x.Fields {
			x.Fields[i].Name = substituteBlockVars(x.Fields[i].Name, blockVars, gi)
			x.Fields[i].Value = substituteBlockVars(x.Fields[i].Value, blockVars, gi)
		}
		return x
	case *ast.ArrayCtor:
		for i := range x.Elems {
			x.Elems[i] = substituteBlockVars(x.Elems[i], blockVars, gi)
		}
		return x
	case *ast.BagCtor:
		for i := range x.Elems {
			x.Elems[i] = substituteBlockVars(x.Elems[i], blockVars, gi)
		}
		return x
	case *ast.Exists:
		x.Operand = substituteBlockVars(x.Operand, blockVars, gi)
		return x
	case *ast.SFW:
		// Nested blocks may be correlated with the group; substitute
		// free occurrences there too. (Shadowing by an inner FROM alias
		// of the same name is not tracked; the resolver reports the
		// resulting ambiguity.)
		for _, f := range x.From {
			substituteBlockVarsFrom(f, blockVars, gi)
		}
		for i := range x.Lets {
			x.Lets[i].Expr = substituteBlockVars(x.Lets[i].Expr, blockVars, gi)
		}
		x.Where = substituteBlockVars(x.Where, blockVars, gi)
		x.Select.Value = substituteBlockVars(x.Select.Value, blockVars, gi)
		x.Select.PivotAt = substituteBlockVars(x.Select.PivotAt, blockVars, gi)
		for i := range x.Select.Items {
			x.Select.Items[i].Expr = substituteBlockVars(x.Select.Items[i].Expr, blockVars, gi)
			x.Select.Items[i].StarOf = substituteBlockVars(x.Select.Items[i].StarOf, blockVars, gi)
		}
		x.Having = substituteBlockVars(x.Having, blockVars, gi)
		for i := range x.OrderBy {
			x.OrderBy[i].Expr = substituteBlockVars(x.OrderBy[i].Expr, blockVars, gi)
		}
		return x
	default:
		return e
	}
}

func substituteBlockVarsFrom(f ast.FromItem, blockVars map[string]bool, gi string) {
	switch x := f.(type) {
	case *ast.FromExpr:
		x.Expr = substituteBlockVars(x.Expr, blockVars, gi)
	case *ast.FromUnpivot:
		x.Expr = substituteBlockVars(x.Expr, blockVars, gi)
	case *ast.FromJoin:
		substituteBlockVarsFrom(x.Left, blockVars, gi)
		substituteBlockVarsFrom(x.Right, blockVars, gi)
		x.On = substituteBlockVars(x.On, blockVars, gi)
	}
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
// without descending into nested query blocks.
func hasShallowAggregate(e ast.Expr) bool {
	found := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if e == nil || found {
			return
		}
		switch x := e.(type) {
		case *ast.SFW, *ast.SetOp:
			return
		case *ast.Call:
			if IsSQLAggregate(x.Name) {
				found = true
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.FieldAccess:
			walk(x.Base)
		case *ast.IndexAccess:
			walk(x.Base)
			walk(x.Index)
		case *ast.Unary:
			walk(x.Operand)
		case *ast.Binary:
			walk(x.L)
			walk(x.R)
		case *ast.Like:
			walk(x.Target)
			walk(x.Pattern)
			walk(x.Escape)
		case *ast.Between:
			walk(x.Target)
			walk(x.Lo)
			walk(x.Hi)
		case *ast.In:
			walk(x.Target)
			for _, l := range x.List {
				walk(l)
			}
			walk(x.Set)
		case *ast.Is:
			walk(x.Target)
		case *ast.Quantified:
			walk(x.Target)
			walk(x.Set)
		case *ast.Case:
			walk(x.Operand)
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(x.Else)
		case *ast.TupleCtor:
			for _, f := range x.Fields {
				walk(f.Name)
				walk(f.Value)
			}
		case *ast.ArrayCtor:
			for _, el := range x.Elems {
				walk(el)
			}
		case *ast.BagCtor:
			for _, el := range x.Elems {
				walk(el)
			}
		case *ast.Exists:
			walk(x.Operand)
		}
	}
	walk(e)
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
		if tf != nil {
			q.Select.Value = tf.apply(q.Select.Value)
			q.Select.PivotAt = tf.apply(q.Select.PivotAt)
		}
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
		if tf != nil {
			q.Select.Value = tf.apply(q.Select.Value)
		}
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
		hasStarOf := false
		for _, it := range q.Select.Items {
			if it.StarOf != nil {
				hasStarOf = true
				break
			}
		}
		var valueExpr ast.Expr
		if !hasStarOf {
			ctor := &ast.TupleCtor{}
			ctor.SetPos(q.Pos())
			for i, it := range q.Select.Items {
				name := it.Alias
				if name == "" {
					name = "_" + strconv.Itoa(i+1)
				}
				nameLit := &ast.Literal{Val: value.String(name)}
				nameLit.SetPos(q.Pos())
				e := it.Expr
				if tf != nil {
					e = tf.apply(e)
				}
				ctor.Fields = append(ctor.Fields, ast.TupleField{Name: nameLit, Value: e})
			}
			valueExpr = ctor
		} else {
			merge := &ast.Call{Name: "$MERGE"}
			merge.SetPos(q.Pos())
			for i, it := range q.Select.Items {
				if it.StarOf != nil {
					e := it.StarOf
					if tf != nil {
						e = tf.apply(e)
					}
					empty := &ast.Literal{Val: value.String("")}
					empty.SetPos(q.Pos())
					merge.Args = append(merge.Args, empty, e)
					continue
				}
				name := it.Alias
				if name == "" {
					name = "_" + strconv.Itoa(i+1)
				}
				nameLit := &ast.Literal{Val: value.String(name)}
				nameLit.SetPos(q.Pos())
				e := it.Expr
				if tf != nil {
					e = tf.apply(e)
				}
				merge.Args = append(merge.Args, nameLit, e)
			}
			valueExpr = merge
		}
		q.Select.Items = nil
		q.Select.Value = valueExpr
		return finish()
	}
}
