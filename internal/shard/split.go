package shard

import (
	"slices"
	"strconv"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/parser"
	"sqlpp/internal/value"
)

// The splitter classifies a query against the sharded-collection
// registry and, when it can prove a merge decomposition correct,
// generates the per-shard and merge query texts. Everything it cannot
// prove falls back to class gather — ship the sharded collections back
// whole and run the original query unchanged — so sharding never
// changes results, only where the work happens.
//
// Classes:
//
//	local   no sharded collection is referenced; run on the coordinator.
//	group   GROUP BY (or implicit grouping) with COUNT/SUM/AVG/MIN/MAX:
//	        per-shard local aggregation, global merge by COLL_*
//	        decomposition over the partial rows (read as they are when
//	        the groups are co-partitioned).
//	topk    ORDER BY with literal LIMIT/OFFSET: per-shard top-(l+o)
//	        carrying the sort keys, coordinator merge re-sort.
//	concat  plain scatter; DISTINCT de-duplicates again at the merge,
//	        literal LIMIT+OFFSET prunes locally to l+o rows.
//	gather  the always-correct fallback.
//
// The generated queries communicate through reserved attribute slots
// (__k<i> group/sort keys, __a<j>/__n<j> aggregate partials, __v rows)
// in a partials collection the coordinator registers as __partials.
const partialsName = "__partials"

// scatterPlan is a classified, split query, cached per (query, epoch).
type scatterPlan struct {
	class string // "local" | "group" | "topk" | "concat" | "gather"
	// shardQuery runs on every shard (classes group/topk/concat).
	shardQuery string
	// mergeQuery runs on the coordinator's merge engine over __partials
	// (classes group/topk/concat).
	mergeQuery string
	// gather lists the sharded collections to pull back whole (class
	// gather); the original query then runs against the reassembled
	// catalog.
	gather []string
	// sharded names the collection driving a scatter (annotations).
	sharded string
	// coPartitioned is the hash key a group merge found its groups
	// whole on (class group), "" when the merge re-aggregates.
	coPartitioned string
}

// classify splits query against the sharded-name registry. Parse errors
// return class local so the engine reports them with its own message.
func classify(query string, specs map[string]Spec) *scatterPlan {
	tree, err := parser.Parse(query)
	if err != nil {
		return &scatterPlan{class: "local"}
	}
	refs := shardedRefs(tree, specs)
	if len(refs) == 0 {
		return &scatterPlan{class: "local"}
	}
	gather := &scatterPlan{class: "gather", gather: refs}
	// A PIVOT builds one tuple, which no partial merge reassembles.
	sfw, ok := tree.(*ast.SFW)
	if !ok || sfw.Select.PivotAt != nil {
		return gather
	}
	if len(refs) > 1 {
		return gather
	}
	name := refs[0]
	if countRefs(tree, name) != 1 || !headIsSharded(sfw, name) || aliasShadows(tree, name) {
		return gather
	}
	if hasParams(tree) || len(sfw.Windows) > 0 || hasWindowExprs(tree) {
		return gather
	}
	if p := splitGroup(sfw, name, specs[name]); p != nil {
		return p
	}
	if p := splitTopK(sfw, name); p != nil {
		return p
	}
	if p := splitConcat(sfw, name); p != nil {
		return p
	}
	return gather
}

// shardedRefs lists the sharded collection names referenced anywhere in
// the tree, by matching dotted identifier chains textually (an
// over-approximation: shadowed names still count, and push the query to
// the correct-by-construction gather class).
// governor:bounded by the query text (plan-time AST walk, no data rows)
func shardedRefs(e ast.Expr, specs map[string]Spec) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(e, func(n ast.Expr) bool {
		if name, ok := chainName(n); ok {
			for cand := name; cand != ""; {
				if _, sharded := specs[cand]; sharded && !seen[cand] {
					seen[cand] = true
					out = append(out, cand)
				}
				i := strings.LastIndex(cand, ".")
				if i < 0 {
					break
				}
				cand = cand[:i]
			}
		}
		return true
	})
	return out
}

// chainName flattens a VarRef / FieldAccess chain to its dotted name.
func chainName(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.VarRef:
		return x.Name, true
	case *ast.NamedRef:
		return x.Name, true
	case *ast.FieldAccess:
		base, ok := chainName(x.Base)
		if !ok {
			return "", false
		}
		return base + "." + x.Name, true
	}
	return "", false
}

// countRefs counts expression nodes whose chain is exactly name.
func countRefs(e ast.Expr, name string) int {
	n := 0
	ast.Inspect(e, func(x ast.Expr) bool {
		if c, ok := chainName(x); ok && c == name {
			n++
			// A matched chain's prefix sub-chains must not double-count.
			return false
		}
		return true
	})
	return n
}

// headIsSharded reports whether the query's leftmost FROM leaf ranges
// over name, with every join on the spine tolerating a partitioned
// left side (inner/left/cross: each output row is driven by exactly
// one left row, so partitioning the left tiles the join).
func headIsSharded(q *ast.SFW, name string) bool {
	fe := headItem(q)
	if fe == nil {
		return false
	}
	if fe.AtVar != "" {
		// AT ordinals restart at zero on every shard; only the gather
		// fallback sees global positions.
		return false
	}
	c, ok := chainName(fe.Expr)
	return ok && c == name
}

// headItem returns the query's leftmost FROM leaf when every join on
// the spine tolerates a partitioned left side, nil otherwise.
func headItem(q *ast.SFW) *ast.FromExpr {
	if len(q.From) == 0 {
		return nil
	}
	item := q.From[0]
	for {
		j, ok := item.(*ast.FromJoin)
		if !ok {
			break
		}
		if j.Kind != ast.JoinInner && j.Kind != ast.JoinLeft && j.Kind != ast.JoinCross {
			return nil
		}
		item = j.Left
	}
	fe, _ := item.(*ast.FromExpr)
	return fe
}

// hasWindowExprs reports an inline window-function application (fn OVER
// (...)) anywhere in the tree; window frames span the whole collection,
// so windowed queries take the gather path.
func hasWindowExprs(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Expr) bool {
		if _, ok := n.(*ast.Window); ok {
			found = true
		}
		return !found
	})
	return found
}

// aliasShadows reports whether any binding introduced anywhere in the
// query shares the sharded name's first segment — resolution could then
// differ between scopes, so the splitter defers to gather.
func aliasShadows(e ast.Expr, name string) bool {
	head, _, _ := strings.Cut(name, ".")
	found := false
	w := ast.Binder{Surface: true, Bind: func(b *ast.Binding) { found = found || b.Name == head }}
	w.Walk(&e)
	return found
}

// blockVars is the set of q's FROM and LET variables.
func blockVars(q *ast.SFW) map[string]bool {
	vars := map[string]bool{}
	for _, f := range q.From {
		for _, v := range ast.ItemVars(f) {
			vars[v] = true
		}
	}
	for _, l := range q.Lets {
		vars[l.Name] = true
	}
	return vars
}

// hasParams reports whether the query references a parameter-style
// identifier ($name); parameterized queries take the gather path, which
// can bind them.
func hasParams(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Expr) bool {
		if v, ok := n.(*ast.VarRef); ok && strings.HasPrefix(v.Name, "$") {
			found = true
		}
		return true
	})
	return found
}

// litWindow reads the block's LIMIT (-1 when absent) and OFFSET, which
// a split requires to be non-negative integer literals (an expression
// limit could differ per shard).
func litWindow(q *ast.SFW) (limit, offset int64, ok bool) {
	lit := func(e ast.Expr, absent int64) (int64, bool) {
		if e == nil {
			return absent, true
		}
		l, isLit := e.(*ast.Literal)
		if !isLit {
			return 0, false
		}
		n, isInt := l.Val.(value.Int)
		return int64(n), isInt && n >= 0
	}
	limit, limitOK := lit(q.Limit, -1)
	offset, offsetOK := lit(q.Offset, 0)
	return limit, offset, limitOK && offsetOK
}

// setWindow applies the block's LIMIT and OFFSET to the merge query.
func setWindow(merge *ast.SFW, limit, offset int64) {
	if limit >= 0 {
		merge.Limit = intLit(limit)
	}
	if offset > 0 {
		merge.Offset = intLit(offset)
	}
}

// intLit builds an integer literal node.
func intLit(n int64) ast.Expr { return &ast.Literal{Val: value.Int(n)} }

// varRef builds a variable reference node.
func varRef(name string) ast.Expr { return &ast.VarRef{Name: name} }

// fieldOf builds base.name navigation.
func fieldOf(base ast.Expr, name string) ast.Expr {
	return &ast.FieldAccess{Base: base, Name: name}
}

// strLit builds a string literal (tuple constructor field names).
func strLit(s string) ast.Expr { return &ast.Literal{Val: value.String(s)} }

// ---------------------------------------------------------------------
// Class topk: ORDER BY [literal LIMIT/OFFSET], no grouping.

// splitTopK handles ORDER BY with an optional literal LIMIT/OFFSET.
// Each shard evaluates the block with its SELECT replaced by a tuple
// carrying the output row (__v) and every sort key (__k<i>), sorted and
// pruned to limit+offset rows; the merge re-sorts the concatenated
// partials on the stored keys and applies the original LIMIT/OFFSET.
// Local sorts emit rows in order and the merge sort is stable over
// shard-concatenation order, so ties resolve exactly as a single node
// would under range partitioning.
// governor:bounded by the query text (plan-time rewrite; row buffers live in the engines)
func splitTopK(q *ast.SFW, name string) *scatterPlan {
	if len(q.OrderBy) == 0 || q.GroupBy != nil || q.Having != nil {
		return nil
	}
	if q.Select.Distinct || q.Select.Star || hasAggregates(q) {
		return nil
	}
	vExpr, ok := selectValueExpr(q.Select)
	if !ok {
		return nil
	}
	limit, offset, ok := litWindow(q)
	if !ok {
		return nil
	}

	// Sort keys may reference SELECT-item output aliases; the local
	// query's SELECT is replaced, so inline them (unless a block variable
	// shadows the name, in which case the engine resolved the variable
	// and the clone still does).
	blockVars := blockVars(q)
	aliases := map[string]ast.Expr{}
	for _, it := range q.Select.Items {
		if it.Alias != "" && it.Expr != nil && !blockVars[it.Alias] {
			aliases[it.Alias] = it.Expr
		}
	}
	sub := &aliasSubst{aliases: aliases}

	local := ast.CloneExpr(q).(*ast.SFW)
	fields := []ast.TupleField{{Name: strLit("__v"), Value: vExpr}}
	mergeOrder := make([]ast.OrderItem, len(q.OrderBy))
	for i, o := range q.OrderBy {
		slot := "__k" + strconv.Itoa(i)
		fields = append(fields, ast.TupleField{Name: strLit(slot), Value: sub.apply(ast.CloneExpr(o.Expr))})
		mergeOrder[i] = ast.OrderItem{
			Expr:       fieldOf(varRef("__r"), slot),
			Desc:       o.Desc,
			NullsFirst: o.NullsFirst,
		}
	}
	if sub.bad {
		return nil
	}
	local.Select = ast.SelectClause{Value: &ast.TupleCtor{Fields: fields}}
	local.Limit, local.Offset = nil, nil
	if limit >= 0 {
		local.Limit = intLit(limit + offset)
	}

	merge := &ast.SFW{
		Select:  ast.SelectClause{Value: fieldOf(varRef("__r"), "__v")},
		From:    []ast.FromItem{&ast.FromExpr{Expr: varRef(partialsName), As: "__r"}},
		OrderBy: mergeOrder,
	}
	setWindow(merge, limit, offset)
	return &scatterPlan{
		class:      "topk",
		shardQuery: ast.Format(local),
		mergeQuery: ast.Format(merge),
		sharded:    name,
	}
}

// selectValueExpr builds the SELECT VALUE form of a select clause:
// VALUE passes through; an item list becomes the tuple constructor the
// Core lowering would build (parser-filled aliases, "_<i>" for the
// rest). Star and expr.* items need scope information and defer to
// gather.
func selectValueExpr(sel ast.SelectClause) (ast.Expr, bool) {
	if sel.Value != nil {
		return ast.CloneExpr(sel.Value), true
	}
	if sel.Star || len(sel.Items) == 0 {
		return nil, false
	}
	fields := make([]ast.TupleField, len(sel.Items))
	for i, it := range sel.Items {
		if it.StarOf != nil || it.Expr == nil {
			return nil, false
		}
		name := it.Alias
		if name == "" {
			name = "_" + strconv.Itoa(i+1)
		}
		fields[i] = ast.TupleField{Name: strLit(name), Value: ast.CloneExpr(it.Expr)}
	}
	return &ast.TupleCtor{Fields: fields}, true
}

// hasAggregates reports whether the block's post-group clauses apply a
// SQL aggregate at this block's level (nested query blocks own their
// aggregates and are not descended into).
func hasAggregates(q *ast.SFW) bool {
	found := false
	eachTopExpr(q, func(e ast.Expr) {
		walkShallow(e, func(n ast.Expr) bool {
			if c, ok := n.(*ast.Call); ok && isMergeableAgg(c.Name) {
				found = true
			}
			return true
		})
	})
	return found
}

// eachTopExpr visits the select/having/order expressions of a block —
// the clauses the group transform applies to.
func eachTopExpr(q *ast.SFW, fn func(ast.Expr)) {
	if q.Select.Value != nil {
		fn(q.Select.Value)
	}
	for _, it := range q.Select.Items {
		if it.Expr != nil {
			fn(it.Expr)
		}
	}
	if q.Having != nil {
		fn(q.Having)
	}
	for _, o := range q.OrderBy {
		fn(o.Expr)
	}
}

// walkShallow walks e without descending into nested query blocks,
// mirroring the rewriter's group transform.
func walkShallow(e ast.Expr, fn func(ast.Expr) bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Expr) bool {
		switch n.(type) {
		case *ast.SFW, *ast.SetOp, *ast.With:
			// The root may itself be a block only when e is one; the
			// callers never pass blocks, so any block here is nested.
			return false
		}
		return fn(n)
	})
}

// isMergeableAgg reports the SQL aggregates the group split can
// decompose. EVERY/ANY/SOME/ARRAY_AGG exist in the engine but are not
// split (ARRAY_AGG order and the quantifiers' NULL logic are handled by
// the gather fallback).
func isMergeableAgg(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// isAnyAgg reports any SQL aggregate name (including the non-mergeable
// ones, which force the gather fallback when present).
func isAnyAgg(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "EVERY", "ANY", "SOME", "ARRAY_AGG":
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Class concat: no grouping, no ordering.

// splitConcat handles plain scatters: each shard runs the block
// (DISTINCT and LIMIT prune locally where provably safe) and the merge
// concatenates in shard order, re-applying DISTINCT and the original
// LIMIT/OFFSET window.
func splitConcat(q *ast.SFW, name string) *scatterPlan {
	if q.GroupBy != nil || q.Having != nil || len(q.OrderBy) > 0 || hasAggregates(q) {
		return nil
	}
	if q.Select.Star || selectHasStarOf(q.Select) {
		return nil
	}
	limit, offset, ok := litWindow(q)
	if !ok {
		return nil
	}

	local := ast.CloneExpr(q).(*ast.SFW)
	local.Limit, local.Offset = nil, nil
	if limit >= 0 {
		// A row outside a shard's first limit+offset (distinct) rows has
		// at least that many rows ahead of it globally too, so local
		// pruning to limit+offset never cuts a row the window needs.
		local.Limit = intLit(limit + offset)
	}

	merge := &ast.SFW{
		Select: ast.SelectClause{Distinct: q.Select.Distinct, Value: varRef("__r")},
		From:   []ast.FromItem{&ast.FromExpr{Expr: varRef(partialsName), As: "__r"}},
	}
	setWindow(merge, limit, offset)
	return &scatterPlan{
		class:      "concat",
		shardQuery: ast.Format(local),
		mergeQuery: ast.Format(merge),
		sharded:    name,
	}
}

// selectHasStarOf reports an expr.* item, which needs scope information
// the splitter does not model.
func selectHasStarOf(sel ast.SelectClause) bool {
	for _, it := range sel.Items {
		if it.StarOf != nil {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Class group: GROUP BY / implicit grouping with mergeable aggregates.

// splitGroup handles grouped aggregation. The per-shard query computes
// each group's keys and partial aggregates:
//
//	COUNT(x) → __a<j> = COUNT(x)            merge: SUM(__a<j>)
//	SUM(x)   → __a<j> = SUM(x)              merge: SUM(__a<j>), MISSING if any partial is
//	AVG(x)   → __a<j> = SUM(x), __n<j> = COUNT(x)
//	                                        merge: (1.0*SUM(__a<j>))/SUM(__n<j>)
//	MIN/MAX  → __a<j> = MIN/MAX(x)          merge: MIN/MAX(__a<j>)
//
// The merge query groups the partials by the stored keys and rebuilds
// the original SELECT/HAVING/ORDER BY with key references and aggregate
// calls substituted by the merged forms. A per-shard aggregate that
// faulted under permissive typing yields MISSING, which the tuple
// constructor drops — the merge detects the absent slot and propagates
// MISSING, exactly as a single node's faulted aggregate would.
//
// The AVG merge multiplies by 1.0 before dividing so integer partial
// sums divide in float like COLL_AVG does; integer totals stay exact
// (IEEE doubles are exact through 2^53, and partial SUMs are exact
// int64 adds). Float SUM/AVG re-associate across shards — see the
// package comment.
//
// When the collection is hash-partitioned and one grouping key is its
// partitioning key (coPartitionedKey), every group lives whole on one
// shard and its partial row is already final: the merge does not group
// again. Each aggregate reads its partial, keys read their slots, and
// HAVING becomes the merge's WHERE.
// governor:bounded by the query text (plan-time rewrite; partial folds charge shard-gather at merge)
func splitGroup(q *ast.SFW, name string, spec Spec) *scatterPlan {
	hasGroup := q.GroupBy != nil
	if hasGroup && (q.GroupBy.GroupAs != "" || len(q.GroupBy.Keys) == 0) {
		return nil
	}
	if !hasGroup && (q.Having != nil || !hasAggregates(q)) {
		return nil
	}
	if q.Select.Star || selectHasStarOf(q.Select) {
		return nil
	}
	limit, offset, ok := litWindow(q)
	if !ok {
		return nil
	}

	// Collect the distinct aggregate calls, one slot each (Equal calls
	// share one); any unsupported or DISTINCT aggregate defers to gather.
	var slots []*ast.Call
	bad := false
	eachTopExpr(q, func(e ast.Expr) {
		walkShallow(e, func(n ast.Expr) bool {
			c, ok := n.(*ast.Call)
			if !ok {
				return true
			}
			if !isAnyAgg(c.Name) {
				return true
			}
			if !isMergeableAgg(c.Name) || c.Distinct {
				bad = true
				return false
			}
			if slotOf(slots, c) < 0 {
				slots = append(slots, c)
			}
			// Do not descend into the aggregate's argument: nested blocks
			// in there run locally, and nested aggregates are invalid
			// anyway (the engine rejects them).
			return false
		})
	})
	if bad {
		return nil
	}

	// Key substitution: a key expression and a reference to its
	// (explicit or SQL-implicit) alias both read the merge-side key slot.
	var keys []ast.GroupKey
	if hasGroup {
		keys = q.GroupBy.Keys
	}
	sub := &groupMergeSubst{slots: slots}
	blockVars := blockVars(q)
	for i, k := range keys {
		sub.keys = append(sub.keys, k.Expr)
		sub.keyOf = append(sub.keyOf, i)
		if alias := ast.KeyAlias(k, i); !blockVars[alias] {
			sub.keys = append(sub.keys, varRef(alias))
			sub.keyOf = append(sub.keyOf, i)
		}
	}

	// Local query: group per shard, emitting key and partial slots.
	local := ast.CloneExpr(q).(*ast.SFW)
	local.Having = nil
	local.OrderBy = nil
	local.Limit, local.Offset = nil, nil
	local.Select = ast.SelectClause{}
	var fields []ast.TupleField
	for i, k := range keys {
		fields = append(fields, ast.TupleField{Name: strLit("__k" + strconv.Itoa(i)), Value: ast.CloneExpr(k.Expr)})
	}
	for i, c := range slots {
		j := strconv.Itoa(i)
		arg := func() *ast.Call { return ast.CloneExpr(c).(*ast.Call) }
		switch strings.ToUpper(c.Name) {
		case "COUNT", "MIN", "MAX", "SUM":
			fields = append(fields, ast.TupleField{Name: strLit("__a" + j), Value: arg()})
		case "AVG":
			sum := arg()
			sum.Name = "SUM"
			cnt := arg()
			cnt.Name = "COUNT"
			fields = append(fields,
				ast.TupleField{Name: strLit("__a" + j), Value: sum},
				ast.TupleField{Name: strLit("__n" + j), Value: cnt})
		}
	}
	local.Select.Value = &ast.TupleCtor{Fields: fields}
	if hasGroup {
		local.GroupBy.GroupAs = ""
	}

	// Merge query: re-group the partials by the stored keys (unless the
	// groups are co-partitioned), substitute key references and aggregate
	// calls in the reconstructed clauses.
	merge := &ast.SFW{
		From: []ast.FromItem{&ast.FromExpr{Expr: varRef(partialsName), As: "__r"}},
	}
	coKey := coPartitionedKey(q, spec, keys)
	sub.direct = coKey >= 0
	if hasGroup && coKey < 0 {
		mkeys := make([]ast.GroupKey, len(keys))
		for i := range keys {
			mkeys[i] = ast.GroupKey{
				Expr:  fieldOf(varRef("__r"), "__k"+strconv.Itoa(i)),
				Alias: "__gk" + strconv.Itoa(i),
			}
		}
		merge.GroupBy = &ast.GroupBy{Keys: mkeys}
	}

	bad = false
	reb := func(e ast.Expr) ast.Expr {
		out := sub.apply(ast.CloneExpr(e))
		if sub.bad {
			bad = true
		}
		return out
	}
	if q.Select.Value != nil {
		merge.Select = ast.SelectClause{Distinct: q.Select.Distinct, Value: reb(q.Select.Value)}
	} else {
		items := make([]ast.SelectItem, len(q.Select.Items))
		for i, it := range q.Select.Items {
			// The output attribute must keep the original item's name
			// (parser-filled implicit alias, or positional), so make it
			// explicit: the substitution may have renamed the expression.
			alias := it.Alias
			if alias == "" {
				alias = "_" + strconv.Itoa(i+1)
			}
			items[i] = ast.SelectItem{Expr: reb(it.Expr), Alias: alias, HasAlias: true}
		}
		merge.Select = ast.SelectClause{Distinct: q.Select.Distinct, Items: items}
	}
	// Over co-partitioned partials HAVING filters rows, as WHERE.
	var having ast.Expr
	if q.Having != nil {
		having = reb(q.Having)
	}
	if sub.direct {
		merge.Where = having
	} else {
		merge.Having = having
	}
	for _, o := range q.OrderBy {
		merge.OrderBy = append(merge.OrderBy, ast.OrderItem{
			Expr:       reb(o.Expr),
			Desc:       o.Desc,
			NullsFirst: o.NullsFirst,
		})
	}
	setWindow(merge, limit, offset)
	if bad {
		return nil
	}
	// Anything left referencing a pre-group binding cannot be computed
	// from the partials; the single-node engine would reject it too, and
	// the gather fallback reproduces that rejection verbatim.
	if referencesAny(merge.Select, having, merge.OrderBy, blockVars) {
		return nil
	}
	p := &scatterPlan{
		class:      "group",
		shardQuery: ast.Format(local),
		mergeQuery: ast.Format(merge),
		sharded:    name,
	}
	if sub.direct {
		p.coPartitioned = spec.Key
	}
	return p
}

// coPartitionedKey returns the index of the grouping key that is the
// head collection's hash-partitioning key — exactly <head var>.<Key>,
// with nothing else in the block rebinding the head variable — or -1.
// Partition places equal keys, and all absent ones, on one shard, so
// each group of such a query is computed whole by one shard.
func coPartitionedKey(q *ast.SFW, spec Spec, keys []ast.GroupKey) int {
	if spec.Kind != Hash {
		return -1
	}
	head := headItem(q)
	if head == nil || head.As == "" {
		return -1
	}
	binds := 0
	for _, f := range q.From {
		for _, v := range ast.ItemVars(f) {
			if v == head.As {
				binds++
			}
		}
	}
	for _, l := range q.Lets {
		if l.Name == head.As {
			binds++
		}
	}
	if binds != 1 {
		return -1
	}
	want := head.As + "." + spec.Key
	for i, k := range keys {
		if c, ok := chainName(k.Expr); ok && c == want {
			return i
		}
	}
	return -1
}

// groupMergeSubst rewrites a post-group expression for the merge side:
// group-key occurrences (the key expression or a reference to its alias)
// become key-slot references, mergeable aggregate calls become their
// merged forms. With direct set (co-partitioned groups) there is one
// partial row per group and both read that row's slots.
type groupMergeSubst struct {
	// keys are the trees that read a key slot: keys[j] reads slot keyOf[j].
	keys   []ast.Expr
	keyOf  []int
	slots  []*ast.Call
	direct bool
	bad    bool
}

// slotOf returns the slot of the aggregate call Equal to c, or -1.
func slotOf(slots []*ast.Call, c *ast.Call) int {
	return slices.IndexFunc(slots, func(s *ast.Call) bool { return ast.Equal(s, c) })
}

// keyRef reads the key slot that keys[j] stands for.
func (s *groupMergeSubst) keyRef(j int, _ ast.Expr) ast.Expr {
	i := s.keyOf[j]
	if s.direct {
		return fieldOf(varRef("__r"), "__k"+strconv.Itoa(i))
	}
	return varRef("__gk" + strconv.Itoa(i))
}

// mergedAgg builds the merge-side replacement of one aggregate slot.
func (s *groupMergeSubst) mergedAgg(slot int) ast.Expr {
	j := strconv.Itoa(slot)
	agg := strings.ToUpper(s.slots[slot].Name)
	part := func(prefix string) ast.Expr {
		return fieldOf(varRef("__r"), prefix+j)
	}
	aggOver := func(fn string, arg ast.Expr) ast.Expr {
		return &ast.Call{Name: fn, Args: []ast.Expr{arg}}
	}
	avg := func(sum, cnt ast.Expr) ast.Expr {
		num := &ast.Binary{Op: "*", L: &ast.Literal{Val: value.Float(1)}, R: sum}
		return &ast.Binary{Op: "/", L: num, R: cnt}
	}
	faulted := ast.Expr(&ast.Is{Target: part("__a"), What: "MISSING"})
	if s.direct {
		switch agg {
		case "COUNT", "MIN", "MAX", "SUM":
			// One partial per group: a faulted SUM partial is absent from
			// its row, so reading it yields MISSING as the guard would.
			return part("__a")
		case "AVG":
			// Guarded still: in compat mode 1.0 * MISSING is NULL.
			return faultGuard(faulted, avg(part("__a"), part("__n")))
		}
		s.bad = true
		return varRef("__bad")
	}
	faulted = aggOver("SOME", faulted)
	switch agg {
	case "COUNT":
		return aggOver("SUM", part("__a"))
	case "MIN":
		return aggOver("MIN", part("__a"))
	case "MAX":
		return aggOver("MAX", part("__a"))
	case "SUM":
		return faultGuard(faulted, aggOver("SUM", part("__a")))
	case "AVG":
		// (1.0 * SUM(__a)) / SUM(__n): float division like COLL_AVG, and
		// absent propagation gives NULL for all-absent groups before the
		// zero divisor could matter.
		return faultGuard(faulted, avg(aggOver("SUM", part("__a")), aggOver("SUM", part("__n"))))
	}
	s.bad = true
	return varRef("__bad")
}

// faultGuard wraps a merged SUM/AVG: if a shard's partial faulted to
// MISSING (and so is absent from its row), the merged aggregate is
// MISSING. Over re-grouped partials the test is itself an aggregate
// (SOME(__r.__a<j> IS MISSING)), so the merge block folds it row by row
// like the rest and never needs the group's rows as a collection.
func faultGuard(faulted, merged ast.Expr) ast.Expr {
	return &ast.Case{
		Whens: []ast.When{{
			Cond:   faulted,
			Result: &ast.Literal{Val: value.Missing},
		}},
		Else: merged,
	}
}

// apply substitutes in place over a cloned expression.
func (s *groupMergeSubst) apply(e ast.Expr) ast.Expr {
	return ast.ReplaceKeys(e, s.keys, s.keyRef, s.mergeNode)
}

// mergeNode replaces an aggregate call by its merged form. A nested block
// would need correlation analysis: it flags bad, as does an aggregate
// with no slot, and the caller falls back.
func (s *groupMergeSubst) mergeNode(e ast.Expr) (ast.Expr, bool) {
	if c, ok := e.(*ast.Call); ok && isAnyAgg(c.Name) {
		if j := slotOf(s.slots, c); j >= 0 {
			return s.mergedAgg(j), true
		}
		s.bad = true
		return e, true
	}
	switch e.(type) {
	case *ast.SFW, *ast.SetOp, *ast.With:
		s.bad = true
		return e, true
	}
	return nil, false
}

// aliasSubst replaces references to SELECT-item aliases with the item's
// expression — the topk local query replaces the SELECT clause, so sort
// keys written against output aliases must be inlined. An alias
// reference inside a nested query block cannot be inlined safely and
// flags bad (→ gather fallback).
type aliasSubst struct {
	aliases map[string]ast.Expr
	bad     bool
}

func (s *aliasSubst) apply(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if v, ok := e.(*ast.VarRef); ok {
		if repl, hit := s.aliases[v.Name]; hit {
			return ast.CloneExpr(repl)
		}
		return e
	}
	switch e.(type) {
	case *ast.SFW, *ast.SetOp, *ast.With:
		ast.Inspect(e, func(n ast.Expr) bool {
			if v, ok := n.(*ast.VarRef); ok {
				if _, hit := s.aliases[v.Name]; hit {
					s.bad = true
				}
			}
			return !s.bad
		})
		return e
	}
	ast.Children(e, func(c *ast.Expr) { *c = s.apply(*c) })
	return e
}

// referencesAny reports whether any rebuilt merge clause still
// references a pre-group binding — such an expression cannot be
// evaluated from the partials.
func referencesAny(sel ast.SelectClause, having ast.Expr, order []ast.OrderItem, vars map[string]bool) bool {
	found := false
	check := func(e ast.Expr) {
		if e == nil || found {
			return
		}
		ast.Inspect(e, func(n ast.Expr) bool {
			if v, ok := n.(*ast.VarRef); ok && vars[v.Name] {
				found = true
			}
			return !found
		})
	}
	if sel.Value != nil {
		check(sel.Value)
	}
	for _, it := range sel.Items {
		check(it.Expr)
	}
	check(having)
	for _, o := range order {
		check(o.Expr)
	}
	return found
}
