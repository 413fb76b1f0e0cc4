package shard

import (
	"slices"
	"strconv"
	"strings"

	"sqlpp"
	"sqlpp/internal/ast"
	"sqlpp/internal/funcs"
	"sqlpp/internal/plan"
	"sqlpp/internal/value"
)

// The splitter classifies a query against the sharded-collection
// registry and, when it can prove a merge decomposition correct,
// generates the per-shard and merge queries. It reads the query's Core,
// as the engine rewrites it: a sharded collection is a catalog name the
// tree refers to, a SQL aggregate is a COLL_* fold over the GROUP AS
// variable (implicit grouping is GROUP BY ()), every SELECT is SELECT
// VALUE, and aliases and shadowing are already resolved. Everything it
// cannot prove falls back to class gather — ship the sharded collections
// back whole and run the original query unchanged — so sharding never
// changes results, only where the work happens.
//
// Classes:
//
//	local   no sharded collection is referenced; run on the coordinator.
//	group   GROUP BY whose group variable only COUNT/SUM/AVG/MIN/MAX fold
//	        (plan.RecognizeFolds, the streamed GROUP BY's recogniser):
//	        per-shard partial folds, global merge by COLL_* decomposition
//	        over the partial rows (read as they are when the groups are
//	        co-partitioned).
//	topk    ORDER BY with literal LIMIT/OFFSET: per-shard top-(l+o)
//	        carrying the sort keys, coordinator merge re-sort.
//	concat  plain scatter; DISTINCT de-duplicates again at the merge,
//	        literal LIMIT+OFFSET prunes locally to l+o rows.
//	gather  the always-correct fallback.
//
// The shard and merge queries are printed Core, which every node
// rewrites back to the tree that was printed. They communicate through
// reserved attribute slots (__k<i> group/sort keys, __a<j>/__n<j>
// aggregate partials, __v rows) in a partials bag the coordinator binds
// to the merge as the parameter __partials.
const partialsName = "__partials"

// scatterPlan is a classified, split query, with what the coordinator
// runs of it prepared, cached per planKey and shared by every request
// with that key. It is immutable once newScatterPlan returns it.
type scatterPlan struct {
	class string // "local" | "group" | "topk" | "concat" | "gather"
	// err is the query's parse or rewrite error: the query answers it
	// without running anywhere, as one engine would.
	err error
	// shardQuery runs on every shard (classes group/topk/concat).
	shardQuery string
	// mergeQuery runs on the coordinator over __partials (classes
	// group/topk/concat).
	mergeQuery string
	// prepared is what the coordinator runs: the query (class local) or
	// mergeQuery (classes group/topk/concat). prepErr is the error
	// preparing it, answered where running it would fail: after the
	// scatter for a merge, so a merge error never changes what the
	// shards are asked.
	prepared *sqlpp.PreparedParams
	prepErr  error
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

// foldFuncs names the functions the fold recogniser folds.
var foldFuncs = funcs.NewRegistry()

// classify splits query against the sharded-name registry, reading the
// Core eng's rewrite makes of it with params bound.
// governor:bounded by the query text and the sharded-collection count (plan-time, no data rows)
func classify(eng *sqlpp.Engine, query string, params []string, specs map[string]Spec) *scatterPlan {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	core, err := eng.Rewrite(query, params, names...)
	if err != nil {
		return &scatterPlan{class: "local", err: err}
	}
	var refs, gathered []string // every sharded reference; the distinct ones
	ast.Inspect(core, func(n ast.Expr) bool {
		if r, ok := n.(*ast.NamedRef); ok {
			if _, sharded := specs[r.Name]; sharded {
				if !slices.Contains(refs, r.Name) {
					gathered = append(gathered, r.Name)
				}
				refs = append(refs, r.Name)
			}
		}
		return true
	})
	if len(refs) == 0 {
		return &scatterPlan{class: "local"}
	}
	gather := &scatterPlan{class: "gather", gather: gathered}
	// A PIVOT builds one tuple, which no partial merge reassembles; window
	// frames span the whole collection; parameters, the tree's free
	// variables, bind only where the original query runs.
	q, ok := core.(*ast.SFW)
	if !ok || q.Select.PivotAt != nil || len(refs) > 1 || !headIsSharded(q, refs[0]) ||
		hasWindows(core) || len(ast.FreeVars(core)) > 0 {
		return gather
	}
	limit, offset, ok := litWindow(q)
	if !ok {
		return gather
	}
	var p *scatterPlan
	switch {
	case q.GroupBy != nil:
		p = splitGroup(q, specs[refs[0]], limit, offset)
	case q.Having != nil:
		// HAVING without grouping filters the whole answer: gather.
	case len(q.OrderBy) > 0:
		p = splitTopK(q, limit, offset)
	default:
		p = splitConcat(q, limit, offset)
	}
	if p == nil {
		return gather
	}
	p.sharded = refs[0]
	return p
}

// headIsSharded reports whether the query's leftmost FROM leaf ranges
// over name, with every join on the spine tolerating a partitioned
// left side (inner/left/cross: each output row is driven by exactly
// one left row, so partitioning the left tiles the join).
func headIsSharded(q *ast.SFW, name string) bool {
	fe := headItem(q)
	if fe == nil || fe.AtVar != "" {
		// AT ordinals restart at zero on every shard; only the gather
		// fallback sees global positions.
		return false
	}
	r, ok := fe.Expr.(*ast.NamedRef)
	return ok && r.Name == name
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

// hasWindows reports a window computation anywhere in a Core tree: the
// rewriter lifts each into its block's Windows.
func hasWindows(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Expr) bool {
		switch x := n.(type) {
		case *ast.Window:
			found = true
		case *ast.SFW:
			found = found || len(x.Windows) > 0
		}
		return !found
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

// pruneLocal makes a shard query keep the first limit+offset rows. A row
// outside a shard's first limit+offset rows has at least that many rows
// ahead of it globally too, so local pruning never cuts a row the
// window needs.
func pruneLocal(local *ast.SFW, limit, offset int64) {
	local.Limit, local.Offset = nil, nil
	if limit >= 0 {
		local.Limit = intLit(limit + offset)
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

// partial reads slot of the partial row __r.
func partial(slot string) ast.Expr { return fieldOf(varRef("__r"), slot) }

// field builds one tuple constructor field.
func field(name string, v ast.Expr) ast.TupleField {
	return ast.TupleField{Name: &ast.Literal{Val: value.String(name)}, Value: v}
}

// partialsFrom is the merge query's FROM __partials AS __r.
func partialsFrom() []ast.FromItem {
	return []ast.FromItem{&ast.FromExpr{Expr: varRef(partialsName), As: "__r"}}
}

// ---------------------------------------------------------------------
// Class topk: ORDER BY [literal LIMIT/OFFSET], no grouping.

// splitTopK handles ORDER BY with an optional literal LIMIT/OFFSET.
// Each shard evaluates the block with its SELECT replaced by a tuple
// carrying the output row (__v) and every sort key (__k<i>), sorted and
// pruned to limit+offset rows; the merge re-sorts the concatenated
// partials on the stored keys and applies the original LIMIT/OFFSET.
// Local sorts emit rows in order and the merge sort is stable over
// shard-concatenation order, so ties resolve exactly as a single node
// would under range partitioning. Core sort keys read the block's
// variables, never SELECT aliases, so they carry over as written.
// governor:bounded by the query text (plan-time rewrite; row buffers live in the engines)
func splitTopK(q *ast.SFW, limit, offset int64) *scatterPlan {
	if q.Select.Distinct {
		return nil
	}
	local := *q
	fields := []ast.TupleField{field("__v", q.Select.Value)}
	mergeOrder := make([]ast.OrderItem, len(q.OrderBy))
	for i, o := range q.OrderBy {
		slot := "__k" + strconv.Itoa(i)
		fields = append(fields, field(slot, o.Expr))
		o.Expr = partial(slot)
		mergeOrder[i] = o
	}
	local.Select = ast.SelectClause{Value: &ast.TupleCtor{Fields: fields}}
	pruneLocal(&local, limit, offset)

	merge := &ast.SFW{
		Select:  ast.SelectClause{Value: partial("__v")},
		From:    partialsFrom(),
		OrderBy: mergeOrder,
	}
	setWindow(merge, limit, offset)
	return &scatterPlan{class: "topk", shardQuery: ast.Format(&local), mergeQuery: ast.Format(merge)}
}

// ---------------------------------------------------------------------
// Class concat: no grouping, no ordering.

// splitConcat handles plain scatters: each shard runs the block
// (LIMIT prunes locally) and the merge concatenates in shard order,
// re-applying DISTINCT and the original LIMIT/OFFSET window.
func splitConcat(q *ast.SFW, limit, offset int64) *scatterPlan {
	local := *q
	pruneLocal(&local, limit, offset)
	merge := &ast.SFW{
		Select: ast.SelectClause{Distinct: q.Select.Distinct, Value: varRef("__r")},
		From:   partialsFrom(),
	}
	setWindow(merge, limit, offset)
	return &scatterPlan{class: "concat", shardQuery: ast.Format(&local), mergeQuery: ast.Format(merge)}
}

// ---------------------------------------------------------------------
// Class group: GROUP BY whose group variable is only folded mergeably.

// splitGroup handles grouped aggregation. The per-shard query computes
// each group's keys and partial folds; the merge folds the partials per
// group (over the merge's own GROUP AS, named as the query's):
//
//	COLL_COUNT → __a<j> = COLL_COUNT   merge: COLL_SUM(__a<j>)
//	COLL_SUM   → __a<j> = COLL_SUM     merge: COLL_SUM(__a<j>), MISSING if any partial is
//	COLL_AVG   → __a<j> = COLL_SUM, __n<j> = COLL_COUNT
//	                                   merge: (1.0*COLL_SUM(__a<j>))/COLL_SUM(__n<j>), guarded alike
//	COLL_MIN/MAX → __a<j> = COLL_MIN/MAX  merge: COLL_MIN/MAX(__a<j>)
//
// The merge regroups the partials by the stored keys under the query's
// own key aliases, so the post-group clauses carry over with only their
// folds replaced. A per-shard fold that faulted under permissive typing
// yields MISSING, which the tuple constructor drops — the merge detects
// the absent slot and propagates MISSING, exactly as a single node's
// faulted aggregate would.
//
// The AVG merge multiplies by 1.0 before dividing so integer partial
// sums divide in float like COLL_AVG does; integer totals stay exact
// (IEEE doubles are exact through 2^53, and partial SUMs are exact
// int64 adds). Float SUM/AVG re-associate across shards — see the
// package comment.
//
// When the collection is hash-partitioned and one grouping key is its
// partitioning key (coPartitioned), every group lives whole on one
// shard and its partial row is already final: the merge does not group
// again. Each fold reads its partial, keys read their slots, and HAVING
// becomes the merge's WHERE.
//
// A GROUP AS the query names itself (not one of the rewriter's
// $-prefixed fresh names) keeps the query on gather even when only folds
// read it: Listing 12's shape, whose path is the gather class's own
// question (ROADMAP item 16).
// governor:bounded by the query text (plan-time rewrite; partial folds charge shard-gather at merge)
func splitGroup(q *ast.SFW, spec Spec, limit, offset int64) *scatterPlan {
	g := q.GroupBy
	if g.GroupAs != "" && !strings.HasPrefix(g.GroupAs, "$") {
		return nil
	}
	folds, _ := plan.RecognizeFolds(q, foldFuncs, true)
	if folds == nil {
		return nil
	}
	direct := coPartitioned(q, spec)
	gv := g.GroupAs // the merge's group variable, "" over co-partitioned partials
	if direct {
		gv = ""
	}

	// Local query: group per shard, emitting key and partial slots.
	fields := make([]ast.TupleField, 0, len(g.Keys)+len(folds.Slots))
	keys := make([]ast.GroupKey, len(g.Keys))
	keyRead := make(map[string]ast.Expr, len(g.Keys))
	for i, k := range g.Keys {
		slot, alias := "__k"+strconv.Itoa(i), ast.KeyAlias(k, i)
		fields = append(fields, field(slot, varRef(alias)))
		keys[i] = ast.GroupKey{Expr: partial(slot), Alias: alias}
		keyRead[alias] = varRef(alias)
		if direct {
			keyRead[alias] = partial(slot)
		}
	}
	merged := make([]ast.Expr, len(folds.Slots))
	for j, s := range folds.Slots {
		a, n := "__a"+strconv.Itoa(j), "__n"+strconv.Itoa(j)
		if merged[j] = mergedFold(s.Def.Name, a, n, gv); merged[j] == nil {
			return nil
		}
		if s.Def.Name != "COLL_AVG" {
			fields = append(fields, field(a, s.Call))
			continue
		}
		sum, cnt := *s.Call, *s.Call
		sum.Name, cnt.Name = "COLL_SUM", "COLL_COUNT"
		fields = append(fields, field(a, &sum), field(n, &cnt))
	}
	local := *q
	local.Select = ast.SelectClause{Value: &ast.TupleCtor{Fields: fields}}
	local.Having, local.OrderBy, local.Limit, local.Offset = nil, nil, nil, nil

	// Merge query: the post-group clauses with every fold read replaced
	// by its merged form. A key alias is all else they may read: a block
	// or a catalog name would run where only the partials are.
	bad := false
	rebuild := func(e ast.Expr) ast.Expr {
		return ast.CloneReplace(e, func(n ast.Expr) ast.Expr {
			if j, ok := folds.SlotRead(n); ok {
				return merged[j]
			}
			switch x := n.(type) {
			case *ast.VarRef:
				if read, ok := keyRead[x.Name]; ok {
					return read
				}
				bad = true
			case *ast.NamedRef, *ast.SFW, *ast.SetOp, *ast.With:
				bad = true
				return x
			}
			return nil
		})
	}
	post := folds.Post
	merge := &ast.SFW{
		Select: ast.SelectClause{Distinct: q.Select.Distinct, Value: rebuild(post.Select.Value)},
		From:   partialsFrom(),
	}
	if direct {
		merge.Where = rebuild(post.Having)
	} else {
		merge.GroupBy = &ast.GroupBy{Keys: keys, GroupAs: g.GroupAs}
		merge.Having = rebuild(post.Having)
	}
	for _, o := range post.OrderBy {
		o.Expr = rebuild(o.Expr)
		merge.OrderBy = append(merge.OrderBy, o)
	}
	setWindow(merge, limit, offset)
	if bad {
		return nil
	}
	p := &scatterPlan{class: "group", shardQuery: ast.Format(&local), mergeQuery: ast.Format(merge)}
	if direct {
		p.coPartitioned = spec.Key
	}
	return p
}

// coPartitioned reports whether a grouping key is the head collection's
// hash-partitioning key — exactly <head var>.<Key>, with nothing else in
// the block rebinding the head variable. Partition places equal keys,
// and all absent ones, on one shard, so each group of such a query is
// computed whole by one shard.
func coPartitioned(q *ast.SFW, spec Spec) bool {
	if spec.Kind != Hash {
		return false
	}
	head := headItem(q).As
	binds := 0
	for _, f := range q.From {
		for _, v := range ast.ItemVars(f) {
			if v == head {
				binds++
			}
		}
	}
	for _, l := range q.Lets {
		if l.Name == head {
			binds++
		}
	}
	if binds != 1 {
		return false
	}
	want := varRef(head)
	for _, step := range strings.Split(spec.Key, ".") {
		want = fieldOf(want, step)
	}
	return slices.ContainsFunc(q.GroupBy.Keys, func(k ast.GroupKey) bool { return ast.Equal(k.Expr, want) })
}

// mergedFold is the merge-side form of fold fn, whose partials are in
// slot a (an AVG's counts in slot n), or nil when fn does not merge
// (ARRAY_AGG's order and the quantifiers' NULL logic are left to
// gather). Over regrouped partials it folds the partial column over the
// merge's group variable gv; over co-partitioned ones (gv "") it reads
// the group's one partial row.
func mergedFold(fn, a, n, gv string) ast.Expr {
	fold := func(f string, arg func(row ast.Expr) ast.Expr) ast.Expr {
		if gv == "" {
			return arg(varRef("__r"))
		}
		return &ast.Call{Name: f, Args: []ast.Expr{&ast.SFW{
			Select: ast.SelectClause{Value: arg(fieldOf(varRef("$p"), "__r"))},
			From:   []ast.FromItem{&ast.FromExpr{Expr: varRef(gv), As: "$p"}},
		}}}
	}
	col := func(slot string) func(ast.Expr) ast.Expr {
		return func(row ast.Expr) ast.Expr { return fieldOf(row, slot) }
	}
	faulted := fold("COLL_SOME", func(row ast.Expr) ast.Expr {
		return &ast.Is{Target: fieldOf(row, a), What: "MISSING"}
	})
	switch fn {
	case "COLL_COUNT":
		return fold("COLL_SUM", col(a))
	case "COLL_MIN", "COLL_MAX":
		return fold(fn, col(a))
	case "COLL_SUM":
		if gv == "" {
			// A faulted partial is absent from its row, so reading it
			// yields MISSING as the guard would.
			return fold(fn, col(a))
		}
		return faultGuard(faulted, fold(fn, col(a)))
	case "COLL_AVG":
		// (1.0 * SUM(__a)) / SUM(__n), float division like COLL_AVG;
		// absent propagation gives NULL for all-absent groups before the
		// zero divisor could matter. Guarded even over co-partitioned
		// partials: in compat mode 1.0 * MISSING is NULL.
		num := &ast.Binary{Op: "*", L: &ast.Literal{Val: value.Float(1)}, R: fold("COLL_SUM", col(a))}
		return faultGuard(faulted, &ast.Binary{Op: "/", L: num, R: fold("COLL_SUM", col(n))})
	}
	return nil
}

// faultGuard wraps a merged SUM/AVG: if a shard's partial faulted to
// MISSING (and so is absent from its row), the merged aggregate is
// MISSING. Over regrouped partials the test is itself a fold
// (COLL_SOME over __a<j> IS MISSING), so the merge block streams it row
// by row like the rest and never needs the group's rows as a collection.
func faultGuard(faulted, merged ast.Expr) ast.Expr {
	return &ast.Case{
		Whens: []ast.When{{
			Cond:   faulted,
			Result: &ast.Literal{Val: value.Missing},
		}},
		Else: merged,
	}
}
