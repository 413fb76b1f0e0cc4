package plan

import (
	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// EXPLAIN ANALYZE is a run that also takes wall time (Context.Analyze)
// followed by Explain, which walks the query's blocks and their physical
// plans once and reads each operator's counts off the run state that
// executed it (ctx.Runs). The tree mirrors the plan: a block's operators
// in pipeline order — FROM steps with their pushed filters, residual
// WHERE, GROUP BY, HAVING, windows, DISTINCT, ORDER BY / top-K, LIMIT —
// followed by the blocks and set operations nested in its clauses, in
// clause order (SELECT, FROM, LET, WHERE, …; ast.Children). A block or
// set operation that never ran has no node.
//
// Counts accumulate per operator across invocations — a correlated
// subquery's over its outer rows, a parallel scan's over its workers —
// except a block's rows out, which are its last invocation's. Wall
// times are inclusive: the pipeline is push-style, so an operator's
// continuation runs everything downstream of it, and a scan's span
// covers the work it feeds. A hash join's time is its builds'.

// Explain renders the EXPLAIN ANALYZE tree of root's execution in ctx.
func Explain(ctx *eval.Context, root ast.Expr) *eval.StatsSnapshot {
	top := &eval.StatsSnapshot{Op: "query"}
	explainNested(ctx, root, top)
	return top
}

// explainNested adds to parent the nodes of the blocks and set operations
// in e that ran, not descending into them. A block that never ran is
// looked through: blocks nested in it — those in the arguments of the
// folds a streamed GROUP BY replaced — may have.
func explainNested(ctx *eval.Context, e ast.Expr, parent *eval.StatsSnapshot) {
	ast.Inspect(e, func(n ast.Expr) bool {
		var node *eval.StatsSnapshot
		switch x := n.(type) {
		case *ast.SFW:
			if x.RunSlot < len(ctx.Runs) {
				if r, ok := ctx.Runs[x.RunSlot].(*blockRun); ok && r.block == x {
					node = r.explain()
				}
			}
		case *ast.SetOp:
			if x.RunSlot < len(ctx.Runs) {
				if counts, ok := ctx.Runs[x.RunSlot].(*eval.OpCounts); ok {
					op := x.Op
					if x.All {
						op += " ALL"
					}
					node = opNode("set-op", op, counts.Rows, counts.Nanos)
				}
			}
		}
		if node == nil {
			return true
		}
		parent.Children = append(parent.Children, node)
		ast.Children(n, func(c *ast.Expr) { explainNested(ctx, *c, node) })
		return false
	})
}

// opNode is an operator's node over its row counts and wall time.
func opNode(op, label string, rows eval.Rows, nanos int64) *eval.StatsSnapshot {
	return &eval.StatsSnapshot{Op: op, Label: label, RowsIn: rows.In, RowsOut: rows.Out, TimeNS: nanos}
}

// addOp appends an operator's node to parent and returns it.
func addOp(parent *eval.StatsSnapshot, op, label string, rows eval.Rows, nanos int64) *eval.StatsSnapshot {
	n := opNode(op, label, rows, nanos)
	parent.Children = append(parent.Children, n)
	return n
}

// counter sets one of n's operator-specific counters.
func counter(n *eval.StatsSnapshot, name string, v int64) {
	if n.Counters == nil {
		n.Counters = map[string]int64{}
	}
	n.Counters[name] = v
}

// explain renders the block's node with its operators.
//
// governor:bounded by the block's FROM items: one node per operator.
func (r *blockRun) explain() *eval.StatsSnapshot {
	q := r.block
	op := "select"
	if q.Select.PivotAt != nil {
		op = "pivot"
	}
	node := &eval.StatsSnapshot{Op: op, Label: q.Pos().String(), RowsOut: r.out, TimeNS: r.nanos}
	if r.st != nil {
		r.explainSteps(node)
	} else {
		for _, it := range r.from {
			node.Children = append(node.Children, it.explain())
		}
		if q.Where != nil {
			addOp(node, "filter", "where", r.where, 0)
		}
	}
	if q.GroupBy != nil {
		label := "materialize"
		if r.st != nil && r.st.phys.stream != nil {
			label = r.st.phys.stream.label
		}
		addOp(node, "group-by", label, *r.grp.counts(), 0)
	}
	if q.Having != nil {
		addOp(node, "filter", "having", r.having, 0)
	}
	if len(q.Windows) > 0 {
		addOp(node, "window", "", r.window.Rows, r.window.Nanos)
	}
	if q.Select.Distinct {
		addOp(node, "distinct", "", r.sink.distinct, 0)
	}
	if len(q.OrderBy) > 0 {
		if q.Limit == nil {
			addOp(node, "order-by", "", r.sink.order.Rows, r.sink.order.Nanos)
		} else if n := addOp(node, "top-k", "", r.sink.order.Rows, r.sink.order.Nanos); r.sink.top != nil {
			counter(n, "heap_evictions", r.sink.top.evicted)
		}
	}
	if q.Limit != nil || q.Offset != nil {
		addOp(node, "limit", "", r.sink.limit, 0)
	}
	return node
}

// explainSteps renders a planned block's FROM operators: its
// variable-free WHERE conjuncts, its steps — under the join-order buffer
// that restores their written production order when the plan reordered
// them — each with its pushed filters, and its residual WHERE.
//
// governor:bounded by the block's FROM items: one node per operator.
func (r *blockRun) explainSteps(node *eval.StatsSnapshot) {
	phys := r.st.phys
	if len(phys.pre) > 0 {
		addOp(node, "filter", "pre", r.pre, 0)
	}
	parent := node
	if phys.reorder != nil {
		parent = addOp(node, "join-order", phys.reorder.label, r.reorder.Rows, r.reorder.Nanos)
	}
	for i := range phys.steps {
		step, l := &phys.steps[i], &r.c.links[i]
		var n *eval.StatsSnapshot
		switch {
		case step.hash != nil:
			n = l.explainJoin(parent, step.hash)
		case step.idx != nil:
			op := "index_probe"
			if step.idx.eq == nil {
				op = "index_range"
			}
			n = addOp(parent, op, step.idx.name, l.item.Rows, l.item.Nanos)
			counter(n, "probes", l.lookups)
			counter(n, "hits", l.hits)
			if step.idx.estRows >= 0 {
				counter(n, "est_rows", step.idx.estRows)
			}
		default:
			n = l.item.explain()
			parent.Children = append(parent.Children, n)
			if step.hoist {
				counter(n, "hoisted", 1)
			}
			if step.estSrc >= 0 {
				counter(n, "est_rows", step.estSrc)
			}
		}
		if i == 0 && r.chunks > 0 {
			counter(n, "chunks", r.chunks)
		}
		if len(step.filters) > 0 {
			f := addOp(n, "filter", "pushed", eval.Rows{In: n.RowsOut, Out: l.filtered}, 0)
			if step.estOut >= 0 {
				counter(f, "est_rows", step.estOut)
			}
		}
	}
	if len(phys.residual) > 0 {
		addOp(node, "filter", "residual", r.where, 0)
	}
}

// explainJoin renders a hash join — an index join when an index serves
// its build side — with its probe side (a JOIN's left operand) and its
// build scan below it.
func (l *link) explainJoin(parent *eval.StatsSnapshot, h *hashJoinStep) *eval.StatsSnapshot {
	j := l.join
	kind := "inner"
	if h.leftJoin {
		kind = "left"
	}
	op, label := "hash-join", kind
	if h.buildIdx != nil {
		op, label = "index_join", kind+" "+h.buildIdx.name
	}
	n := addOp(parent, op, label, j.Rows, j.Nanos)
	counter(n, "candidates", j.candidates)
	counter(n, "verified", j.verified)
	if h.leftJoin {
		counter(n, "left_pads", j.pads)
	}
	if h.buildIdx != nil {
		counter(n, "probes", l.lookups)
		counter(n, "hits", l.hits)
	}
	if h.estBuild >= 0 {
		counter(n, "est_build", h.estBuild)
	}
	if h.estOut >= 0 {
		counter(n, "est_rows", h.estOut)
	}
	if j.table != nil {
		counter(n, "buckets", int64(len(j.table.buckets)))
		counter(n, "build_rows", int64(len(j.table.next)))
	}
	if h.left != nil {
		n.Children = append(n.Children, l.item.explain())
	}
	if h.buildIdx == nil {
		// A build binds every row it scans; it takes the join's time.
		addOp(n, "scan", h.right.As, eval.Rows{In: j.built, Out: j.built}, j.Nanos)
	}
	return n
}

// explain renders a FROM item's node, a JOIN's with its operands'.
func (r *itemRun) explain() *eval.StatsSnapshot {
	op, label := describeItem(r.ex.item)
	n := opNode(op, label, r.Rows, r.Nanos)
	if j, ok := r.ex.item.(*ast.FromJoin); ok {
		if j.Kind == ast.JoinLeft {
			counter(n, "left_pads", r.pads)
		}
		n.Children = append(n.Children, r.left.explain(), r.right.explain())
	}
	return n
}

// describeItem names a FROM item for the tree.
func describeItem(item ast.FromItem) (op, label string) {
	switch x := item.(type) {
	case *ast.FromExpr:
		return "scan", x.As
	case *ast.FromUnpivot:
		return "unpivot", x.ValueVar
	case *ast.FromJoin:
		if x.Kind == ast.JoinLeft {
			return "join", "left"
		}
		return "join", "inner"
	}
	return "from", ""
}

// resultLen is the cardinality a block node reports as rows out.
func resultLen(v value.Value) int64 {
	switch s := v.(type) {
	case value.Array:
		return int64(len(s))
	case value.Bag:
		return int64(len(s))
	}
	return 1
}
