package plan

import (
	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// EXPLAIN ANALYZE plumbing for the plan package. Stats nodes are keyed
// in the sink by (plan pointer, role), so every execution site that
// touches an operator — sequential, hoisted, or one worker of a
// parallel scan — lands on the same node and accumulates into it.
//
// runSFW eagerly creates a block's operator skeleton in pipeline order
// before any row is produced. That fixes the child order of the tree
// (golden-testable even under parallel execution, where lazy creation
// order would race) and means the execution-time lookups below are
// always hits whose parent argument is ignored.
//
// Reported wall times are inclusive: the pipeline is push-style, so an
// operator's continuation runs everything downstream of it, and a timed
// span around a FROM step covers the work it feeds. The block node's
// time is the end-to-end time of the block.

// statsParent is the node new operators attach under: the enclosing
// block's node, or the sink root for the top-level expression. Callers
// must have checked ctx.Stats != nil.
func statsParent(ctx *eval.Context) *eval.StatsNode {
	if ctx.StatsParent != nil {
		return ctx.StatsParent
	}
	return ctx.Stats.Root
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

// itemNode resolves a FROM item's node. Skeleton-covered items hit; a
// miss creates the node under the current block.
func itemNode(ctx *eval.Context, item ast.FromItem) *eval.StatsNode {
	op, label := describeItem(item)
	return ctx.Stats.Node(statsParent(ctx), item, "item", op, label)
}

// itemSkeleton creates a FROM item's node under parent, recursing into
// join subtrees so a join's inputs nest under the join node.
func itemSkeleton(ctx *eval.Context, parent *eval.StatsNode, item ast.FromItem) *eval.StatsNode {
	op, label := describeItem(item)
	n := ctx.Stats.Node(parent, item, "item", op, label)
	if j, ok := item.(*ast.FromJoin); ok {
		itemSkeleton(ctx, n, j.Left)
		itemSkeleton(ctx, n, j.Right)
	}
	return n
}

// hashNode resolves a hash-join step's node. A join whose build side is
// served by a secondary index reports as index_join, labeled with the
// join kind and the index name.
func hashNode(ctx *eval.Context, parent *eval.StatsNode, h *hashJoinStep) *eval.StatsNode {
	kind := "inner"
	if h.leftJoin {
		kind = "left"
	}
	if h.buildIdx != nil {
		return ctx.Stats.Node(parent, h, "hash", "index_join", kind+" "+h.buildIdx.name)
	}
	return ctx.Stats.Node(parent, h, "hash", "hash-join", kind)
}

// indexNode resolves an index-probing fromStep's node. It is keyed like
// an ordinary item node, so a runtime fallback to scanning accumulates
// into the same operator block.
func indexNode(ctx *eval.Context, parent *eval.StatsNode, step *fromStep) *eval.StatsNode {
	op := "index_probe"
	if step.idx.eq == nil {
		op = "index_range"
	}
	return ctx.Stats.Node(parent, step.item, "item", op, step.idx.name)
}

// buildBlockSkeleton pre-creates the block's operator nodes in pipeline
// order: FROM steps (with pushed filters as their children), residual
// WHERE, GROUP BY, HAVING, windows, DISTINCT, ORDER BY / top-K, LIMIT.
// Callers must have checked ctx.Stats != nil.
func buildBlockSkeleton(ctx *eval.Context, q *ast.SFW, phys *sfwPhys, limit, offset int64, block *eval.StatsNode) {
	if phys != nil {
		if len(phys.pre) > 0 {
			ctx.Stats.Node(block, phys, "pre", "filter", "pre")
		}
		stepParent := block
		if phys.reorder != nil {
			// The reordered steps nest under the join-order buffer that
			// restores their written production order.
			stepParent = ctx.Stats.Node(block, phys, "reorder", "join-order", phys.reorder.label)
		}
		for i := range phys.steps {
			step := &phys.steps[i]
			var n *eval.StatsNode
			if step.hash != nil {
				n = hashNode(ctx, stepParent, step.hash)
				if step.hash.left != nil {
					itemSkeleton(ctx, n, step.hash.left)
				}
				if step.hash.buildIdx == nil {
					itemSkeleton(ctx, n, step.hash.right)
				}
			} else if step.idx != nil {
				n = indexNode(ctx, stepParent, step)
			} else {
				n = itemSkeleton(ctx, stepParent, step.item)
				if step.hoist {
					n.Counter("hoisted").Store(1)
				}
			}
			if len(step.filters) > 0 {
				ctx.Stats.Node(n, step, "filter", "filter", "pushed")
			}
		}
		if len(phys.residual) > 0 {
			ctx.Stats.Node(block, q, "where", "filter", "residual")
		}
	} else {
		for _, item := range q.From {
			itemSkeleton(ctx, block, item)
		}
		if q.Where != nil {
			ctx.Stats.Node(block, q, "where", "filter", "where")
		}
	}
	if q.GroupBy != nil {
		label := "materialize"
		if phys != nil && phys.stream != nil {
			label = phys.stream.label
		}
		ctx.Stats.Node(block, q.GroupBy, "group", "group-by", label)
	}
	if q.Having != nil {
		ctx.Stats.Node(block, q, "having", "filter", "having")
	}
	if len(q.Windows) > 0 {
		ctx.Stats.Node(block, q, "window", "window", "")
	}
	if q.Select.Distinct {
		ctx.Stats.Node(block, q, "distinct", "distinct", "")
	}
	if len(q.OrderBy) > 0 {
		op := "order-by"
		if limit >= 0 {
			op = "top-k"
		}
		ctx.Stats.Node(block, q, "order", op, "")
	}
	if limit >= 0 || offset > 0 {
		ctx.Stats.Node(block, q, "limit", "limit", "")
	}
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
