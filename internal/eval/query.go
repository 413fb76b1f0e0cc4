package eval

import (
	"fmt"

	"sqlpp/internal/ast"
	"sqlpp/internal/value"
)

// Query expressions: a block runs through ctx.Run, the plan's runner; a
// set operation and a WITH run here, over operand evaluators made by
// Compile (production) or Interpret (the oracle), so both paths share them.

// EnterBlock charges one level of query nesting — a query block, a set
// operation or a WITH — against the governor's depth budget, so a deep
// subquery tower fails with a typed ResourceError instead of recursing
// without bound. The caller decrements Depth when the level ends.
func (c *Context) EnterBlock() error {
	if c.Gov != nil {
		if err := c.Gov.CheckDepth(c.Depth + 1); err != nil {
			return err
		}
	}
	c.Depth++
	return nil
}

// dispatchBlock hands a query block to the plan's runner.
func dispatchBlock(ctx *Context, env *Env, q *ast.SFW) (value.Value, error) {
	if ctx.Run == nil {
		return nil, fmt.Errorf("eval: no query runner installed for nested query at %s", q.Pos())
	}
	return ctx.Run(ctx, env, q)
}

// withValue evaluates a WITH: each binding, in order, in a scope that
// sees the bindings before it, then the body in the scope of all of them.
func withValue(ctx *Context, env *Env, x *ast.With, binds []CompiledExpr, body CompiledExpr) (value.Value, error) {
	if err := ctx.EnterBlock(); err != nil {
		return nil, err
	}
	defer func() { ctx.Depth-- }()
	child := env.Child()
	for i, b := range x.Bindings {
		v, err := binds[i](ctx, child)
		if err != nil {
			return nil, err
		}
		child.Bind(b.Name, v)
	}
	return body(ctx, child)
}

// setOpValue evaluates UNION/INTERSECT/EXCEPT over two collection-valued
// operands with SQL bag semantics: the ALL variants keep multiplicities
// (INTERSECT ALL keeps the minimum count, EXCEPT ALL subtracts counts),
// the plain variants deduplicate.
func setOpValue(ctx *Context, env *Env, q *ast.SetOp, l, r CompiledExpr) (value.Value, error) {
	if err := ctx.EnterBlock(); err != nil {
		return nil, err
	}
	defer func() { ctx.Depth-- }()
	var node *StatsNode
	if ctx.Stats != nil {
		op := q.Op
		if q.All {
			op += " ALL"
		}
		node = ctx.Stats.Node(ctx.ParentNode(), q, "setop", "set-op", op)
		saved := ctx.StatsParent
		ctx.StatsParent = node
		defer func() { ctx.StatsParent = saved }()
		defer node.Timer()()
	}
	lv, err := l(ctx, env)
	if err != nil {
		return nil, err
	}
	rv, err := r(ctx, env)
	if err != nil {
		return nil, err
	}
	left, lok := value.Elements(lv)
	right, rok := value.Elements(rv)
	if !lok || !rok {
		if ctx.Mode == StopOnError {
			return nil, &TypeError{Pos: q.Pos(), Op: q.Op, Detail: "operands must be collections"}
		}
		return value.Missing, nil
	}
	if node != nil {
		node.AddIn(int64(len(left) + len(right)))
	}
	// Both inputs are fully materialized before the operator combines
	// them, so their combined size is charged as intermediate state.
	if ctx.Gov != nil {
		if err := ctx.Gov.ChargeValues("set-op", int64(len(left)), lv); err != nil {
			return nil, err
		}
		if err := ctx.Gov.ChargeValues("set-op", int64(len(right)), rv); err != nil {
			return nil, err
		}
	}
	done := func(out value.Bag) (value.Value, error) {
		if node != nil {
			node.AddOut(int64(len(out)))
		}
		return out, nil
	}
	switch q.Op {
	case "UNION":
		out := make(value.Bag, 0, len(left)+len(right))
		out = append(out, left...)
		out = append(out, right...)
		if !q.All {
			out = dedupe(out)
		}
		return done(out)
	case "INTERSECT":
		counts := countByKey(right)
		var out value.Bag
		for _, v := range left {
			k := value.Key(v)
			if counts[k] > 0 {
				counts[k]--
				out = append(out, v)
			}
		}
		if !q.All {
			out = dedupe(out)
		}
		return done(out)
	case "EXCEPT":
		counts := countByKey(right)
		var out value.Bag
		for _, v := range left {
			k := value.Key(v)
			if counts[k] > 0 {
				if q.All {
					counts[k]--
					continue
				}
				continue
			}
			out = append(out, v)
		}
		if !q.All {
			out = dedupe(out)
		}
		return done(out)
	}
	return nil, &TypeError{Pos: q.Pos(), Op: q.Op, Detail: "unknown set operation"}
}

func countByKey(vs []value.Value) map[string]int {
	m := make(map[string]int, len(vs))
	for _, v := range vs {
		m[value.Key(v)]++
	}
	return m
}

// dedupe returns vs with duplicates (by canonical key) removed,
// preserving first-occurrence order.
//
// governor:bounded — the output is a subset of vs, which setOpValue charged
// (ChargeValues) before materializing either side.
func dedupe(vs value.Bag) value.Bag {
	seen := make(map[string]bool, len(vs))
	out := vs[:0:0]
	for _, v := range vs {
		k := value.Key(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}
