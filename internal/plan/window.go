package plan

import (
	"fmt"
	"sort"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// computeWindows evaluates each lowered window computation over the
// materialized binding environments, binding its fresh variable into
// every environment: the rows are partitioned by the window's PARTITION
// BY keys and the window function computed within each partition.
//
// Semantics follow SQL's defaults: PARTITION BY splits the bindings by
// grouping equality of the partition keys; ORDER BY orders within each
// partition (SQL++ total order); ranking functions require the order,
// and aggregate window functions compute over the whole partition when
// unordered and as running aggregates over peer groups (RANGE UNBOUNDED
// PRECEDING .. CURRENT ROW) when ordered.
//
// governor:charged-at the window materialization loop (plan.go), which
// charges every env before it reaches here; partitioning only
// redistributes those charged rows.
func computeWindows(ctx *eval.Context, windows []ast.NamedWindow, exs []windowExprs, envs []*eval.Env) error {
	for i := range windows {
		partitions := map[string][]*eval.Env{}
		var order []string
		for _, env := range envs {
			var kb []byte
			for _, pe := range exs[i].partition {
				v, err := pe(ctx, env)
				if err != nil {
					return err
				}
				kb = value.AppendKey(kb, v)
			}
			ks := string(kb)
			if _, ok := partitions[ks]; !ok {
				order = append(order, ks)
			}
			partitions[ks] = append(partitions[ks], env)
		}
		for _, ks := range order {
			if err := computePartition(ctx, &windows[i], &exs[i], partitions[ks]); err != nil {
				return err
			}
		}
	}
	return nil
}

// windowExprs are the evaluators of one window computation: its
// PARTITION BY keys, its ORDER BY keys and its function's arguments.
type windowExprs struct {
	partition, order, args []eval.CompiledExpr
}

// newWindowExprs lowers w's expressions with compile.
//
// governor: accumulation bounded by the window's expression count, AST size.
func newWindowExprs(w *ast.NamedWindow, compile func(ast.Expr) eval.CompiledExpr) (ex windowExprs) {
	for _, e := range w.Spec.PartitionBy {
		ex.partition = append(ex.partition, compile(e))
	}
	for _, o := range w.Spec.OrderBy {
		ex.order = append(ex.order, compile(o.Expr))
	}
	for _, e := range w.Fn.Args {
		ex.args = append(ex.args, compile(e))
	}
	return ex
}

// windowRow is one binding with its evaluated order keys.
type windowRow struct {
	env  *eval.Env
	keys []value.Value
}

func computePartition(ctx *eval.Context, w *ast.NamedWindow, ex *windowExprs, part []*eval.Env) error {
	rows := make([]windowRow, len(part))
	for i, env := range part {
		rows[i] = windowRow{env: env}
		if len(ex.order) > 0 {
			keys := make([]value.Value, len(ex.order))
			for k, o := range ex.order {
				v, err := o(ctx, env)
				if err != nil {
					return err
				}
				keys[k] = v
			}
			rows[i].keys = keys
		}
	}
	if len(w.Spec.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			return cmpKeys(rows[i].keys, rows[j].keys, w.Spec.OrderBy) < 0
		})
	}
	switch w.Fn.Name {
	case "ROW_NUMBER":
		for i, r := range rows {
			r.env.Bind(w.Name, value.Int(int64(i+1)))
		}
		return nil
	case "RANK", "DENSE_RANK":
		dense := w.Fn.Name == "DENSE_RANK"
		rank, denseRank := int64(0), int64(0)
		for i, r := range rows {
			if i == 0 || cmpKeys(rows[i-1].keys, r.keys, w.Spec.OrderBy) != 0 {
				rank = int64(i + 1)
				denseRank++
			}
			if dense {
				r.env.Bind(w.Name, value.Int(denseRank))
			} else {
				r.env.Bind(w.Name, value.Int(rank))
			}
		}
		return nil
	case "LAG", "LEAD":
		return computeLagLead(ctx, w, ex.args, rows)
	case "SUM", "AVG", "MIN", "MAX", "COUNT":
		return computeWindowAggregate(ctx, w, ex.args, rows)
	}
	return fmt.Errorf("plan: unsupported window function %s", w.Fn.Name)
}

// computeLagLead binds the argument of a neighbouring row, offset
// positions before (LAG) or after (LEAD), with an optional default; args
// evaluate the function's arguments.
func computeLagLead(ctx *eval.Context, w *ast.NamedWindow, args []eval.CompiledExpr, rows []windowRow) error {
	offset := int64(1)
	if len(args) >= 2 {
		v, err := args[1](ctx, rows[0].env)
		if err != nil {
			return err
		}
		n, ok := value.AsInt(v)
		if !ok || n < 0 {
			return fmt.Errorf("plan: %s offset must be a non-negative integer", w.Fn.Name)
		}
		offset = n
	}
	if w.Fn.Name == "LAG" {
		offset = -offset
	}
	for i, r := range rows {
		j := i + int(offset)
		var out value.Value
		if j >= 0 && j < len(rows) {
			v, err := args[0](ctx, rows[j].env)
			if err != nil {
				return err
			}
			out = v
		} else if len(args) >= 3 {
			v, err := args[2](ctx, r.env)
			if err != nil {
				return err
			}
			out = v
		} else {
			out = value.Null
		}
		r.env.Bind(w.Name, out)
	}
	return nil
}

// computeWindowAggregate computes SUM/AVG/MIN/MAX/COUNT over the
// partition: one value for all rows when unordered, a running aggregate
// over peer groups when ordered.
//
// governor:bounded — the argument buffers never exceed the partition
// size, and every partition row was charged at window materialization.
func computeWindowAggregate(ctx *eval.Context, w *ast.NamedWindow, args []eval.CompiledExpr, rows []windowRow) error {
	collName := "COLL_" + w.Fn.Name
	def, ok := ctx.Funcs.LookupFunc(collName)
	if !ok {
		return fmt.Errorf("plan: missing aggregate %s for window function", collName)
	}
	argOf := func(r windowRow) (value.Value, error) {
		if w.Fn.Star {
			return value.Int(1), nil
		}
		return args[0](ctx, r.env)
	}
	aggregate := func(prefix []value.Value) (value.Value, error) {
		if w.Fn.Star && w.Fn.Name == "COUNT" {
			return value.Int(int64(len(prefix))), nil
		}
		return def.Fn(ctx, []value.Value{value.Bag(prefix)})
	}
	if len(w.Spec.OrderBy) == 0 {
		all := make([]value.Value, 0, len(rows))
		for _, r := range rows {
			v, err := argOf(r)
			if err != nil {
				return err
			}
			all = append(all, v)
		}
		total, err := aggregate(all)
		if err != nil {
			return err
		}
		for _, r := range rows {
			r.env.Bind(w.Name, total)
		}
		return nil
	}
	// Running aggregate: rows with equal order keys (peers) share the
	// value of their group's closing prefix.
	prefix := make([]value.Value, 0, len(rows))
	i := 0
	for i < len(rows) {
		j := i
		for j < len(rows) && cmpKeys(rows[i].keys, rows[j].keys, w.Spec.OrderBy) == 0 {
			v, err := argOf(rows[j])
			if err != nil {
				return err
			}
			prefix = append(prefix, v)
			j++
		}
		val, err := aggregate(prefix)
		if err != nil {
			return err
		}
		for k := i; k < j; k++ {
			rows[k].env.Bind(w.Name, val)
		}
		i = j
	}
	return nil
}
