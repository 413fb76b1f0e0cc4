package rewrite

import (
	"strings"

	"sqlpp/internal/ast"
)

// windowFunctions is the supported OVER function set: the ranking
// functions, positional LAG/LEAD, and the SQL aggregates applied as
// running/partition aggregates.
var windowFunctions = map[string]bool{
	"ROW_NUMBER": true, "RANK": true, "DENSE_RANK": true,
	"LAG": true, "LEAD": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "COUNT": true,
}

// IsWindowFunction reports whether name can head an OVER application.
func IsWindowFunction(name string) bool {
	return windowFunctions[strings.ToUpper(name)]
}

// liftWindows replaces every window application in e (not descending
// into nested query blocks) with a fresh variable reference, resolving
// the window's argument and specification expressions in sc and
// appending the lowered computation to q.Windows. The plan computes the
// variables after grouping and before projection (§V-B: window functions
// compose with SQL++ unchanged).
func (rw *rewriter) liftWindows(q *ast.SFW, e ast.Expr, sc *scope) (ast.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *ast.Window:
		if !IsWindowFunction(x.Fn.Name) {
			return nil, &Error{Pos: x.Pos(), Msg: "unsupported window function " + x.Fn.Name}
		}
		for i := range x.Fn.Args {
			arg, err := rw.expr(x.Fn.Args[i], sc)
			if err != nil {
				return nil, err
			}
			x.Fn.Args[i] = arg
		}
		for i := range x.Spec.PartitionBy {
			pe, err := rw.expr(x.Spec.PartitionBy[i], sc)
			if err != nil {
				return nil, err
			}
			x.Spec.PartitionBy[i] = pe
		}
		for i := range x.Spec.OrderBy {
			oe, err := rw.expr(x.Spec.OrderBy[i].Expr, sc)
			if err != nil {
				return nil, err
			}
			x.Spec.OrderBy[i].Expr = oe
		}
		name := rw.fresh("w")
		q.Windows = append(q.Windows, ast.NamedWindow{Name: name, Pos: x.Pos(), Fn: x.Fn, Spec: x.Spec})
		sc.bindOrdered(name)
		ref := &ast.VarRef{Name: name}
		ref.SetPos(x.Pos())
		return ref, nil
	case *ast.SFW, *ast.SetOp, *ast.With,
		*ast.Literal, *ast.VarRef, *ast.NamedRef:
		return e, nil
	case *ast.FieldAccess:
		return rw.liftInto(q, sc, e, &x.Base)
	case *ast.IndexAccess:
		return rw.liftInto(q, sc, e, &x.Base, &x.Index)
	case *ast.Unary:
		return rw.liftInto(q, sc, e, &x.Operand)
	case *ast.Binary:
		return rw.liftInto(q, sc, e, &x.L, &x.R)
	case *ast.Like:
		return rw.liftInto(q, sc, e, &x.Target, &x.Pattern, &x.Escape)
	case *ast.Between:
		return rw.liftInto(q, sc, e, &x.Target, &x.Lo, &x.Hi)
	case *ast.In:
		slots := []*ast.Expr{&x.Target}
		for i := range x.List {
			slots = append(slots, &x.List[i])
		}
		slots = append(slots, &x.Set)
		return rw.liftSlots(q, sc, slots, e)
	case *ast.Is:
		return rw.liftInto(q, sc, e, &x.Target)
	case *ast.Quantified:
		return rw.liftInto(q, sc, e, &x.Target, &x.Set)
	case *ast.Case:
		slots := []*ast.Expr{&x.Operand}
		for i := range x.Whens {
			slots = append(slots, &x.Whens[i].Cond, &x.Whens[i].Result)
		}
		slots = append(slots, &x.Else)
		return rw.liftSlots(q, sc, slots, e)
	case *ast.Call:
		slots := make([]*ast.Expr, len(x.Args))
		for i := range x.Args {
			slots[i] = &x.Args[i]
		}
		return rw.liftSlots(q, sc, slots, e)
	case *ast.TupleCtor:
		var slots []*ast.Expr
		for i := range x.Fields {
			slots = append(slots, &x.Fields[i].Name, &x.Fields[i].Value)
		}
		return rw.liftSlots(q, sc, slots, e)
	case *ast.ArrayCtor:
		slots := make([]*ast.Expr, len(x.Elems))
		for i := range x.Elems {
			slots[i] = &x.Elems[i]
		}
		return rw.liftSlots(q, sc, slots, e)
	case *ast.BagCtor:
		slots := make([]*ast.Expr, len(x.Elems))
		for i := range x.Elems {
			slots[i] = &x.Elems[i]
		}
		return rw.liftSlots(q, sc, slots, e)
	case *ast.Exists:
		return rw.liftInto(q, sc, e, &x.Operand)
	}
	return e, nil
}

// liftInto lifts windows inside the given expression slots of node.
func (rw *rewriter) liftInto(q *ast.SFW, sc *scope, node ast.Expr, slots ...*ast.Expr) (ast.Expr, error) {
	return rw.liftSlots(q, sc, slots, node)
}

func (rw *rewriter) liftSlots(q *ast.SFW, sc *scope, slots []*ast.Expr, node ast.Expr) (ast.Expr, error) {
	for _, slot := range slots {
		if slot == nil || *slot == nil {
			continue
		}
		out, err := rw.liftWindows(q, *slot, sc)
		if err != nil {
			return nil, err
		}
		*slot = out
	}
	return node, nil
}
