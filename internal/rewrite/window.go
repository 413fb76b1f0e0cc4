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
	var err error
	switch x := e.(type) {
	case *ast.Window:
		if !IsWindowFunction(x.Fn.Name) {
			return nil, &Error{Pos: x.Pos(), Msg: "unsupported window function " + x.Fn.Name}
		}
		ast.Children(x, func(c *ast.Expr) {
			if err == nil {
				*c, err = rw.expr(*c, sc)
			}
		})
		if err != nil {
			return nil, err
		}
		name := rw.fresh("w")
		q.Windows = append(q.Windows, ast.NamedWindow{Name: name, Pos: x.Pos(), Fn: x.Fn, Spec: x.Spec})
		sc.bindOrdered(name)
		ref := &ast.VarRef{Name: name}
		ref.SetPos(x.Pos())
		return ref, nil
	case *ast.SFW, *ast.SetOp, *ast.With:
		return e, nil
	}
	ast.Children(e, func(c *ast.Expr) {
		if err == nil {
			*c, err = rw.liftWindows(q, *c, sc)
		}
	})
	return e, err
}
