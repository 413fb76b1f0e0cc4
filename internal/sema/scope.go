package sema

import (
	"strings"

	"sqlpp/internal/ast"
)

// Scope checks over the Core tree. Resolution is ast.Binder's; this pass
// adds only its policy on top of what the binder reports:
//
//   - undefined-variable errors (defensive: rewrite rejects these at
//     resolution time, so on engine-produced Core this never fires);
//   - ungrouped-binding errors when a post-GROUP BY clause references a
//     binding the grouping consumed;
//   - shadowing warnings when a binding hides an enclosing one;
//   - unused-binding warnings for FROM/LET/WITH bindings never read.
//
// Rewriter-synthesized names carry a '$' prefix and are exempt from the
// hygiene warnings (they are correct by construction), as are all
// bindings a GROUP BY consumed (the grouping captures every pre-group
// binding into the group content, so "unused" cannot be proven there)
// and the bindings of a PIVOT block (it builds its tuple from them).

// scopeCheck runs the scope pass over the whole tree.
func (a *analyzer) scopeCheck(core ast.Expr) {
	w := ast.Binder{
		Params: a.opts.Params,
		Bind: func(b *ast.Binding) {
			if hygienic(b) && b.Shadows {
				a.report(b.Pos, Warning, CodeShadow,
					"%s binding %q shadows an outer binding of the same name", b.Kind, b.Name)
			}
		},
		Unbind: func(b *ast.Binding) {
			if hygienic(b) && !b.Used && !b.Consumed && (b.Block == nil || b.Block.Select.PivotAt == nil) {
				a.report(b.Pos, Warning, CodeUnused, "%s binding %q is never used", b.Kind, b.Name)
			}
		},
		Ref: func(r ast.Ref) {
			switch {
			case r.To != nil:
			case r.Consumed != nil:
				a.report(r.Var.Pos(), Error, CodeUngrouped,
					"%q references a binding consumed by GROUP BY; group by it or aggregate over the GROUP AS variable", r.Consumed.Name)
			default:
				a.report(r.Var.Pos(), Error, CodeUndefined, "undefined variable %q", r.Var.Name)
			}
		},
	}
	w.Walk(&core)
}

// hygienic reports whether the shadow and unused checks apply to b: a
// FROM, AT, LET or WITH name the user wrote. (UNPIVOT binds both value
// and name, and using only one is normal.)
func hygienic(b *ast.Binding) bool {
	switch b.Kind {
	case ast.BindFrom, ast.BindAt, ast.BindLet, ast.BindWith:
		return !strings.HasPrefix(b.Name, "$")
	}
	return false
}
