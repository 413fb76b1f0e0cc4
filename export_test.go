package sqlpp

import "sqlpp/internal/ast"

// CoreTree exposes a prepared query's Core tree — a bound template's
// with its literals substituted — to the external tests.
func CoreTree(p *Prepared) ast.Expr { return p.tree() }
