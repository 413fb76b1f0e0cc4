// Package rewrite lowers parsed SQL++ onto the SQL++ Core and resolves
// names.
//
// The paper defines SQL itself as "syntactic sugar" rewritings over a
// fully composable SQL++ Core (§I). This package implements those
// rewritings:
//
//   - SELECT e1 AS a1, ... => SELECT VALUE {a1: e1, ...} (§V-A)
//   - SQL aggregate functions over groups => composable COLL_* functions
//     applied to subqueries over the GROUP AS collection (§V-C)
//   - implicit single-group aggregation (SELECT AVG(x) with no GROUP BY)
//   - group-key references in SELECT/HAVING/ORDER BY => key aliases
//   - SQL-compatibility coercion of sugar subqueries in scalar and IN
//     positions (§V-A), enabled by the compatibility flag
//   - dotted identifier chains => catalog named values (hr.emp)
//   - unqualified attribute references => qualified paths when a single
//     range variable (or a schema) disambiguates them
//
// Rewriting mutates and returns the given tree; parse a fresh tree per
// rewrite.
package rewrite

import (
	"fmt"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
)

// NameSet reports which dotted names exist in the catalog.
type NameSet interface {
	HasName(name string) bool
}

// AttrOracle optionally reports whether the collection behind a FROM
// variable is known (via schema) to define an attribute; used to
// disambiguate unqualified names when several range variables are in
// scope. May be nil.
type AttrOracle interface {
	// VarHasAttr reports whether the range variable (identified by the
	// formatted source expression of its FROM item) is known to carry
	// the attribute. The second result is false when nothing is known.
	VarHasAttr(sourceFmt, attr string) (has, known bool)
}

// Options configures a rewrite.
type Options struct {
	// Compat enables the SQL-compatibility rewritings (subquery
	// coercion). Sugar lowering and aggregate rewriting happen in both
	// modes, as the paper defines SQL clauses as sugar over Core.
	Compat bool
	// Names is the catalog name set; may be nil (no named values).
	Names NameSet
	// Schema is the optional attribute oracle; may be nil.
	Schema AttrOracle
	// Params are external parameter names treated as bound variables;
	// the executor supplies their values in the root environment.
	Params []string
}

// Error is a compile-time rewriting/resolution error.
type Error struct {
	Pos lexer.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("compile error at %s: %s", e.Pos, e.Msg)
}

// sqlAggregates maps SQL aggregate function names to their composable
// COLL_* Core equivalents (§V-C).
var sqlAggregates = map[string]string{
	"AVG":       "COLL_AVG",
	"SUM":       "COLL_SUM",
	"MIN":       "COLL_MIN",
	"MAX":       "COLL_MAX",
	"COUNT":     "COLL_COUNT",
	"EVERY":     "COLL_EVERY",
	"ANY":       "COLL_ANY",
	"SOME":      "COLL_SOME",
	"ARRAY_AGG": "COLL_ARRAY_AGG",
}

// IsSQLAggregate reports whether name (upper-case) is a SQL aggregate
// function subject to the Core rewriting.
func IsSQLAggregate(name string) bool {
	_, ok := sqlAggregates[name]
	return ok
}

// scope tracks names visible during resolution.
type scope struct {
	parent *scope
	names  map[string]bool
	// order lists the names bound in this scope, in binding order; the
	// SELECT * lowering iterates it.
	order []string
	// rangeVars are the FROM variables of this block scope, in order;
	// used for implicit qualification of unresolved names.
	rangeVars []string
	// rangeSrc maps each range variable to the formatted source
	// expression of its FROM item, for the schema oracle.
	rangeSrc map[string]string
	isBlock  bool
}

func newScope(parent *scope, isBlock bool) *scope {
	return &scope{parent: parent, names: map[string]bool{}, rangeSrc: map[string]string{}, isBlock: isBlock}
}

// bindOrdered binds a plain variable in this scope.
func (s *scope) bindOrdered(name string) {
	if !s.names[name] {
		s.order = append(s.order, name)
	}
	s.names[name] = true
}

// bindRangeOrdered binds a FROM range variable, recording its source for
// the schema oracle.
func (s *scope) bindRangeOrdered(name, sourceFmt string) {
	s.bindOrdered(name)
	s.rangeVars = append(s.rangeVars, name)
	s.rangeSrc[name] = sourceFmt
}

func (s *scope) has(name string) bool {
	for c := s; c != nil; c = c.parent {
		if c.names[name] {
			return true
		}
	}
	return false
}

// innermostBlock returns the nearest enclosing block scope (possibly s
// itself).
func (s *scope) innermostBlock() *scope {
	for c := s; c != nil; c = c.parent {
		if c.isBlock {
			return c
		}
	}
	return nil
}

// rewriter carries options through the pass.
type rewriter struct {
	opts Options
	gen  int // generator for synthesized variable names
}

// Rewrite lowers and resolves a parsed query. The returned expression is
// the same tree, mutated.
func Rewrite(e ast.Expr, opts Options) (ast.Expr, error) {
	rw := &rewriter{opts: opts}
	root := newScope(nil, false)
	for _, p := range opts.Params {
		root.bindOrdered(p)
	}
	return rw.expr(e, root)
}

func (rw *rewriter) fresh(prefix string) string {
	rw.gen++
	return fmt.Sprintf("$%s%d", prefix, rw.gen)
}

// expr rewrites an expression in the given scope.
func (rw *rewriter) expr(e ast.Expr, sc *scope) (ast.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *ast.Literal, *ast.NamedRef:
		return e, nil
	case *ast.VarRef:
		return rw.resolveChain(e, sc)
	case *ast.FieldAccess:
		return rw.resolveChain(e, sc)
	case *ast.IndexAccess:
		// The base may still be a dotted catalog chain.
		base, err := rw.expr(x.Base, sc)
		if err != nil {
			return nil, err
		}
		x.Base = base
		idx, err := rw.coerced(x.Index, sc, "$COERCE_SCALAR")
		if err != nil {
			return nil, err
		}
		x.Index = idx
		return x, nil
	case *ast.Unary:
		op, err := rw.coerced(x.Operand, sc, "$COERCE_SCALAR")
		if err != nil {
			return nil, err
		}
		x.Operand = op
		return x, nil
	case *ast.Binary:
		l, err := rw.coerced(x.L, sc, "$COERCE_SCALAR")
		if err != nil {
			return nil, err
		}
		r, err := rw.coerced(x.R, sc, "$COERCE_SCALAR")
		if err != nil {
			return nil, err
		}
		x.L, x.R = l, r
		return x, nil
	case *ast.Like:
		if err := rw.coerceInto(&x.Target, sc); err != nil {
			return nil, err
		}
		if err := rw.coerceInto(&x.Pattern, sc); err != nil {
			return nil, err
		}
		if x.Escape != nil {
			if err := rw.coerceInto(&x.Escape, sc); err != nil {
				return nil, err
			}
		}
		return x, nil
	case *ast.Between:
		if err := rw.coerceInto(&x.Target, sc); err != nil {
			return nil, err
		}
		if err := rw.coerceInto(&x.Lo, sc); err != nil {
			return nil, err
		}
		if err := rw.coerceInto(&x.Hi, sc); err != nil {
			return nil, err
		}
		return x, nil
	case *ast.In:
		if err := rw.coerceInto(&x.Target, sc); err != nil {
			return nil, err
		}
		for i := range x.List {
			if err := rw.coerceInto(&x.List[i], sc); err != nil {
				return nil, err
			}
		}
		if x.Set != nil {
			set, err := rw.coerced(x.Set, sc, "$COERCE_COLL")
			if err != nil {
				return nil, err
			}
			x.Set = set
		}
		return x, nil
	case *ast.Is:
		t, err := rw.expr(x.Target, sc)
		if err != nil {
			return nil, err
		}
		x.Target = t
		return x, nil
	case *ast.Quantified:
		if err := rw.coerceInto(&x.Target, sc); err != nil {
			return nil, err
		}
		set, err := rw.coerced(x.Set, sc, "$COERCE_COLL")
		if err != nil {
			return nil, err
		}
		x.Set = set
		return x, nil
	case *ast.Case:
		if x.Operand != nil {
			if err := rw.coerceInto(&x.Operand, sc); err != nil {
				return nil, err
			}
		}
		for i := range x.Whens {
			if err := rw.coerceInto(&x.Whens[i].Cond, sc); err != nil {
				return nil, err
			}
			if err := rw.coerceInto(&x.Whens[i].Result, sc); err != nil {
				return nil, err
			}
		}
		if x.Else != nil {
			if err := rw.coerceInto(&x.Else, sc); err != nil {
				return nil, err
			}
		}
		return x, nil
	case *ast.Call:
		return rw.call(x, sc)
	case *ast.TupleCtor:
		for i := range x.Fields {
			n, err := rw.expr(x.Fields[i].Name, sc)
			if err != nil {
				return nil, err
			}
			x.Fields[i].Name = n
			if err := rw.coerceInto(&x.Fields[i].Value, sc); err != nil {
				return nil, err
			}
		}
		return x, nil
	case *ast.ArrayCtor:
		for i := range x.Elems {
			el, err := rw.expr(x.Elems[i], sc)
			if err != nil {
				return nil, err
			}
			x.Elems[i] = el
		}
		return x, nil
	case *ast.BagCtor:
		for i := range x.Elems {
			el, err := rw.expr(x.Elems[i], sc)
			if err != nil {
				return nil, err
			}
			x.Elems[i] = el
		}
		return x, nil
	case *ast.Exists:
		op, err := rw.expr(x.Operand, sc)
		if err != nil {
			return nil, err
		}
		x.Operand = op
		return x, nil
	case *ast.SFW:
		return rw.sfw(x, sc)
	case *ast.With:
		inner := newScope(sc, false)
		for i := range x.Bindings {
			e, err := rw.expr(x.Bindings[i].Expr, inner)
			if err != nil {
				return nil, err
			}
			x.Bindings[i].Expr = e
			inner.bindOrdered(x.Bindings[i].Name)
		}
		body, err := rw.expr(x.Body, inner)
		if err != nil {
			return nil, err
		}
		x.Body = body
		return x, nil
	case *ast.Window:
		return nil, &Error{Pos: x.Pos(), Msg: "window functions are only allowed in the SELECT and ORDER BY clauses of a query block"}
	case *ast.SetOp:
		l, err := rw.expr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := rw.expr(x.R, sc)
		if err != nil {
			return nil, err
		}
		x.L, x.R = l, r
		return x, nil
	}
	return nil, fmt.Errorf("rewrite: unknown expression node %T", e)
}

// call rewrites a function call. Stray SQL aggregates (outside any query
// block or grouped context) are a compile error, caught here because
// grouped blocks rewrite their aggregates before resolution reaches them.
func (rw *rewriter) call(x *ast.Call, sc *scope) (ast.Expr, error) {
	if IsSQLAggregate(x.Name) {
		return nil, &Error{Pos: x.Pos(), Msg: fmt.Sprintf(
			"aggregate function %s is only allowed in the SELECT, HAVING, or ORDER BY clause of a query block", x.Name)}
	}
	coerceArgs := !strings.HasPrefix(x.Name, "COLL_") && !strings.HasPrefix(x.Name, "$")
	for i := range x.Args {
		var err error
		if coerceArgs {
			err = rw.coerceInto(&x.Args[i], sc)
		} else {
			x.Args[i], err = rw.expr(x.Args[i], sc)
		}
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// coerced rewrites child and, in SQL-compatibility mode, wraps it with
// the named coercion when it is a sugar-SELECT subquery (§V-A: the
// context of a SQL subquery designates scalar or collection coercion;
// SELECT VALUE is never coerced).
func (rw *rewriter) coerced(child ast.Expr, sc *scope, coercion string) (ast.Expr, error) {
	wrap := rw.opts.Compat && isSugarSubquery(child)
	out, err := rw.expr(child, sc)
	if err != nil {
		return nil, err
	}
	if wrap {
		c := &ast.Call{Name: coercion, Args: []ast.Expr{out}}
		c.SetPos(child.Pos())
		return c, nil
	}
	return out, nil
}

func (rw *rewriter) coerceInto(slot *ast.Expr, sc *scope) error {
	out, err := rw.coerced(*slot, sc, "$COERCE_SCALAR")
	if err != nil {
		return err
	}
	*slot = out
	return nil
}

// isSugarSubquery reports whether e is a query block written with the
// SQL SELECT-list (or SELECT *) form rather than SELECT VALUE.
func isSugarSubquery(e ast.Expr) bool {
	q, ok := e.(*ast.SFW)
	return ok && q.Select.Value == nil
}

// resolveChain resolves a VarRef or a FieldAccess chain headed by a
// VarRef: scope variables win, then the longest dotted catalog name, then
// implicit qualification by the block's single range variable (or by
// schema knowledge).
func (rw *rewriter) resolveChain(e ast.Expr, sc *scope) (ast.Expr, error) {
	head, steps := splitChain(e)
	if head == nil {
		// The chain bottoms out in a non-VarRef base (e.g. a subquery or
		// constructor); rewrite the base and re-attach the steps.
		fa := e.(*ast.FieldAccess)
		base, err := rw.expr(fa.Base, sc)
		if err != nil {
			return nil, err
		}
		fa.Base = base
		return fa, nil
	}
	if sc.has(head.Name) {
		return e, nil // bound variable; navigation applies dynamically
	}
	// Longest dotted prefix registered in the catalog.
	if rw.opts.Names != nil {
		parts := append([]string{head.Name}, steps...)
		for n := len(parts); n >= 1; n-- {
			dotted := strings.Join(parts[:n], ".")
			if rw.opts.Names.HasName(dotted) {
				ref := &ast.NamedRef{Name: dotted}
				ref.SetPos(head.Pos())
				return attachSteps(ref, parts[n:], e), nil
			}
		}
	}
	// Implicit qualification against the innermost block's range vars.
	if blk := sc.innermostBlock(); blk != nil && len(blk.rangeVars) > 0 {
		candidates := blk.rangeVars
		if len(candidates) > 1 && rw.opts.Schema != nil {
			var matches []string
			for _, v := range candidates {
				if has, known := rw.opts.Schema.VarHasAttr(blk.rangeSrc[v], head.Name); known && has {
					matches = append(matches, v)
				}
			}
			if len(matches) > 0 {
				candidates = matches
			}
		}
		if len(candidates) == 1 {
			v := &ast.VarRef{Name: candidates[0]}
			v.SetPos(head.Pos())
			qualified := &ast.FieldAccess{Base: v, Name: head.Name}
			qualified.SetPos(head.Pos())
			return attachSteps(qualified, steps, e), nil
		}
		return nil, &Error{Pos: head.Pos(), Msg: fmt.Sprintf(
			"ambiguous name %q: qualify it with one of the range variables %v", head.Name, candidates)}
	}
	return nil, &Error{Pos: head.Pos(), Msg: fmt.Sprintf("unresolved name %q", head.Name)}
}

// splitChain decomposes a pure FieldAccess chain into its VarRef head and
// the attribute steps; head is nil when the base is not a VarRef.
func splitChain(e ast.Expr) (*ast.VarRef, []string) {
	var steps []string
	for {
		switch x := e.(type) {
		case *ast.VarRef:
			// steps were collected innermost-last; reverse.
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
			return x, steps
		case *ast.FieldAccess:
			steps = append(steps, x.Name)
			e = x.Base
		default:
			return nil, nil
		}
	}
}

// attachSteps rebuilds FieldAccess steps on top of base; orig supplies
// positions.
func attachSteps(base ast.Expr, steps []string, orig ast.Expr) ast.Expr {
	out := base
	for _, s := range steps {
		fa := &ast.FieldAccess{Base: out, Name: s}
		fa.SetPos(orig.Pos())
		out = fa
	}
	return out
}
