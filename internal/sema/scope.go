package sema

import (
	"strconv"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
)

// Scope resolution over the Core tree. The walker mirrors the binding
// rules of ast.FreeVars exactly — FROM items bind left to right (a
// join's right side sees the left side's variables), LETs bind after
// FROM, GROUP BY replaces the pre-group variables with the key aliases
// plus GROUP AS, window names bind only for SELECT and ORDER BY, and
// LIMIT/OFFSET evaluate in the enclosing environment — but additionally
// tracks where each binding was introduced and whether it was ever
// referenced, yielding:
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
// bindings of blocks with a GROUP BY: the grouping implicitly captures
// every pre-group binding into the group content, so "unused" cannot be
// proven there.

// binding is one in-scope variable with its bookkeeping.
type binding struct {
	name string
	pos  lexer.Pos
	kind string // "FROM", "AT", "LET", "WITH" — "" means hygiene-exempt
	used bool
}

// scopeCheck runs the scope pass over the whole tree.
func (a *analyzer) scopeCheck(core ast.Expr) {
	w := &scopeWalker{a: a, bound: map[string][]*binding{}}
	for _, p := range a.opts.Params {
		w.bind(&binding{name: p, used: true})
	}
	w.expr(core)
}

type scopeWalker struct {
	a     *analyzer
	bound map[string][]*binding
	// preGroup is the set of bindings the active block's GROUP BY
	// consumed; a reference to one of them from a post-group clause is
	// the classic "column must appear in the GROUP BY clause" error.
	preGroup map[string]*binding
}

// synthesized reports whether name was generated by the rewriter.
func synthesized(name string) bool { return strings.HasPrefix(name, "$") }

func (w *scopeWalker) bind(b *binding) {
	if b.name == "" {
		return
	}
	if b.kind != "" && !synthesized(b.name) && len(w.bound[b.name]) > 0 {
		w.a.report(b.pos, Warning, CodeShadow,
			"%s binding %q shadows an outer binding of the same name", b.kind, b.name)
	}
	w.bound[b.name] = append(w.bound[b.name], b)
}

func (w *scopeWalker) unbind(b *binding) {
	if b.name == "" {
		return
	}
	stack := w.bound[b.name]
	w.bound[b.name] = stack[:len(stack)-1]
	if b.kind != "" && !b.used && !synthesized(b.name) {
		w.a.report(b.pos, Warning, CodeUnused,
			"%s binding %q is never used", b.kind, b.name)
	}
}

// scope batches bindings so a clause's variables pop together.
type semaScope struct {
	w        *scopeWalker
	bindings []*binding
}

func (s *semaScope) bind(b *binding) {
	if b.name == "" {
		return
	}
	s.w.bind(b)
	s.bindings = append(s.bindings, b)
}

// pop removes the scope's bindings; when exempt, unused warnings are
// suppressed (a GROUP BY captured the bindings into the group content).
func (s *semaScope) pop(exempt bool) {
	for i := len(s.bindings) - 1; i >= 0; i-- {
		if exempt {
			s.bindings[i].used = true
		}
		s.w.unbind(s.bindings[i])
	}
	s.bindings = s.bindings[:0]
}

// resolve marks the innermost binding of name used, or reports the
// reference as undefined / ungrouped.
func (w *scopeWalker) resolve(name string, pos lexer.Pos) {
	if stack := w.bound[name]; len(stack) > 0 {
		stack[len(stack)-1].used = true
		return
	}
	if b, ok := w.preGroup[name]; ok {
		w.a.report(pos, Error, CodeUngrouped,
			"%q references a binding consumed by GROUP BY; group by it or aggregate over the GROUP AS variable", b.name)
		return
	}
	w.a.report(pos, Error, CodeUndefined, "undefined variable %q", name)
}

func (w *scopeWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.Literal, *ast.NamedRef:
	case *ast.VarRef:
		w.resolve(x.Name, x.Pos())
	case *ast.FieldAccess:
		w.expr(x.Base)
	case *ast.IndexAccess:
		w.expr(x.Base)
		w.expr(x.Index)
	case *ast.Unary:
		w.expr(x.Operand)
	case *ast.Binary:
		w.expr(x.L)
		w.expr(x.R)
	case *ast.Like:
		w.expr(x.Target)
		w.expr(x.Pattern)
		w.expr(x.Escape)
	case *ast.Between:
		w.expr(x.Target)
		w.expr(x.Lo)
		w.expr(x.Hi)
	case *ast.In:
		w.expr(x.Target)
		for _, e := range x.List {
			w.expr(e)
		}
		w.expr(x.Set)
	case *ast.Is:
		w.expr(x.Target)
	case *ast.Quantified:
		w.expr(x.Target)
		w.expr(x.Set)
	case *ast.Case:
		w.expr(x.Operand)
		for _, arm := range x.Whens {
			w.expr(arm.Cond)
			w.expr(arm.Result)
		}
		w.expr(x.Else)
	case *ast.Call:
		for _, a := range x.Args {
			w.expr(a)
		}
	case *ast.TupleCtor:
		for _, f := range x.Fields {
			w.expr(f.Name)
			w.expr(f.Value)
		}
	case *ast.ArrayCtor:
		for _, e := range x.Elems {
			w.expr(e)
		}
	case *ast.BagCtor:
		for _, e := range x.Elems {
			w.expr(e)
		}
	case *ast.Exists:
		w.expr(x.Operand)
	case *ast.SFW:
		w.sfw(x)
	case *ast.SetOp:
		w.expr(x.L)
		w.expr(x.R)
	case *ast.With:
		var s semaScope
		s.w = w
		for _, b := range x.Bindings {
			w.expr(b.Expr)
			s.bind(&binding{name: b.Name, pos: b.NamePos, kind: "WITH"})
		}
		w.expr(x.Body)
		s.pop(false)
	case *ast.Window:
		w.expr(x.Fn)
		for _, e := range x.Spec.PartitionBy {
			w.expr(e)
		}
		for _, o := range x.Spec.OrderBy {
			w.expr(o.Expr)
		}
	}
}

func (w *scopeWalker) sfw(q *ast.SFW) {
	// LIMIT/OFFSET evaluate in the enclosing environment.
	w.expr(q.Limit)
	w.expr(q.Offset)

	var pre semaScope
	pre.w = w
	for _, item := range q.From {
		w.fromItem(item, &pre)
	}
	for _, l := range q.Lets {
		w.expr(l.Expr)
		pre.bind(&binding{name: l.Name, pos: l.NamePos, kind: "LET"})
	}
	w.expr(q.Where)

	if q.GroupBy == nil {
		w.expr(q.Having)
		var win semaScope
		win.w = w
		w.windows(q.Windows, &win)
		w.expr(q.Select.Value)
		w.expr(q.Select.PivotAt)
		w.selectItems(q.Select.Items)
		for _, o := range q.OrderBy {
			w.expr(o.Expr)
		}
		win.pop(false)
		// PIVOT constructs its tuple from the bindings themselves, so
		// unused warnings would be spurious.
		pre.pop(q.Select.PivotAt != nil)
		return
	}

	// Group keys see the pre-group variables; everything after GROUP BY
	// sees only the key aliases, GROUP AS, and the enclosing scope. The
	// grouping captures every pre-group binding into the group content,
	// so the pre-scope pops hygiene-exempt, but the consumed bindings
	// are remembered for targeted ungrouped-reference errors.
	for _, key := range q.GroupBy.Keys {
		w.expr(key.Expr)
	}
	savedPre := w.preGroup
	w.preGroup = map[string]*binding{}
	for _, b := range pre.bindings {
		w.preGroup[b.name] = b
	}
	pre.pop(true)

	var post semaScope
	post.w = w
	for i, key := range q.GroupBy.Keys {
		alias := key.Alias
		if alias == "" {
			alias = implicitKeyAlias(i)
		}
		post.bind(&binding{name: alias, pos: key.AliasPos})
	}
	post.bind(&binding{name: q.GroupBy.GroupAs, pos: q.GroupBy.GroupAsPos})
	w.expr(q.Having)
	var win semaScope
	win.w = w
	w.windows(q.Windows, &win)
	w.expr(q.Select.Value)
	w.expr(q.Select.PivotAt)
	w.selectItems(q.Select.Items)
	for _, o := range q.OrderBy {
		w.expr(o.Expr)
	}
	win.pop(false)
	post.pop(false)
	w.preGroup = savedPre
}

func (w *scopeWalker) fromItem(item ast.FromItem, s *semaScope) {
	switch x := item.(type) {
	case *ast.FromExpr:
		w.expr(x.Expr)
		s.bind(&binding{name: x.As, pos: x.Pos(), kind: "FROM"})
		s.bind(&binding{name: x.AtVar, pos: x.Pos(), kind: "AT"})
	case *ast.FromUnpivot:
		w.expr(x.Expr)
		// UNPIVOT binds both value and name; using only one is normal,
		// so neither gets unused-binding hygiene.
		s.bind(&binding{name: x.ValueVar, pos: x.Pos()})
		s.bind(&binding{name: x.NameVar, pos: x.Pos()})
	case *ast.FromJoin:
		w.fromItem(x.Left, s)
		w.fromItem(x.Right, s)
		w.expr(x.On)
	}
}

func (w *scopeWalker) windows(ws []ast.NamedWindow, s *semaScope) {
	for _, nw := range ws {
		w.expr(nw.Fn)
		for _, e := range nw.Spec.PartitionBy {
			w.expr(e)
		}
		for _, o := range nw.Spec.OrderBy {
			w.expr(o.Expr)
		}
		s.bind(&binding{name: nw.Name, pos: nw.Pos})
	}
}

func (w *scopeWalker) selectItems(items []ast.SelectItem) {
	for _, it := range items {
		w.expr(it.Expr)
		w.expr(it.StarOf)
	}
}

// implicitKeyAlias mirrors ast.implicitKeyAlias: the name a group key
// without an explicit AS binds under.
func implicitKeyAlias(i int) string { return "$k" + strconv.Itoa(i+1) }
