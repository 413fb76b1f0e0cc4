package ast

import (
	"strconv"

	"sqlpp/internal/lexer"
)

// The binder: SQL++'s scoping rules, stated once. Within a query block
//
//   - LIMIT and OFFSET evaluate in the enclosing environment, outside all
//     of the block's bindings;
//   - FROM items bind left to right (a later item and a join's right side
//     and ON see the earlier variables), and LETs bind after FROM;
//   - GROUP BY keys see the pre-group variables; every clause after GROUP
//     BY sees the key aliases and GROUP AS instead of them;
//   - window variables bind for SELECT and ORDER BY only (HAVING runs
//     before windows are computed).
//
// WITH bindings are visible to the later bindings and to the body. Every
// other node binds nothing; its children come from the slot table.
// Sema's scope checks, ast.FreeVars and the rewriter's aggregate-argument
// substitution all read this one walk.

// BindKind says which construct introduced a binding.
type BindKind uint8

// Binding kinds.
const (
	BindParam    BindKind = iota // an external parameter, bound outside the tree
	BindFrom                     // a FROM item's range variable
	BindAt                       // a FROM item's AT ordinal variable
	BindUnpivot                  // an UNPIVOT value or name variable
	BindLet                      // a LET name
	BindWith                     // a WITH name
	BindGroupKey                 // a GROUP BY key alias (see KeyAlias)
	BindGroupAs                  // the GROUP AS variable
	BindWindow                   // a lowered window's variable
)

var bindKindNames = [...]string{"parameter", "FROM", "AT", "UNPIVOT", "LET", "WITH", "GROUP BY", "GROUP AS", "window"}

// String names the construct as the query spells it.
func (k BindKind) String() string { return bindKindNames[k] }

// A Binding is one variable in scope.
type Binding struct {
	Name string
	Pos  lexer.Pos
	Kind BindKind
	// Block is the query block whose clause binds the variable; nil for
	// WITH names and parameters.
	Block *SFW
	// Shadows reports that a binding of the same name was visible when
	// this one bound.
	Shadows bool
	// Used reports that some reference resolved to this binding.
	Used bool
	// Consumed reports that the block's GROUP BY hid the binding from
	// its post-group clauses.
	Consumed bool
}

// A Ref is one variable reference and its resolution.
type Ref struct {
	// Slot holds Var; assigning to it replaces the reference.
	Slot *Expr
	Var  *VarRef
	// To is the binding the reference resolves to; nil when the name
	// occurs free.
	To *Binding
	// Consumed, for a free reference, is the innermost binding of that
	// name a GROUP BY consumed, or nil.
	Consumed *Binding
}

// A Binder walks a tree under the binding rules and reports, in scope
// order, each binding as it enters (Bind) and leaves (Unbind) scope and
// each variable reference's resolution (Ref). Any callback may be nil.
// The *Binding pointers are valid only during the callback.
type Binder struct {
	// Params are bound, in order, around the whole tree.
	Params []string
	// Surface marks a tree as the parser wrote it, before rewriting:
	// post-group clauses still spell aggregates and key expressions over
	// the pre-group variables, so GROUP BY consumes nothing.
	Surface bool

	Bind   func(*Binding)
	Unbind func(*Binding)
	Ref    func(Ref)

	scope []Binding
}

// Walk reports the bindings and references of the tree in *root. A Ref
// callback may replace the root itself.
func (b *Binder) Walk(root *Expr) {
	b.scope = b.scope[:0]
	for _, p := range b.Params {
		b.push(Binding{Name: p, Kind: BindParam})
	}
	b.expr(root)
	b.popTo(0)
}

func (b *Binder) expr(slot *Expr) {
	switch x := (*slot).(type) {
	case nil:
	case *VarRef:
		b.ref(slot, x)
	case *SFW:
		b.sfw(x)
	case *With:
		mark := len(b.scope)
		for i := range x.Bindings {
			w := &x.Bindings[i]
			b.expr(&w.Expr)
			b.push(Binding{Name: w.Name, Pos: w.NamePos, Kind: BindWith})
		}
		b.expr(&x.Body)
		b.popTo(mark)
	default:
		Children(x, b.expr)
	}
}

func (b *Binder) sfw(q *SFW) {
	b.expr(&q.Limit)
	b.expr(&q.Offset)
	mark := len(b.scope)
	for _, item := range q.From {
		b.from(q, item)
	}
	for i := range q.Lets {
		l := &q.Lets[i]
		b.expr(&l.Expr)
		b.push(Binding{Name: l.Name, Pos: l.NamePos, Kind: BindLet, Block: q})
	}
	b.expr(&q.Where)
	if g := q.GroupBy; g != nil {
		for i := range g.Keys {
			b.expr(&g.Keys[i].Expr)
		}
		if !b.Surface {
			for i := mark; i < len(b.scope); i++ {
				b.scope[i].Consumed = true
			}
		}
		for i, k := range g.Keys {
			b.push(Binding{Name: KeyAlias(k, i), Pos: k.AliasPos, Kind: BindGroupKey, Block: q})
		}
		b.push(Binding{Name: g.GroupAs, Pos: g.GroupAsPos, Kind: BindGroupAs, Block: q})
	}
	b.expr(&q.Having)
	for i := range q.Windows {
		w := &q.Windows[i]
		windowChildren(w.Fn, &w.Spec, b.expr)
		b.push(Binding{Name: w.Name, Pos: w.Pos, Kind: BindWindow, Block: q})
	}
	selectChildren(&q.Select, b.expr)
	orderChildren(q.OrderBy, b.expr)
	b.popTo(mark)
}

func (b *Binder) from(q *SFW, item FromItem) {
	switch x := item.(type) {
	case *FromExpr:
		b.expr(&x.Expr)
		b.push(Binding{Name: x.As, Pos: x.Pos(), Kind: BindFrom, Block: q})
		b.push(Binding{Name: x.AtVar, Pos: x.Pos(), Kind: BindAt, Block: q})
	case *FromUnpivot:
		b.expr(&x.Expr)
		b.push(Binding{Name: x.ValueVar, Pos: x.Pos(), Kind: BindUnpivot, Block: q})
		b.push(Binding{Name: x.NameVar, Pos: x.Pos(), Kind: BindUnpivot, Block: q})
	case *FromJoin:
		b.from(q, x.Left)
		b.from(q, x.Right)
		b.expr(&x.On)
	}
}

// lookup returns the innermost visible binding of name, or nil.
func (b *Binder) lookup(name string) *Binding {
	for i := len(b.scope) - 1; i >= 0; i-- {
		if s := &b.scope[i]; s.Name == name && !s.Consumed {
			return s
		}
	}
	return nil
}

func (b *Binder) push(bd Binding) {
	if bd.Name == "" {
		return
	}
	bd.Shadows = b.lookup(bd.Name) != nil
	b.scope = append(b.scope, bd)
	if b.Bind != nil {
		b.Bind(&b.scope[len(b.scope)-1])
	}
}

func (b *Binder) popTo(mark int) {
	if b.Unbind != nil {
		for i := len(b.scope) - 1; i >= mark; i-- {
			b.Unbind(&b.scope[i])
		}
	}
	b.scope = b.scope[:mark]
}

func (b *Binder) ref(slot *Expr, v *VarRef) {
	r := Ref{Slot: slot, Var: v}
	for i := len(b.scope) - 1; i >= 0; i-- {
		s := &b.scope[i]
		if s.Name != v.Name {
			continue
		}
		if !s.Consumed {
			s.Used = true
			r.To, r.Consumed = s, nil
			break
		}
		if r.Consumed == nil {
			r.Consumed = s
		}
	}
	if b.Ref != nil {
		b.Ref(r)
	}
}

// FreeVars returns the set of variable names occurring free in e: not
// bound by a construct inside e. NamedRef nodes are catalog references
// and are never free. The result is freshly allocated and owned by the
// caller. A nil expression has no free variables.
func FreeVars(e Expr) map[string]bool {
	free := map[string]bool{}
	b := Binder{Ref: func(r Ref) {
		if r.To == nil {
			free[r.Var.Name] = true
		}
	}}
	b.Walk(&e)
	return free
}

// FreeVarsOver reports whether any name in vars occurs free in e.
func FreeVarsOver(e Expr, vars map[string]bool) bool {
	if len(vars) == 0 {
		return false
	}
	for name := range FreeVars(e) {
		if vars[name] {
			return true
		}
	}
	return false
}

// KeyAlias is the name group key i binds in the post-group clauses: its
// AS alias, else SQL's implicit column name (a bare variable's name or a
// path's last step), else $k<i+1>. The rewriter fills every Core key's
// alias with it.
func KeyAlias(key GroupKey, i int) string {
	if key.Alias != "" {
		return key.Alias
	}
	switch x := key.Expr.(type) {
	case *VarRef:
		return x.Name
	case *FieldAccess:
		return x.Name
	}
	return "$k" + strconv.Itoa(i+1)
}

// ItemVars returns the variable names a FROM item introduces, in binding
// order.
func ItemVars(item FromItem) []string {
	switch x := item.(type) {
	case *FromExpr:
		vars := []string{x.As}
		if x.AtVar != "" {
			vars = append(vars, x.AtVar)
		}
		return vars
	case *FromUnpivot:
		return []string{x.ValueVar, x.NameVar}
	case *FromJoin:
		return append(ItemVars(x.Left), ItemVars(x.Right)...)
	}
	return nil
}
