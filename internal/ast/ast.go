// Package ast declares the abstract syntax tree for SQL++ queries.
//
// SQL++ is fully composable: a query block (select-from-where) is itself
// an expression, so every query form implements Expr and subqueries can
// appear anywhere an expression can. The parser produces this tree; the
// rewrite package lowers SQL "syntactic sugar" onto SQL++ Core forms; the
// plan package compiles the Core tree to an executable clause pipeline.
package ast

import (
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// Node is any syntax-tree node.
type Node interface {
	// Pos returns the source position where the node begins.
	Pos() lexer.Pos
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// position embeds a source position into nodes.
type position struct {
	P lexer.Pos
}

// Pos returns the node's source position.
func (p position) Pos() lexer.Pos { return p.P }

// SetPos records the node's source position; used by the parser and by
// rewrites that synthesize nodes.
func (p *position) SetPos(pos lexer.Pos) { p.P = pos }

// Literal is a constant value: a number, string, boolean, NULL, or
// MISSING.
type Literal struct {
	position
	Val value.Value
}

// VarRef is a bare identifier: a query variable, or the head of a
// namespaced name such as hr in hr.emp.
type VarRef struct {
	position
	Name string
}

// NamedRef is a reference to a catalog named value, produced by the
// resolver from a dotted identifier chain (e.g. hr.emp_nest_tuples).
// Name is the full dotted name.
type NamedRef struct {
	position
	Name string
}

// FieldAccess is dot navigation: Base.Name.
type FieldAccess struct {
	position
	Base Expr
	Name string
}

// IndexAccess is bracket navigation: Base[Index].
type IndexAccess struct {
	position
	Base  Expr
	Index Expr
}

// Unary is a prefix operator: "-" or "NOT".
type Unary struct {
	position
	Op      string
	Operand Expr
}

// Binary is an infix operator: arithmetic, comparison, "||", AND, OR.
type Binary struct {
	position
	Op   string
	L, R Expr
}

// Like is "Target [NOT] LIKE Pattern [ESCAPE Escape]". Escape is nil when
// absent.
type Like struct {
	position
	Target, Pattern, Escape Expr
	Negate                  bool
}

// Between is "Target [NOT] BETWEEN Lo AND Hi".
type Between struct {
	position
	Target, Lo, Hi Expr
	Negate         bool
}

// In is "Target [NOT] IN rhs". Exactly one of List (parenthesized
// expression list) and Set (collection-valued expression or subquery) is
// used: List when non-nil.
type In struct {
	position
	Target Expr
	List   []Expr
	Set    Expr
	Negate bool
}

// Quantified is a SQL quantified comparison:
// "Target op ANY|SOME|ALL (collection)". All distinguishes ALL from
// ANY/SOME.
type Quantified struct {
	position
	Op     string // "=", "<>", "<", "<=", ">", ">="
	All    bool
	Target Expr
	Set    Expr
}

// Is is "Target IS [NOT] NULL|MISSING|UNKNOWN".
type Is struct {
	position
	Target Expr
	What   string // "NULL", "MISSING", or "UNKNOWN"
	Negate bool
}

// When is one WHEN/THEN arm of a CASE expression.
type When struct {
	Cond, Result Expr
}

// Case is a simple (Operand non-nil) or searched CASE expression. Else is
// nil when no ELSE branch was written; SQL semantics then supply NULL.
type Case struct {
	position
	Operand Expr
	Whens   []When
	Else    Expr
}

// Call is a function application. Star marks COUNT(*); Distinct marks
// aggregate DISTINCT arguments.
type Call struct {
	position
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

// TupleField is one attribute of a tuple constructor. Name is an
// expression so attribute names can be computed (it is a string literal
// in the common case).
type TupleField struct {
	Name  Expr
	Value Expr
}

// TupleCtor is a tuple constructor {'a': e1, 'b': e2}.
type TupleCtor struct {
	position
	Fields []TupleField
}

// ArrayCtor is an array constructor [e1, e2].
type ArrayCtor struct {
	position
	Elems []Expr
}

// BagCtor is a bag constructor <<e1, e2>> or {{e1, e2}}.
type BagCtor struct {
	position
	Elems []Expr
}

// Exists is EXISTS(expr): true when expr is a non-empty collection.
type Exists struct {
	position
	Operand Expr
}

func (*Literal) exprNode()     {}
func (*VarRef) exprNode()      {}
func (*NamedRef) exprNode()    {}
func (*FieldAccess) exprNode() {}
func (*IndexAccess) exprNode() {}
func (*Unary) exprNode()       {}
func (*Binary) exprNode()      {}
func (*Like) exprNode()        {}
func (*Between) exprNode()     {}
func (*In) exprNode()          {}
func (*Is) exprNode()          {}
func (*Quantified) exprNode()  {}
func (*Case) exprNode()        {}
func (*Call) exprNode()        {}
func (*TupleCtor) exprNode()   {}
func (*ArrayCtor) exprNode()   {}
func (*BagCtor) exprNode()     {}
func (*Exists) exprNode()      {}
func (*SFW) exprNode()         {}
func (*With) exprNode()        {}
func (*Window) exprNode()      {}
func (*SetOp) exprNode()       {}

// SelectItem is one projection of a SQL-style SELECT list. StarOf non-nil
// means "expr.*"; a nil Expr with nil StarOf is invalid.
type SelectItem struct {
	Expr     Expr
	Alias    string
	HasAlias bool
	StarOf   Expr
}

// SelectClause is the SELECT clause. Exactly one of Value (SELECT VALUE
// expr), Star (SELECT *), or Items is set. PivotAt non-nil makes the
// block a PIVOT (§VI-B), "PIVOT Value AT PivotAt FROM ...": it builds one
// tuple with the attribute (PivotAt, Value) per binding instead of a
// collection.
type SelectClause struct {
	Distinct bool
	Value    Expr
	PivotAt  Expr
	Star     bool
	Items    []SelectItem
}

// FromItem is one range source in the FROM clause.
type FromItem interface {
	Node
	fromItem()
}

// FromExpr ranges a variable over the value of Expr, with optional AT
// ordinal variable. Left correlation is permitted: Expr may reference
// variables of earlier FROM items.
type FromExpr struct {
	position
	Expr  Expr
	As    string
	AtVar string
}

// FromUnpivot is "UNPIVOT Expr AS ValueVar AT NameVar": it ranges over
// the attributes of a tuple, binding the attribute value and name.
type FromUnpivot struct {
	position
	Expr     Expr
	ValueVar string
	NameVar  string
}

// JoinKind distinguishes join flavors.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// FromJoin is an explicit JOIN between two FROM items with an ON
// condition (nil for CROSS JOIN). OnPos is the position of the ON
// keyword (zero for CROSS JOIN), so diagnostics about the join
// condition can point at the clause rather than the whole join.
type FromJoin struct {
	position
	Kind  JoinKind
	Left  FromItem
	Right FromItem
	On    Expr
	OnPos lexer.Pos
}

func (*FromExpr) fromItem()    {}
func (*FromUnpivot) fromItem() {}
func (*FromJoin) fromItem()    {}

// LetBinding is "LET name = expr", an extension that names intermediate
// results between clauses. NamePos is the position of the bound name.
type LetBinding struct {
	Name    string
	NamePos lexer.Pos
	Expr    Expr
}

// GroupKey is one grouping expression with its binding alias. AliasPos
// is the position of the alias identifier (zero when the alias is
// implicit).
type GroupKey struct {
	Expr     Expr
	Alias    string
	AliasPos lexer.Pos
}

// GroupBy is "GROUP BY key [AS alias], ... [GROUP AS g]". GroupAs is the
// empty string when no GROUP AS was written; GroupAsPos is the position
// of the GROUP AS variable when one was.
type GroupBy struct {
	position
	Keys       []GroupKey
	GroupAs    string
	GroupAsPos lexer.Pos
}

// OrderItem is one ORDER BY expression. NullsFirst is nil for the SQL
// default (NULLS LAST ascending, NULLS FIRST descending over the SQL++
// total order, where absent values sort lowest).
type OrderItem struct {
	Expr       Expr
	Desc       bool
	NullsFirst *bool
}

// SFW is a select-from-where query block, the heart of SQL++. The SELECT
// clause may be written first (SQL style) or last (pipeline style);
// SelectLast records which, for round-trip printing only.
type SFW struct {
	position
	Select     SelectClause
	From       []FromItem
	Lets       []LetBinding
	Where      Expr
	GroupBy    *GroupBy
	Having     Expr
	OrderBy    []OrderItem
	Limit      Expr
	Offset     Expr
	SelectLast bool
	// Windows are the lowered window-function computations of this
	// block, filled by the rewriter; empty for blocks without OVER.
	Windows []NamedWindow
	// Phys is the physical-plan annotation attached by the optimizer
	// (plan.Optimize). It is opaque to this package and ignored by
	// printing, cloning, and type checking. Every block of an optimized
	// tree carries one, FROM-less and PIVOT blocks included; nil means
	// the optimizer was disabled and the block executes with the naive
	// clause pipeline.
	Phys any
	// RunSlot numbers the block among the query's blocks and set
	// operations (NumberRunSlots); an execution keeps the block's run
	// state, and with it the block's operator counts, at that index of
	// eval.Context.Runs.
	RunSlot int
}

// SetOp combines two query expressions with UNION/INTERSECT/EXCEPT.
type SetOp struct {
	position
	Op   string // "UNION", "INTERSECT", "EXCEPT"
	All  bool
	L, R Expr
	// RunSlot is the set operation's run-state index, like SFW.RunSlot.
	RunSlot int
}

// WithBinding names one common table expression. NamePos is the
// position of the binding name.
type WithBinding struct {
	Name    string
	NamePos lexer.Pos
	Expr    Expr
}

// With is "WITH name AS (query), ... body": the bindings are visible to
// each other (in order) and to the body.
type With struct {
	position
	Bindings []WithBinding
	Body     Expr
}

// WindowSpec is the OVER clause of a window function application.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
}

// Window is a window-function application fn(args) OVER (spec). The
// paper notes SQL's window functions compose with SQL++ unchanged
// (§V-B); the rewriter lowers Window nodes onto per-binding computed
// variables.
type Window struct {
	position
	Fn   *Call
	Spec WindowSpec
}

// NamedWindow is a lowered window computation attached to a query block:
// the fresh variable Name carries the value of Fn over Spec for each
// binding. Pos is the source position of the OVER application the
// rewriter lowered, so diagnostics about the window report the clause
// the user wrote rather than a synthesized variable.
type NamedWindow struct {
	Name string
	Pos  lexer.Pos
	Fn   *Call
	Spec WindowSpec
}
