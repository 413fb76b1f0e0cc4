package ast

import (
	"fmt"
	"strings"

	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// Format renders an expression (including query blocks) back to SQL++
// text. Parse(Format(e)) rebuilds e for every tree the parser produces,
// so the text doubles as the expression's identity: the rewriter, the
// streamed aggregate and the shard splitter key on it, and the shard
// wire carries it. Parentheses appear exactly where the precedence
// table (prec.go) says the parser would otherwise build another tree.
func Format(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e, PrecQuery)
	return sb.String()
}

// printExpr writes e into a slot that accepts binding power min,
// parenthesized when e binds more loosely.
func printExpr(sb *strings.Builder, e Expr, min Prec) {
	if precOf(e) < min {
		printParen(sb, e)
		return
	}
	switch x := e.(type) {
	case nil:
		sb.WriteString("<nil>")
	case *Literal:
		sb.WriteString(x.Val.String())
	case *VarRef:
		sb.WriteString(quoteIdent(x.Name))
	case *NamedRef:
		for i, part := range strings.Split(x.Name, ".") {
			if i > 0 {
				sb.WriteByte('.')
			}
			sb.WriteString(quoteIdent(part))
		}
	case *FieldAccess:
		printExpr(sb, x.Base, PrecPrimary)
		sb.WriteByte('.')
		sb.WriteString(quoteIdent(x.Name))
	case *IndexAccess:
		printExpr(sb, x.Base, PrecPrimary)
		sb.WriteByte('[')
		printExpr(sb, x.Index, PrecOr)
		sb.WriteByte(']')
	case *Unary:
		sb.WriteString(x.Op)
		// NOT needs a word break; "- -x" must not lex as a comment.
		if u, ok := x.Operand.(*Unary); x.Op == "NOT" || ok && x.Op == "-" && u.Op == "-" {
			sb.WriteByte(' ')
		}
		printExpr(sb, x.Operand, precOf(x))
	case *Binary:
		p := precOf(x)
		printExpr(sb, x.L, p)
		sb.WriteByte(' ')
		sb.WriteString(x.Op)
		sb.WriteByte(' ')
		// A comparison's right operand spelled ANY or SOME would read
		// as a quantifier.
		if p == PrecPredicate && quantifierWord(leftmost(x.R, p+1)) {
			printParen(sb, x.R)
		} else {
			printExpr(sb, x.R, p+1)
		}
	case *Like:
		printPredicate(sb, x.Target, x.Negate, " LIKE ")
		printExpr(sb, x.Pattern, PrecConcat)
		if x.Escape != nil {
			sb.WriteString(" ESCAPE ")
			printExpr(sb, x.Escape, PrecConcat)
		}
	case *Between:
		printPredicate(sb, x.Target, x.Negate, " BETWEEN ")
		printExpr(sb, x.Lo, PrecConcat)
		sb.WriteString(" AND ")
		printExpr(sb, x.Hi, PrecConcat)
	case *In:
		printPredicate(sb, x.Target, x.Negate, " IN ")
		if x.List != nil {
			sb.WriteByte('(')
			printList(sb, x.List)
			sb.WriteByte(')')
		} else {
			printExpr(sb, x.Set, PrecConcat)
		}
	case *Quantified:
		printExpr(sb, x.Target, PrecPredicate)
		sb.WriteByte(' ')
		sb.WriteString(x.Op)
		if x.All {
			sb.WriteString(" ALL ")
			printExpr(sb, x.Set, PrecConcat)
			return
		}
		sb.WriteString(" ANY ")
		if opensQuantifiedSet(leftmost(x.Set, PrecConcat)) {
			printExpr(sb, x.Set, PrecConcat)
		} else {
			printParen(sb, x.Set)
		}
	case *Is:
		printExpr(sb, x.Target, PrecPredicate)
		sb.WriteString(" IS ")
		if x.Negate {
			sb.WriteString("NOT ")
		}
		sb.WriteString(x.What)
	case *Case:
		sb.WriteString("CASE")
		if x.Operand != nil {
			sb.WriteByte(' ')
			printExpr(sb, x.Operand, PrecOr)
		}
		for _, w := range x.Whens {
			sb.WriteString(" WHEN ")
			printExpr(sb, w.Cond, PrecOr)
			sb.WriteString(" THEN ")
			printExpr(sb, w.Result, PrecOr)
		}
		if x.Else != nil {
			sb.WriteString(" ELSE ")
			printExpr(sb, x.Else, PrecOr)
		}
		sb.WriteString(" END")
	case *Call:
		if typeName, ok := castType(x); ok {
			sb.WriteString("CAST(")
			printExpr(sb, x.Args[0], PrecOr)
			sb.WriteString(" AS ")
			sb.WriteString(quoteIdent(typeName))
			sb.WriteByte(')')
			return
		}
		sb.WriteString(x.Name)
		sb.WriteByte('(')
		if x.Star {
			sb.WriteByte('*')
		}
		if x.Distinct {
			sb.WriteString("DISTINCT ")
		}
		printList(sb, x.Args)
		sb.WriteByte(')')
	case *TupleCtor:
		sb.WriteByte('{')
		for i, f := range x.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			// A bare name before ':' is the attribute-name shorthand,
			// and "{{" opens a bag.
			_, short := f.Name.(*VarRef)
			if _, bag := leftmost(f.Name, PrecOr).(*TupleCtor); short || i == 0 && bag {
				printParen(sb, f.Name)
			} else {
				printExpr(sb, f.Name, PrecOr)
			}
			sb.WriteString(": ")
			printExpr(sb, f.Value, PrecOr)
		}
		sb.WriteByte('}')
	case *ArrayCtor:
		sb.WriteByte('[')
		printList(sb, x.Elems)
		sb.WriteByte(']')
	case *BagCtor:
		sb.WriteString("<<")
		printList(sb, x.Elems)
		sb.WriteString(">>")
	case *Exists:
		sb.WriteString("EXISTS ")
		printExpr(sb, x.Operand, precOf(x))
	case *SFW:
		printSFW(sb, x)
	case *With:
		sb.WriteString("WITH ")
		// A body opening with '(' would turn a binding that ends in a
		// name into a call.
		parenBody := leftmost(x.Body, PrecQuery) == nil
		for i, b := range x.Bindings {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(b.Name))
			sb.WriteString(" AS ")
			if parenBody && i == len(x.Bindings)-1 {
				printParen(sb, b.Expr)
			} else {
				printExpr(sb, b.Expr, PrecOr)
			}
		}
		sb.WriteByte(' ')
		printExpr(sb, x.Body, PrecQuery)
	case *Window:
		printExpr(sb, x.Fn, PrecPrimary)
		sb.WriteString(" OVER (")
		printWindowSpec(sb, x.Spec)
		sb.WriteByte(')')
	case *SetOp:
		printExpr(sb, x.L, PrecSetOp)
		sb.WriteByte(' ')
		sb.WriteString(x.Op)
		if x.All {
			sb.WriteString(" ALL")
		}
		sb.WriteByte(' ')
		printExpr(sb, x.R, PrecBlock)
	default:
		fmt.Fprintf(sb, "<unknown %T>", e)
	}
}

// printPredicate writes a predicate's target and its [NOT] keyword.
func printPredicate(sb *strings.Builder, target Expr, negate bool, keyword string) {
	printExpr(sb, target, PrecPredicate)
	if negate {
		sb.WriteString(" NOT")
	}
	sb.WriteString(keyword)
}

// printParen writes e in parentheses, inside which any query parses.
func printParen(sb *strings.Builder, e Expr) {
	sb.WriteByte('(')
	printExpr(sb, e, PrecQuery)
	sb.WriteByte(')')
}

// printList writes comma-separated expressions, each in an expression
// slot.
func printList(sb *strings.Builder, es []Expr) {
	for i, e := range es {
		if i > 0 {
			sb.WriteString(", ")
		}
		printExpr(sb, e, PrecOr)
	}
}

// castType reports the type name of a call the parser built from
// CAST(expr AS type).
func castType(c *Call) (string, bool) {
	if c.Name != "CAST" || len(c.Args) != 2 {
		return "", false
	}
	lit, ok := c.Args[1].(*Literal)
	if !ok {
		return "", false
	}
	s, ok := lit.Val.(value.String)
	return string(s), ok
}

// quantifierWord reports whether e prints as the word ANY or SOME.
func quantifierWord(e Expr) bool {
	var name string
	switch x := e.(type) {
	case *VarRef:
		name = x.Name
	case *Call:
		name = x.Name
	default:
		return false
	}
	return strings.EqualFold(name, "ANY") || strings.EqualFold(name, "SOME")
}

// opensQuantifiedSet reports whether a set whose printing begins with
// first (nil: a parenthesis) lets ANY read as a quantifier: the parser
// wants a '(', a name, '[', '<<', SELECT or FROM after it.
func opensQuantifiedSet(first Expr) bool {
	switch x := first.(type) {
	case nil, *VarRef, *NamedRef, *ArrayCtor, *BagCtor:
		return true
	case *Call:
		_, cast := castType(x)
		return !cast
	}
	return false
}

func printSFW(sb *strings.Builder, q *SFW) {
	printSelect := func() {
		if q.Select.PivotAt != nil {
			sb.WriteString("PIVOT ")
			printExpr(sb, q.Select.Value, PrecOr)
			sb.WriteString(" AT ")
			printExpr(sb, q.Select.PivotAt, PrecOr)
			return
		}
		sb.WriteString("SELECT ")
		if q.Select.Distinct {
			sb.WriteString("DISTINCT ")
		}
		switch {
		case q.Select.Value != nil:
			sb.WriteString("VALUE ")
			printExpr(sb, q.Select.Value, PrecOr)
		case q.Select.Star:
			sb.WriteByte('*')
		default:
			for i, it := range q.Select.Items {
				if i > 0 {
					sb.WriteString(", ")
				}
				if it.StarOf != nil {
					printExpr(sb, it.StarOf, PrecOr)
					sb.WriteString(".*")
					continue
				}
				printExpr(sb, it.Expr, PrecOr)
				if it.HasAlias {
					sb.WriteString(" AS ")
					sb.WriteString(quoteIdent(it.Alias))
				}
			}
		}
	}
	if !q.SelectLast {
		printSelect()
	}
	printFromWhere(sb, q.From, q.Lets, q.Where)
	printGroupHaving(sb, q.GroupBy, q.Having)
	if q.SelectLast {
		sb.WriteByte(' ')
		printSelect()
	}
	if len(q.OrderBy) > 0 {
		sb.WriteByte(' ')
		printOrderBy(sb, q.OrderBy)
	}
	if q.Limit != nil {
		sb.WriteString(" LIMIT ")
		printExpr(sb, q.Limit, PrecOr)
	}
	if q.Offset != nil {
		sb.WriteString(" OFFSET ")
		printExpr(sb, q.Offset, PrecOr)
	}
}

func printFromWhere(sb *strings.Builder, from []FromItem, lets []LetBinding, where Expr) {
	for i, f := range from {
		if i == 0 {
			sb.WriteString(" FROM ")
		} else {
			sb.WriteString(", ")
		}
		printFromItem(sb, f)
	}
	for _, l := range lets {
		sb.WriteString(" LET ")
		sb.WriteString(quoteIdent(l.Name))
		sb.WriteString(" = ")
		printExpr(sb, l.Expr, PrecOr)
	}
	if where != nil {
		sb.WriteString(" WHERE ")
		printExpr(sb, where, PrecOr)
	}
}

func printGroupHaving(sb *strings.Builder, g *GroupBy, having Expr) {
	if g != nil {
		sb.WriteString(" GROUP BY ")
		for i, k := range g.Keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, k.Expr, PrecOr)
			if k.Alias != "" {
				sb.WriteString(" AS ")
				sb.WriteString(quoteIdent(k.Alias))
			}
		}
		if g.GroupAs != "" {
			sb.WriteString(" GROUP AS ")
			sb.WriteString(quoteIdent(g.GroupAs))
		}
	}
	if having != nil {
		sb.WriteString(" HAVING ")
		printExpr(sb, having, PrecOr)
	}
}

func printFromItem(sb *strings.Builder, f FromItem) {
	switch x := f.(type) {
	case *FromExpr:
		printExpr(sb, x.Expr, PrecOr)
		if x.As != "" {
			sb.WriteString(" AS ")
			sb.WriteString(quoteIdent(x.As))
		}
		if x.AtVar != "" {
			sb.WriteString(" AT ")
			sb.WriteString(quoteIdent(x.AtVar))
		}
	case *FromUnpivot:
		sb.WriteString("UNPIVOT ")
		printExpr(sb, x.Expr, PrecOr)
		sb.WriteString(" AS ")
		sb.WriteString(quoteIdent(x.ValueVar))
		sb.WriteString(" AT ")
		sb.WriteString(quoteIdent(x.NameVar))
	case *FromJoin:
		printFromItem(sb, x.Left)
		switch x.Kind {
		case JoinInner:
			sb.WriteString(" JOIN ")
		case JoinLeft:
			sb.WriteString(" LEFT JOIN ")
		case JoinCross:
			sb.WriteString(" CROSS JOIN ")
		}
		printFromItem(sb, x.Right)
		if x.On != nil {
			sb.WriteString(" ON ")
			printExpr(sb, x.On, PrecOr)
		}
	}
}

func printWindowSpec(sb *strings.Builder, w WindowSpec) {
	for i, e := range w.PartitionBy {
		if i == 0 {
			sb.WriteString("PARTITION BY ")
		} else {
			sb.WriteString(", ")
		}
		printExpr(sb, e, PrecOr)
	}
	if len(w.OrderBy) > 0 {
		if len(w.PartitionBy) > 0 {
			sb.WriteByte(' ')
		}
		printOrderBy(sb, w.OrderBy)
	}
}

func printOrderBy(sb *strings.Builder, items []OrderItem) {
	sb.WriteString("ORDER BY ")
	for i, o := range items {
		if i > 0 {
			sb.WriteString(", ")
		}
		printExpr(sb, o.Expr, PrecOr)
		if o.Desc {
			sb.WriteString(" DESC")
		}
		if o.NullsFirst != nil {
			if *o.NullsFirst {
				sb.WriteString(" NULLS FIRST")
			} else {
				sb.WriteString(" NULLS LAST")
			}
		}
	}
}

// quoteIdent renders an identifier, double-quoting it when it is a
// reserved word or contains characters that would not re-lex as a bare
// identifier.
func quoteIdent(name string) string {
	if name == "" {
		return `""`
	}
	plain := true
	for i, r := range name {
		ok := r == '_' || r == '$' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			plain = false
			break
		}
	}
	if plain && !lexer.IsKeyword(name) {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}
