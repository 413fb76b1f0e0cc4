package ast

// Prec is a binding power: how tightly an operator holds its operands.
// The parser climbs this table and the printer reads it back, so the
// two cannot disagree about where parentheses are needed. A slot in the
// grammar accepts an expression whose binding power is at least the
// slot's minimum; Format parenthesizes exactly the children below it.
type Prec uint8

// The levels, loosest first. The first three model the query grammar
// the parser descends recursively (WITH, set operations, blocks); from
// PrecOr up they are the expression levels its precedence loop climbs.
const (
	// PrecQuery is a WITH query: its body runs to the end of the
	// enclosing query expression.
	PrecQuery Prec = iota
	// PrecSetOp is a left-associative UNION/INTERSECT/EXCEPT chain.
	PrecSetOp
	// PrecBlock is a SELECT, FROM-first or PIVOT query block: its
	// trailing clauses would absorb whatever follows it, so every
	// expression slot parenthesizes it.
	PrecBlock
	PrecOr
	PrecAnd
	// PrecNot is prefix NOT; its operand is parsed at this level too.
	PrecNot
	// PrecPredicate is comparisons, quantified comparisons, LIKE,
	// BETWEEN, IN and IS: left-associative, each operand at PrecConcat.
	PrecPredicate
	PrecConcat
	PrecAdditive
	PrecMultiplicative
	// PrecUnary is prefix '-', '+' and EXISTS.
	PrecUnary
	// PrecPrimary is a literal, name, call, constructor, CASE,
	// parenthesized expression, or a path over one.
	PrecPrimary
)

// InfixPrec reports the binding power of an infix operator or predicate
// keyword (upper-case), and whether op is one. Every infix form is
// left-associative: its right operands are parsed one level above it.
func InfixPrec(op string) (Prec, bool) {
	switch op {
	case "OR":
		return PrecOr, true
	case "AND":
		return PrecAnd, true
	case "=", "<>", "!=", "<", "<=", ">", ">=", "LIKE", "BETWEEN", "IN", "IS":
		return PrecPredicate, true
	case "||":
		return PrecConcat, true
	case "+", "-":
		return PrecAdditive, true
	case "*", "/", "%":
		return PrecMultiplicative, true
	}
	return 0, false
}

// PrefixPrec reports the binding power of a prefix operator (upper-case),
// which is also the level its operand is parsed at, and whether op is
// one.
func PrefixPrec(op string) (Prec, bool) {
	switch op {
	case "NOT":
		return PrecNot, true
	case "-", "+", "EXISTS":
		return PrecUnary, true
	}
	return 0, false
}

// precOf is the binding power of the form e prints as.
func precOf(e Expr) Prec {
	switch x := e.(type) {
	case *With:
		return PrecQuery
	case *SetOp:
		return PrecSetOp
	case *SFW, *PivotQuery:
		return PrecBlock
	case *Binary:
		p, _ := InfixPrec(x.Op)
		return p
	case *Like, *Between, *In, *Is, *Quantified:
		return PrecPredicate
	case *Unary:
		p, _ := PrefixPrec(x.Op)
		return p
	case *Exists:
		return PrecUnary
	}
	return PrecPrimary
}

// leftmost returns the node whose text begins e's printing in a slot of
// minimum min, or nil when that printing begins with a parenthesis. It
// follows the left operand slots printExpr uses.
func leftmost(e Expr, min Prec) Expr {
	for precOf(e) >= min {
		switch x := e.(type) {
		case *Binary:
			e, min = x.L, precOf(x)
		case *Like:
			e, min = x.Target, PrecPredicate
		case *Between:
			e, min = x.Target, PrecPredicate
		case *In:
			e, min = x.Target, PrecPredicate
		case *Is:
			e, min = x.Target, PrecPredicate
		case *Quantified:
			e, min = x.Target, PrecPredicate
		case *FieldAccess:
			e, min = x.Base, PrecPrimary
		case *IndexAccess:
			e, min = x.Base, PrecPrimary
		case *SetOp:
			e, min = x.L, PrecSetOp
		case *Window:
			return x.Fn
		default:
			return e
		}
	}
	return nil
}
