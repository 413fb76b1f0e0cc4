package parser

import (
	"strconv"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// parseExpr parses a full expression (the OR level).
func (p *parser) parseExpr() (ast.Expr, error) {
	return p.parseBinding(ast.PrecOr)
}

// parseBinding parses an expression whose operators all bind at least as
// tightly as min: a prefix form, then infix operators climbing the
// precedence table of package ast. Every infix form is left-associative,
// so its right operands are parsed one level up. An operator binding
// tighter than the one just applied cannot take that result as its left
// operand: after "a IS NULL" or "a IN (1, 2)", which end without a right
// operand to absorb it, "* 2" is an error, not (a IS NULL) * 2.
func (p *parser) parseBinding(min ast.Prec) (ast.Expr, error) {
	left, err := p.parsePrefix(min)
	if err != nil {
		return nil, err
	}
	max := ast.PrecPrimary
	for {
		prec, ok := p.atInfix()
		if !ok || prec < min || prec > max {
			return left, nil
		}
		if left, err = p.parseInfix(left, prec); err != nil {
			return nil, err
		}
		max = prec
	}
}

// parsePrefix parses a prefix operator application or a path. NOT is
// admitted only where its level is; '-', '+' and EXISTS bind tighter
// than every infix operator, so they are admitted everywhere.
func (p *parser) parsePrefix(min ast.Prec) (ast.Expr, error) {
	tok := p.peek()
	prec, ok := ast.PrefixPrec(tok.Text)
	if !ok || tok.Type != lexer.Keyword && tok.Type != lexer.Symbol || prec < min && tok.Text == "NOT" {
		return p.parsePath()
	}
	p.next()
	operand, err := p.parseBinding(prec)
	if err != nil {
		return nil, err
	}
	var e ast.Expr
	switch tok.Text {
	case "+":
		return operand, nil
	case "EXISTS":
		e = &ast.Exists{Operand: operand}
	default:
		e = &ast.Unary{Op: tok.Text, Operand: operand}
	}
	setPos(e, tok.Pos)
	return e, nil
}

// atInfix reports the binding power of the infix operator at the
// current token, if it is one. NOT is infix only as NOT LIKE, NOT
// BETWEEN and NOT IN.
func (p *parser) atInfix() (ast.Prec, bool) {
	tok := p.peek()
	if tok.Type != lexer.Keyword && tok.Type != lexer.Symbol {
		return 0, false
	}
	if tok.Text == "NOT" {
		if p.atOffset(1, "LIKE") || p.atOffset(1, "BETWEEN") || p.atOffset(1, "IN") {
			return ast.PrecPredicate, true
		}
		return 0, false
	}
	return ast.InfixPrec(tok.Text)
}

// parseInfix applies the infix operator at the current token, of binding
// power prec, to left: a binary operator, a (quantified) comparison, or
// one of the LIKE, BETWEEN, IN and IS predicates.
func (p *parser) parseInfix(left ast.Expr, prec ast.Prec) (ast.Expr, error) {
	negate := p.accept("NOT")
	tok := p.next()
	var e ast.Expr
	switch tok.Text {
	case "LIKE":
		pattern, err := p.parseBinding(prec + 1)
		if err != nil {
			return nil, err
		}
		like := &ast.Like{Target: left, Pattern: pattern, Negate: negate}
		if p.accept("ESCAPE") {
			if like.Escape, err = p.parseBinding(prec + 1); err != nil {
				return nil, err
			}
		}
		e = like
	case "BETWEEN":
		lo, err := p.parseBinding(prec + 1)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseBinding(prec + 1)
		if err != nil {
			return nil, err
		}
		e = &ast.Between{Target: left, Lo: lo, Hi: hi, Negate: negate}
	case "IN":
		set, list, err := p.parseInRHS()
		if err != nil {
			return nil, err
		}
		e = &ast.In{Target: left, List: list, Set: set, Negate: negate}
	case "IS":
		is := &ast.Is{Target: left, Negate: p.accept("NOT")}
		switch {
		case p.accept("NULL"):
			is.What = "NULL"
		case p.accept("MISSING"):
			is.What = "MISSING"
		case p.accept("UNKNOWN"):
			is.What = "UNKNOWN"
		default:
			return nil, p.errf(p.peek().Pos, "expected NULL, MISSING, or UNKNOWN after IS")
		}
		e = is
	default:
		op := tok.Text
		if op == "!=" {
			op = "<>"
		}
		// Quantified comparison: op ANY|SOME|ALL (collection).
		all, quantified := false, false
		if prec == ast.PrecPredicate {
			if all, quantified = p.atQuantifier(); quantified {
				p.next()
			}
		}
		right, err := p.parseBinding(prec + 1)
		if err != nil {
			return nil, err
		}
		if quantified {
			e = &ast.Quantified{Op: op, All: all, Target: left, Set: right}
		} else {
			e = &ast.Binary{Op: op, L: left, R: right}
		}
	}
	setPos(e, tok.Pos)
	return e, nil
}

// atQuantifier reports whether the current token is the ANY/SOME/ALL
// quantifier of a quantified comparison (followed by an operand).
func (p *parser) atQuantifier() (all, ok bool) {
	tok := p.peek()
	switch {
	case tok.Type == lexer.Keyword && tok.Text == "ALL":
		return true, true
	case tok.Type == lexer.Ident && (strings.EqualFold(tok.Text, "ANY") || strings.EqualFold(tok.Text, "SOME")):
		// Only when followed by something that can start an operand —
		// "ANY" alone could be a column named any.
		next := p.peekAt(1)
		return false, next.Is("(") || next.Type == lexer.Ident || next.Type == lexer.QuotedIdent ||
			next.Is("SELECT") || next.Is("FROM") || next.Is("[") || next.Is("<<")
	}
	return false, false
}

// parseInRHS parses the right side of IN: either a parenthesized list of
// expressions or subquery, or a single collection-valued expression.
func (p *parser) parseInRHS() (set ast.Expr, list []ast.Expr, err error) {
	if !p.at("(") {
		set, err = p.parseBinding(ast.PrecConcat)
		return set, nil, err
	}
	// "(": subquery, or an expression list. Parse inside the parens.
	p.next()
	if p.atQueryStart() {
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, nil, err
		}
		return q, nil, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		list = append(list, e)
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, nil, err
	}
	return nil, list, nil
}

// parsePath parses a primary expression followed by navigation steps:
// ".name" and "[index]". A ".*" suffix is left unconsumed for the SELECT
// item parser.
func (p *parser) parsePath() (ast.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(".") && !p.atOffset(1, "*"):
			pos := p.next().Pos
			tok := p.peek()
			var name string
			switch tok.Type {
			case lexer.Ident, lexer.QuotedIdent, lexer.StringLit:
				name = tok.Text
				p.next()
			case lexer.Keyword:
				// Allow non-structural keywords as attribute names
				// (e.g. t.value, t."first").
				name = strings.ToLower(tok.Text)
				p.next()
			default:
				return nil, p.errf(pos, "expected attribute name after '.'")
			}
			fa := &ast.FieldAccess{Base: e, Name: name}
			setPos(fa, pos)
			e = fa
		case p.at("["):
			pos := p.next().Pos
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			ia := &ast.IndexAccess{Base: e, Index: idx}
			setPos(ia, pos)
			e = ia
		default:
			return e, nil
		}
	}
}

var keywordLiterals = map[string]value.Value{
	"TRUE": value.True, "FALSE": value.False, "NULL": value.Null, "MISSING": value.Missing,
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	tok := p.peek()
	if p.slotOf != nil && (tok.Type == lexer.IntLit || tok.Type == lexer.FloatLit) {
		ref := &ast.VarRef{Name: ast.SlotName(p.slotOf[p.pos])}
		ref.SetPos(tok.Pos)
		p.next()
		return ref, nil
	}
	switch tok.Type {
	case lexer.IntLit:
		p.next()
		v, err := parseIntLit(tok.Text, tok.Pos)
		if err != nil {
			return nil, err
		}
		return literal(v, tok.Pos), nil
	case lexer.FloatLit:
		p.next()
		f, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, p.errf(tok.Pos, "invalid numeric literal %q", tok.Text)
		}
		return literal(value.Float(f), tok.Pos), nil
	case lexer.StringLit:
		p.next()
		return literal(value.String(tok.Text), tok.Pos), nil
	}
	if v, ok := keywordLiterals[tok.Text]; ok && tok.Type == lexer.Keyword {
		p.next()
		return literal(v, tok.Pos), nil
	}
	switch {
	case p.at("CASE"):
		return p.parseCase()
	case p.at("CAST"):
		return p.parseCast()
	case p.at("("):
		p.next()
		// parseQueryExpr handles plain expressions too, and admits a set
		// operation whose left arm is the parenthesized expression:
		// ((SELECT ...) UNION ALL (SELECT ...)).
		inner, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.at("{") && p.atOffset(1, "{"), p.at("<<"):
		return p.parseBagCtor()
	case p.at("{"):
		return p.parseTupleCtor()
	case p.at("["):
		return p.parseArrayCtor()
	case p.at("SELECT"), p.at("FROM"), p.at("PIVOT"):
		// Unparenthesized subquery in expression position; accepted for
		// composability (the paper writes COLL_AVG(SELECT VALUE ...)).
		return p.parseQueryBlock()
	}
	if tok.Type == lexer.Ident || tok.Type == lexer.QuotedIdent {
		p.next()
		if tok.Type == lexer.Ident && p.at("(") {
			call, err := p.parseCall(tok)
			if err != nil {
				return nil, err
			}
			if p.at("OVER") {
				return p.parseWindow(call.(*ast.Call))
			}
			return call, nil
		}
		v := &ast.VarRef{Name: tok.Text}
		setPos(v, tok.Pos)
		return v, nil
	}
	// VALUE and a few other keywords double as function names in some
	// dialects; reject cleanly.
	return nil, p.errf(tok.Pos, "unexpected %s %q in expression", tok.Type, tok.Text)
}

func (p *parser) parseCall(name lexer.Token) (ast.Expr, error) {
	call := &ast.Call{Name: strings.ToUpper(name.Text)}
	setPos(call, name.Pos)
	p.next() // "("
	if p.at("*") && p.atOffset(1, ")") {
		p.next()
		p.next()
		call.Star = true
		return call, nil
	}
	if p.accept(")") {
		return call, nil
	}
	if p.accept("DISTINCT") {
		call.Distinct = true
	}
	for {
		arg, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return call, nil
}

// parseWindow parses "OVER ([PARTITION BY e, ...] [ORDER BY items])"
// applied to fn.
func (p *parser) parseWindow(fn *ast.Call) (ast.Expr, error) {
	pos := p.next().Pos // OVER
	w := &ast.Window{Fn: fn}
	setPos(w, pos)
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if p.accept("PARTITION") {
		if _, err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			w.Spec.PartitionBy = append(w.Spec.PartitionBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	var err error
	if w.Spec.OrderBy, err = p.parseOrderBy(); err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return w, nil
}

// parseOrderBy parses an optional "ORDER BY expr [ASC|DESC] [NULLS
// FIRST|LAST], ...".
func (p *parser) parseOrderBy() ([]ast.OrderItem, error) {
	if !p.accept("ORDER") {
		return nil, nil
	}
	if _, err := p.expect("BY"); err != nil {
		return nil, err
	}
	var out []ast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := ast.OrderItem{Expr: e}
		if p.accept("DESC") {
			item.Desc = true
		} else {
			p.accept("ASC")
		}
		if p.accept("NULLS") {
			switch {
			case p.accept("FIRST"):
				t := true
				item.NullsFirst = &t
			case p.accept("LAST"):
				f := false
				item.NullsFirst = &f
			default:
				return nil, p.errf(p.peek().Pos, "expected FIRST or LAST after NULLS")
			}
		}
		out = append(out, item)
		if !p.accept(",") {
			return out, nil
		}
	}
}

func (p *parser) parseCase() (ast.Expr, error) {
	pos := p.next().Pos // CASE
	c := &ast.Case{}
	setPos(c, pos)
	if !p.at("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.accept("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.When{Cond: cond, Result: result})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf(p.peek().Pos, "CASE requires at least one WHEN arm")
	}
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseCast parses CAST(expr AS typename) into a CAST call whose second
// argument is the type name as a string literal.
func (p *parser) parseCast() (ast.Expr, error) {
	pos := p.next().Pos // CAST
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("AS"); err != nil {
		return nil, err
	}
	tok := p.peek()
	var typeName string
	switch tok.Type {
	case lexer.Ident, lexer.QuotedIdent, lexer.Keyword:
		typeName = strings.ToUpper(tok.Text)
		p.next()
	default:
		return nil, p.errf(tok.Pos, "expected type name in CAST")
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	call := &ast.Call{Name: "CAST", Args: []ast.Expr{e, literal(value.String(typeName), tok.Pos)}}
	setPos(call, pos)
	return call, nil
}

func (p *parser) parseTupleCtor() (ast.Expr, error) {
	pos := p.next().Pos // "{"
	t := &ast.TupleCtor{}
	setPos(t, pos)
	if p.accept("}") {
		return t, nil
	}
	for {
		// A bare name or string literal immediately followed by ':' is
		// the attribute name ({a: 1}, {'a': 1}); anything else is a name
		// expression ('k' || '1': ...).
		var name ast.Expr
		var err error
		if tok := p.peek(); p.atOffset(1, ":") && (tok.Type == lexer.StringLit || tok.Type == lexer.Ident || tok.Type == lexer.QuotedIdent) {
			p.next()
			name = literal(value.String(tok.Text), tok.Pos)
		} else if name, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if _, err := p.expect(":"); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		t.Fields = append(t.Fields, ast.TupleField{Name: name, Value: v})
		switch {
		case p.accept(","):
		case p.accept("}"):
			return t, nil
		default:
			return nil, p.errf(p.peek().Pos, "expected ',' or '}' in tuple constructor")
		}
	}
}

func (p *parser) parseArrayCtor() (ast.Expr, error) {
	pos := p.next().Pos // "["
	a := &ast.ArrayCtor{}
	setPos(a, pos)
	if p.accept("]") {
		return a, nil
	}
	for {
		e, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		a.Elems = append(a.Elems, e)
		switch {
		case p.accept(","):
		case p.accept("]"):
			return a, nil
		default:
			return nil, p.errf(p.peek().Pos, "expected ',' or ']' in array constructor")
		}
	}
}

// parseBagCtor parses {{...}} (closed by "}}") or <<...>> (closed by
// ">>").
func (p *parser) parseBagCtor() (ast.Expr, error) {
	open := p.next()
	doubled := open.Text == "{"
	if doubled {
		p.next()
	}
	b := &ast.BagCtor{}
	setPos(b, open.Pos)
	closeBag := func() bool {
		if !doubled {
			return p.accept(">>")
		}
		if p.at("}") && p.atOffset(1, "}") {
			p.next()
			p.next()
			return true
		}
		return false
	}
	if closeBag() {
		return b, nil
	}
	for {
		e, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		b.Elems = append(b.Elems, e)
		if p.accept(",") {
			continue
		}
		if closeBag() {
			return b, nil
		}
		return nil, p.errf(p.peek().Pos, "expected ',' or bag terminator")
	}
}
