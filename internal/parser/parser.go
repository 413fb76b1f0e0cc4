// Package parser turns SQL++ source text into the AST of package ast.
//
// The grammar is SQL with the paper's relaxations: SELECT VALUE, query
// blocks that may put the SELECT clause last, left-correlated FROM items,
// AT ordinal variables, GROUP BY ... GROUP AS, PIVOT and UNPIVOT, bag and
// tuple constructors, and subqueries anywhere an expression is allowed.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// Error is a parse error with position information.
type Error struct {
	Pos lexer.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %s: %s", e.Pos, e.Msg)
}

// Parse parses a complete SQL++ query (a query block, set operation, or
// bare expression) and requires that all input is consumed. A trailing
// semicolon is permitted.
func Parse(src string) (ast.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	if p.at(";") {
		p.next()
	}
	if tok := p.peek(); tok.Type != lexer.EOF {
		return nil, p.errf(tok.Pos, "unexpected %s %q after query", tok.Type, tok.Text)
	}
	return e, nil
}

// MustParse is Parse but panics on error; intended for tests and
// fixtures.
func MustParse(src string) ast.Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	toks []lexer.Token
	pos  int
}

func (p *parser) errf(pos lexer.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) peek() lexer.Token { return p.peekAt(0) }

func (p *parser) peekAt(n int) lexer.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	end := lexer.Pos{Line: 1, Column: 1}
	if len(p.toks) > 0 {
		end = p.toks[len(p.toks)-1].Pos
	}
	return lexer.Token{Type: lexer.EOF, Pos: end}
}

func (p *parser) next() lexer.Token {
	tok := p.peek()
	if tok.Type != lexer.EOF {
		p.pos++
	}
	return tok
}

// at reports whether the current token is the given keyword or symbol.
func (p *parser) at(text string) bool { return p.atOffset(0, text) }

func (p *parser) atOffset(n int, text string) bool {
	tok := p.peekAt(n)
	return (tok.Type == lexer.Keyword || tok.Type == lexer.Symbol) && tok.Text == text
}

// accept consumes the current token when it matches text.
func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a token matching text or fails.
func (p *parser) expect(text string) (lexer.Token, error) {
	tok := p.peek()
	if !p.at(text) {
		return tok, p.errf(tok.Pos, "expected %q, found %q", text, tok.Text)
	}
	return p.next(), nil
}

// expectIdent consumes an identifier (plain or quoted) and returns its
// name.
func (p *parser) expectIdent(what string) (string, error) {
	tok := p.peek()
	if tok.Type != lexer.Ident && tok.Type != lexer.QuotedIdent {
		return "", p.errf(tok.Pos, "expected %s, found %q", what, tok.Text)
	}
	p.next()
	return tok.Text, nil
}

// atQueryStart reports whether the current token begins a query block.
func (p *parser) atQueryStart() bool {
	return p.at("SELECT") || p.at("FROM") || p.at("PIVOT")
}

// parseQueryExpr parses a query expression: one or more query terms
// combined with UNION/EXCEPT/INTERSECT, or a plain expression.
func (p *parser) parseQueryExpr() (ast.Expr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.at("UNION") || p.at("EXCEPT") || p.at("INTERSECT") {
		op := p.next()
		all := p.accept("ALL")
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &ast.SetOp{Op: op.Text, All: all, L: left, R: right}
		setPos(left, op.Pos)
	}
	return left, nil
}

func (p *parser) parseQueryTerm() (ast.Expr, error) {
	if p.at("WITH") {
		return p.parseWith()
	}
	if p.atQueryStart() {
		return p.parseQueryBlock()
	}
	return p.parseExpr()
}

// parseWith parses "WITH name AS (query), ... body".
func (p *parser) parseWith() (ast.Expr, error) {
	pos := p.next().Pos // WITH
	w := &ast.With{}
	setPos(w, pos)
	for {
		namePos := p.peek().Pos
		name, err := p.expectIdent("WITH binding name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("AS"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		w.Bindings = append(w.Bindings, ast.WithBinding{Name: name, NamePos: namePos, Expr: e})
		if !p.accept(",") {
			break
		}
	}
	body, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	w.Body = body
	return w, nil
}

// parseQueryBlock parses an SFW block (SELECT-first or FROM-first) or a
// PIVOT query.
func (p *parser) parseQueryBlock() (ast.Expr, error) {
	switch {
	case p.at("PIVOT"):
		return p.parsePivot()
	case p.at("SELECT"), p.at("FROM"):
		q := &ast.SFW{SelectLast: p.at("FROM")}
		setPos(q, p.peek().Pos)
		if !q.SelectLast {
			if err := p.parseSelectClause(q); err != nil {
				return nil, err
			}
		}
		if err := p.parseFromTail(q); err != nil {
			return nil, err
		}
		if q.SelectLast {
			if !p.at("SELECT") {
				return nil, p.errf(p.peek().Pos, "expected SELECT clause to end FROM-first query block")
			}
			if err := p.parseSelectClause(q); err != nil {
				return nil, err
			}
		}
		if err := p.parseOrderLimit(q); err != nil {
			return nil, err
		}
		return q, nil
	}
	return nil, p.errf(p.peek().Pos, "expected query block")
}

// parseFromTail parses FROM, LET, WHERE, GROUP BY and HAVING clauses into
// q, all optional.
func (p *parser) parseFromTail(q *ast.SFW) (err error) {
	if p.accept("FROM") {
		if q.From, err = p.parseFromList(); err != nil {
			return err
		}
	}
	for p.accept("LET") {
		for {
			namePos := p.peek().Pos
			name, err := p.expectIdent("LET variable")
			if err != nil {
				return err
			}
			if _, err := p.expect("="); err != nil {
				return err
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			q.Lets = append(q.Lets, ast.LetBinding{Name: name, NamePos: namePos, Expr: e})
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("WHERE") {
		if q.Where, err = p.parseExpr(); err != nil {
			return err
		}
	}
	if p.at("GROUP") {
		if q.GroupBy, err = p.parseGroupBy(); err != nil {
			return err
		}
	}
	if p.accept("HAVING") {
		if q.Having, err = p.parseExpr(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseGroupBy() (*ast.GroupBy, error) {
	pos := p.next().Pos // GROUP
	if _, err := p.expect("BY"); err != nil {
		return nil, err
	}
	g := &ast.GroupBy{}
	setPos(g, pos)
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		key := ast.GroupKey{Expr: e}
		if p.accept("AS") {
			aliasPos := p.peek().Pos
			alias, err := p.expectIdent("group key alias")
			if err != nil {
				return nil, err
			}
			key.Alias, key.AliasPos = alias, aliasPos
		}
		g.Keys = append(g.Keys, key)
		if !p.accept(",") {
			break
		}
	}
	if p.at("GROUP") && p.atOffset(1, "AS") {
		p.next()
		p.next()
		namePos := p.peek().Pos
		name, err := p.expectIdent("GROUP AS variable")
		if err != nil {
			return nil, err
		}
		g.GroupAs, g.GroupAsPos = name, namePos
	}
	return g, nil
}

// parseOrderLimit parses ORDER BY, LIMIT and OFFSET.
func (p *parser) parseOrderLimit(q *ast.SFW) (err error) {
	if q.OrderBy, err = p.parseOrderBy(); err != nil {
		return err
	}
	if p.accept("LIMIT") {
		if q.Limit, err = p.parseExpr(); err != nil {
			return err
		}
	}
	if p.accept("OFFSET") {
		if q.Offset, err = p.parseExpr(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseSelectClause(q *ast.SFW) error {
	if _, err := p.expect("SELECT"); err != nil {
		return err
	}
	if p.accept("DISTINCT") {
		q.Select.Distinct = true
	} else {
		p.accept("ALL")
	}
	if p.accept("VALUE") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		q.Select.Value = e
		return nil
	}
	if p.at("*") {
		p.next()
		q.Select.Star = true
		return nil
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return err
		}
		q.Select.Items = append(q.Select.Items, item)
		if !p.accept(",") {
			break
		}
	}
	return nil
}

func (p *parser) parseSelectItem() (ast.SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	// "expr.*" — the path parser stops before ".*".
	if p.at(".") && p.atOffset(1, "*") {
		p.next()
		p.next()
		return ast.SelectItem{StarOf: e}, nil
	}
	item := ast.SelectItem{Expr: e}
	switch {
	case p.accept("AS"):
		// A string literal also names the item ("AS 'name'", as in some
		// dialects).
		tok := p.peek()
		if tok.Type != lexer.Ident && tok.Type != lexer.QuotedIdent && tok.Type != lexer.StringLit {
			return ast.SelectItem{}, p.errf(tok.Pos, "expected alias name, found %q", tok.Text)
		}
		item.Alias, item.HasAlias = p.next().Text, true
	case p.peek().Type == lexer.Ident || p.peek().Type == lexer.QuotedIdent:
		item.Alias, item.HasAlias = p.next().Text, true
	default:
		item.Alias = implicitAlias(e)
	}
	return item, nil
}

// implicitAlias derives the output attribute name of an unaliased SELECT
// item: the last path step for variable and navigation expressions, or ""
// (meaning a positional name is assigned later) otherwise.
func implicitAlias(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.VarRef:
		return x.Name
	case *ast.FieldAccess:
		return x.Name
	case *ast.NamedRef:
		parts := strings.Split(x.Name, ".")
		return parts[len(parts)-1]
	}
	return ""
}

// parseFromList parses comma-separated FROM items, each a join chain.
func (p *parser) parseFromList() ([]ast.FromItem, error) {
	var items []ast.FromItem
	for {
		item, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.accept(",") {
			return items, nil
		}
	}
}

func (p *parser) parseJoinChain() (ast.FromItem, error) {
	left, err := p.parseFromUnit()
	if err != nil {
		return nil, err
	}
	for {
		var kind ast.JoinKind
		pos := p.peek().Pos
		switch {
		case p.at("JOIN"):
			p.next()
			kind = ast.JoinInner
		case p.at("INNER") && p.atOffset(1, "JOIN"):
			p.next()
			p.next()
			kind = ast.JoinInner
		case p.at("LEFT"):
			p.next()
			p.accept("OUTER")
			if _, err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = ast.JoinLeft
		case p.at("CROSS") && p.atOffset(1, "JOIN"):
			p.next()
			p.next()
			kind = ast.JoinCross
		default:
			return left, nil
		}
		right, err := p.parseFromUnit()
		if err != nil {
			return nil, err
		}
		join := &ast.FromJoin{Kind: kind, Left: left, Right: right}
		setPos(join, pos)
		if kind != ast.JoinCross {
			onTok, err := p.expect("ON")
			if err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
			join.OnPos = onTok.Pos
		}
		left = join
	}
}

func (p *parser) parseFromUnit() (ast.FromItem, error) {
	pos := p.peek().Pos
	if p.accept("UNPIVOT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("AS"); err != nil {
			return nil, err
		}
		valueVar, err := p.expectIdent("UNPIVOT value variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("AT"); err != nil {
			return nil, err
		}
		nameVar, err := p.expectIdent("UNPIVOT name variable")
		if err != nil {
			return nil, err
		}
		u := &ast.FromUnpivot{Expr: e, ValueVar: valueVar, NameVar: nameVar}
		setPos(u, pos)
		return u, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &ast.FromExpr{Expr: e}
	setPos(item, pos)
	switch {
	case p.accept("AS"):
		name, err := p.expectIdent("FROM alias")
		if err != nil {
			return nil, err
		}
		item.As = name
	case p.peek().Type == lexer.Ident || p.peek().Type == lexer.QuotedIdent:
		item.As = p.next().Text
	default:
		item.As = implicitAlias(e)
	}
	// An empty alias ("" or ``) binds nothing the query could name.
	if item.As == "" {
		return nil, p.errf(pos, "FROM item requires an AS alias")
	}
	if p.accept("AT") {
		name, err := p.expectIdent("AT ordinal variable")
		if err != nil {
			return nil, err
		}
		item.AtVar = name
	}
	return item, nil
}

func (p *parser) parsePivot() (ast.Expr, error) {
	pos := p.next().Pos // PIVOT
	valueExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("AT"); err != nil {
		return nil, err
	}
	nameExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	q := &ast.SFW{Select: ast.SelectClause{Value: valueExpr, PivotAt: nameExpr}}
	setPos(q, pos)
	if !p.at("FROM") {
		return nil, p.errf(p.peek().Pos, "expected FROM clause in PIVOT query")
	}
	if err := p.parseFromTail(q); err != nil {
		return nil, err
	}
	return q, nil
}

// setPos stores pos into any node embedding ast's position record.
func setPos(n ast.Node, pos lexer.Pos) {
	type positioned interface{ SetPos(lexer.Pos) }
	if s, ok := n.(positioned); ok {
		s.SetPos(pos)
	}
}

// literal builds a literal node at pos.
func literal(v value.Value, pos lexer.Pos) *ast.Literal {
	l := &ast.Literal{Val: v}
	setPos(l, pos)
	return l
}

// parseIntLit converts integer literal text, falling back to float on
// overflow.
func parseIntLit(text string, pos lexer.Pos) (value.Value, error) {
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return value.Int(i), nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, &Error{Pos: pos, Msg: "invalid numeric literal " + text}
	}
	return value.Float(f), nil
}
