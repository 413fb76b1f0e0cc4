package sqlpp

import (
	"errors"
	"slices"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/lexer"
	"sqlpp/internal/parser"
	"sqlpp/internal/plan"
	"sqlpp/internal/value"
)

// Literal templates: texts that differ only in their numeric literals
// share one plan. A Template is the query prepared once with each
// numeric literal as an opaque slot — a parameter the user did not name
// — and planned with the literals of the text it came from; Bind serves
// another text's literals from it when the cost model's decisions come
// out the same for them. The server's plan cache keys templates by
// TemplateText.

// Literals are the numeric literals of one query text, in text order,
// valued as the parser values them.
type Literals []value.Value

// numLitBuf bounds the literals TemplateText scans without allocating.
const numLitBuf = 16

// TemplateText appends to dst the template text of query: query with
// every numeric literal's bytes masked in place at the same width (so
// positions in plan notes and errors are the template's positions),
// then a NUL and one kind byte per literal — 'i' for an integer, 'f'
// for a float, including an integer literal the parser widens to float
// on overflow. Two texts have the same template text exactly when they
// differ only in same-width, same-kind numeric literals. ok is false
// when query has no numeric literal or does not lex, or a literal is
// one the parser rejects.
func TemplateText(dst []byte, query string) (text []byte, lits Literals, ok bool) {
	var buf [numLitBuf]lexer.NumLit
	dst = slices.Grow(dst, len(query)+1+numLitBuf)
	dst, nums, err := lexer.AppendMasked(dst, buf[:0], query)
	if err != nil || len(nums) == 0 {
		return dst, nil, false
	}
	lits = make(Literals, len(nums))
	dst = append(dst, 0)
	for i, n := range nums {
		v, err := parser.NumberValue(n.Text, n.Float)
		if err != nil {
			return dst, nil, false
		}
		lits[i] = v
		kind := byte('i')
		if v.Kind() == value.KindFloat {
			kind = 'f'
		}
		dst = append(dst, kind)
	}
	return dst, lits, true
}

// Template is a query prepared for every text that differs from it only
// in its numeric literals. It is immutable and safe for concurrent
// Bind calls.
type Template struct {
	// prep is the template's compilation: its core holds slot
	// references, its params are the slot names, and its notes are those
	// of the literals it was planned with.
	prep   *Prepared
	guards *plan.Guards
}

// errTemplateVet rejects templates on vetting engines: the analyzer's
// findings carry literal values.
var errTemplateVet = errors.New("sqlpp: a literal template cannot be vetted")

// PrepareTemplate prepares query as a literal template: each numeric
// literal is a slot the rewriter cannot branch on, and the cost model
// plans with lits, the query's own literals (see TemplateText). A
// template computes what the literal text does only when Admits says
// so.
func (e *Engine) PrepareTemplate(query string, lits Literals) (*Template, error) {
	if e.opts.Vet {
		return nil, errTemplateVet
	}
	names := make([]string, len(lits))
	for i := range names {
		names[i] = ast.SlotName(i)
	}
	core, err := e.rewrite(parser.ParseTemplate, query, names, nil)
	if err != nil {
		return nil, err
	}
	p := &Prepared{engine: e, core: core, params: names}
	t := &Template{prep: p, guards: &plan.Guards{}}
	if e.opts.DisableOptimizer {
		p.root = eval.Interpret(core)
		return t, nil
	}
	p.planNotes, t.guards = plan.OptimizeTemplate(core, e.optOptions(), lits)
	p.root = eval.Compile(core, eval.CompileOpts{Mode: e.mode(), Compat: e.opts.Compat, Funcs: e.funcs})
	return t, nil
}

// Admits reports whether the template, bound to lits, is the query lit
// is the cold preparation of: its Core with lits substituted for the
// slots is ast.Equal to lit's, and its plan notes are lit's. A template
// that fails is literal-only — its text reaches the rewriter or the
// planner somewhere a value changes the shape.
func (t *Template) Admits(lit *Prepared, lits Literals) bool {
	if len(lits) != len(t.prep.params) {
		return false
	}
	return ast.Equal(bindSlots(t.prep.core, lits), lit.core) && slices.Equal(t.prep.planNotes, lit.planNotes)
}

// bindSlots copies a template's tree with each slot reference replaced
// by a literal of its value.
func bindSlots(core ast.Expr, lits Literals) ast.Expr {
	return ast.CloneReplace(core, func(e ast.Expr) ast.Expr {
		if v, ok := e.(*ast.VarRef); ok {
			if i, ok := ast.SlotIndex(v.Name); ok && i < len(lits) {
				lit := &ast.Literal{Val: lits[i]}
				lit.SetPos(v.Pos())
				return lit
			}
		}
		return nil
	})
}

// Bind returns the template's plan bound to lits, with plan notes
// recomputed for them, or false when a cost decision the template's
// plan made with its own literals comes out differently for lits. The
// bound query executes the shared plan, reading each slot from its
// environment.
func (t *Template) Bind(lits Literals) (*Prepared, bool) {
	if len(lits) != len(t.prep.params) {
		return nil, false
	}
	notes, ok := t.guards.Notes(t.prep.planNotes, lits)
	if !ok {
		return nil, false
	}
	p := t.prep
	return &Prepared{engine: p.engine, core: p.core, root: p.root, planNotes: notes, params: p.params, slots: lits}, true
}

// PrepareTemplated prepares query through the template path as a plan
// cache that admitted its template serves it: the template is prepared
// with the query's own literals, checked against the cold preparation
// and bound. templated is false, and the cold preparation is returned,
// when the query has no template or it is not admitted.
func (e *Engine) PrepareTemplated(query string) (p *Prepared, templated bool, err error) {
	lit, err := e.Prepare(query)
	if err != nil {
		return nil, false, err
	}
	_, lits, ok := TemplateText(nil, query)
	if !ok {
		return lit, false, nil
	}
	t, err := e.PrepareTemplate(query, lits)
	if err != nil || !t.Admits(lit, lits) {
		return lit, false, nil
	}
	bound, ok := t.Bind(lits)
	if !ok {
		return lit, false, nil
	}
	return bound, true, nil
}
