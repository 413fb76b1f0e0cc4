package plan

import (
	"slices"

	"sqlpp/internal/ast"
	"sqlpp/internal/stats"
	"sqlpp/internal/value"
)

// Literal templates. A template's tree holds slot references
// (ast.SlotName) where its text held numeric literals, and one compiled
// plan serves every binding of them. The plan itself is value-free —
// compiled code reads each slot from the environment per execution —
// but the cost model is not: it plans with the values of the text the
// template was prepared from (the sniffed values), read through
// literalOf, the one place literals enter it. Every decision or note
// that read a slot registers a slotCheck, which re-derives it from the
// statistics and plan structure it captured; Guards runs them for a new
// binding. Which literal-dependent outputs exist is fixed by the cost
// model: the index veto (indexWorthIt), the join order (planJoinOrder)
// and the index-est estimate. Everything else the planner decides —
// pushdown, hoisting, hash joins, parallel sizing (from collection row
// counts), stream aggregation, build sides — depends on the tree's shape
// and the statistics only, which every binding shares.

// slotValues are a template's slot values as the cost model reads them:
// literalOf answers a slot reference from vals and counts the read, so
// a plan-time computation can tell whether it depended on one.
type slotValues struct {
	vals  []value.Value
	reads int
}

// count is the number of slot reads so far; zero for no slots.
func (s *slotValues) count() int {
	if s == nil {
		return 0
	}
	return s.reads
}

// slotCheck re-derives one plan-time decision that read a slot. eval
// reports false when the decision comes out differently for s; when it
// holds, it returns the texts of the notes the decision writes (as
// many as at has entries, without the position suffix), recomputed
// from s.
type slotCheck struct {
	eval func(s *slotValues) ([]string, bool)
	// at are the indexes of the check's notes in the plan's notes; pos
	// is their block's position suffix.
	at  []int
	pos string
}

// templatePlan collects the checks of one OptimizeTemplate call.
type templatePlan struct {
	slots  slotValues
	checks []*slotCheck
	// base is the number of notes of the blocks planned before the
	// current one, which offsets its checks' note indexes.
	base int
}

// slots is the cost model's slot source: nil outside a template's plan.
func (o OptOptions) slots() *slotValues {
	if o.tpl == nil {
		return nil
	}
	return &o.tpl.slots
}

// check registers a check of block q that writes texts notes; the
// note indexes are filled in when the block's notes are assembled.
func (t *templatePlan) check(q *ast.SFW, texts int, eval func(*slotValues) ([]string, bool)) *slotCheck {
	c := &slotCheck{eval: eval, at: make([]int, texts), pos: " at " + q.Pos().String()}
	t.checks = append(t.checks, c)
	return c
}

// vetoCheck guards an index veto whose estimate read a slot: the
// keep/skip decision must hold, and a skip re-renders its estimate.
func vetoCheck(t *templatePlan, q *ast.SFW, st *stats.Collection, ia *indexAccess, keep bool) *slotCheck {
	texts := 0
	if !keep {
		texts = 1
	}
	return t.check(q, texts, func(s *slotValues) ([]string, bool) {
		k, est, rows := indexWorthIt(st, ia, s)
		switch {
		case k != keep:
			return nil, false
		case k:
			return nil, true
		}
		return []string{skipNote(ia.name, est, rows)}, true
	})
}

// estCheck registers, in a template's plan, the check that re-renders
// an index access's estimate when it read a slot; nil otherwise.
func estCheck(q *ast.SFW, step *fromStep, o OptOptions) *slotCheck {
	if o.tpl == nil {
		return nil
	}
	_, ref := stepNamedScan(step)
	if ref == nil {
		return nil
	}
	st := statsFor(o.Stats, ref.Name)
	if st == nil {
		return nil
	}
	ia := step.idx
	r0 := o.tpl.slots.reads
	indexProbeEstimate(st, ia, o.slots())
	if o.tpl.slots.reads == r0 {
		return nil
	}
	return o.tpl.check(q, 1, func(s *slotValues) ([]string, bool) {
		return []string{estNote(ia.name, indexProbeEstimate(st, ia, s))}, true
	})
}

// joinOrderCheck guards a join-order verdict (order, nil when the
// written order stays) some of whose conjunct selectivities read a
// slot: those are recomputed, and the verdict and its permutation must
// hold; a reorder re-renders its two notes.
func joinOrderCheck(t *templatePlan, q *ast.SFW, infos []leafInfo, conj []costConjunct, order *joinOrder) *slotCheck {
	texts := 0
	if order != nil {
		texts = 2
	}
	return t.check(q, texts, func(s *slotValues) ([]string, bool) {
		c := slices.Clone(conj)
		for i := range c {
			if c[i].slotted {
				c[i].sel = clampSel(localSelectivity(&infos[c[i].leaves[0]], c[i].expr, s))
			}
		}
		d := decideJoinOrder(infos, c)
		if (d == nil) != (order == nil) || d != nil && !slices.Equal(d.greedy, order.greedy) {
			return nil, false
		}
		if d == nil {
			return nil, true
		}
		_, notes := d.render(infos)
		return notes, true
	})
}

// Guards re-derive every slot-dependent decision and note of one
// template's plan. They are immutable once OptimizeTemplate returns and
// safe for concurrent use.
type Guards struct {
	checks []*slotCheck
}

// OptimizeTemplate is Optimize for a template's tree: the cost model
// reads vals[i] wherever a plain plan would read the literal that slot
// i stands for, and every decision or note that read one is guarded.
// Its notes are the notes Optimize would give the literal text.
func OptimizeTemplate(root ast.Expr, o OptOptions, vals []value.Value) ([]string, *Guards) {
	o.tpl = &templatePlan{slots: slotValues{vals: vals}}
	notes := Optimize(root, o)
	return notes, &Guards{checks: o.tpl.checks}
}

// Notes re-evaluates the guards with vals. It reports false when any
// guarded decision differs from the plan's, which must then not serve
// vals. Otherwise it returns notes (the plan's notes) with every
// slot-dependent estimate recomputed from vals — notes itself when
// none changed.
// governor:bounded by the number of slot-dependent decisions in the query text
func (g *Guards) Notes(notes []string, vals []value.Value) ([]string, bool) {
	s := &slotValues{vals: vals}
	out, copied := notes, false
	for _, c := range g.checks {
		texts, ok := c.eval(s)
		if !ok {
			return nil, false
		}
		for k, i := range c.at {
			if text := texts[k] + c.pos; text != out[i] {
				if !copied {
					out, copied = append([]string(nil), notes...), true
				}
				out[i] = text
			}
		}
	}
	return out, true
}
