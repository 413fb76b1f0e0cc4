package plan

// Cost-based planning over collection statistics (internal/stats).
//
// Everything here runs at plan time and is advisory: decisions choose
// among physically equivalent strategies (all predicates stay as verify
// filters, reordered joins restore written production order — see
// reorder.go), so a misestimate can cost time but never correctness.
//
// The cost model is deliberately small. For a candidate join order the
// planner walks the steps keeping a running estimated intermediate
// cardinality:
//
//   - a step with an applicable equi-conjunct against already-placed
//     variables executes as a hash probe: cost += buildWeight·rows(t)
//     (building its table) + the current intermediate (probing);
//   - a step with no such link is a nested rescan:
//     cost += intermediate·rows(t) — the quadratic blowup the reorder
//     exists to dodge;
//   - after placing, intermediate ·= rows(t) · Π selectivity of every
//     conjunct that just became applicable. Equality with a sampled
//     literal is exact (small collections are fully sampled); equi-join
//     edges use |L|·|R|/max(NDV_L, NDV_R); ranges use the
//     distinct-value sample; anything else gets the classic 1/3.
//
// Reordering only fires when the written order is expensive in absolute
// terms (reorderMinCost) and the greedy order wins by a real margin
// (reorderGain), so small catalogs and already-good orders keep their
// written plans — and their existing golden explain trees.

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/stats"
	"sqlpp/internal/value"
)

// StatsSource answers plan-time statistics questions; the catalog
// implements it. A nil source (or a nil result for a name) disables
// cost-based decisions and leaves the heuristic plan untouched.
type StatsSource interface {
	StatsFor(name string) *stats.Collection
}

var (
	// reorderMinCost is the estimated written-order cost below which
	// join reordering never fires (vars so tests can lower them).
	reorderMinCost = 4096.0
	// reorderGain is the required written/greedy cost ratio.
	reorderGain = 2.0
	// indexVetoMinRows is the collection size below which a planned
	// index access is always kept (probing tiny collections is free and
	// existing plans stay stable).
	indexVetoMinRows = int64(1024)
	// indexVetoFraction is the estimated selectivity above which a scan
	// beats an index probe (a probe visits candidates out of band and
	// re-verifies; past ~a quarter of the collection the scan's locality
	// wins).
	indexVetoFraction = 0.25
)

const (
	buildWeight = 2.0 // hash-table build cost per row, relative to a probe
	defaultSel  = 1.0 / 3.0
	minSel      = 1e-6
)

// reorderExec is the runtime contract of a reordered FROM chain, stored
// on the physical plan: execution runs the steps in their new order and
// the reorder buffer (reorder.go) restores written production order.
type reorderExec struct {
	// perm maps executed step position -> written step position.
	perm []int
	// newPosOf maps written step position -> executed step position.
	newPosOf []int
	// label names the executed order for notes and EXPLAIN ("s,m,l").
	label string
}

// leafInfo is one reorderable FROM leaf: a plain scan of a named,
// statistics-covered collection.
type leafInfo struct {
	item *ast.FromExpr
	name string // collection name
	vars map[string]bool
	rows float64
	st   *stats.Collection
}

// costConjunct is one WHERE/ON conjunct as the cost model sees it.
type costConjunct struct {
	expr    ast.Expr
	leaves  []int   // leaf indices with free variables in the conjunct
	sel     float64 // selectivity when it becomes applicable
	equi    bool    // splits as an equi edge between exactly two leaves
	slotted bool    // sel read a template slot
}

// reorderResult is planJoinOrder's verdict: the flattened leaves in
// executed order, ON conjuncts promoted into the pushdown pool, the
// runtime permutation, and the notes describing the decision.
type reorderResult struct {
	items []ast.FromItem
	on    []ast.Expr
	exec  *reorderExec
	notes []string
	// check re-derives the decision in a template's plan when it read a
	// slot; nil otherwise.
	check *slotCheck
}

// planJoinOrder decides whether to run the block's FROM chain in a
// cheaper order. It returns nil (leave the written plan alone) unless
// every top-level item flattens to NamedRef scans over statistics-
// covered collections through inner joins, the bindings are distinct,
// and the greedy order beats the written one past both thresholds. In a
// template's plan, a decision whose conjunct selectivities read a slot
// registers a check that re-derives it from other slot values.
// governor:bounded by the number of FROM items in the query text
func planJoinOrder(q *ast.SFW, o OptOptions, pool []ast.Expr, late map[string]bool) *reorderResult {
	var leaves []*ast.FromExpr
	var on []ast.Expr
	for _, item := range q.From {
		if !flattenInnerJoins(item, &leaves, &on) {
			return nil
		}
	}
	if len(leaves) < 2 {
		return nil
	}
	// Distinct binding names: reordering re-nests scopes, which is only
	// transparent when no step shadows another.
	seen := map[string]bool{}
	for _, l := range leaves {
		for _, v := range ast.ItemVars(l) {
			if v == "" || seen[v] {
				return nil
			}
			seen[v] = true
		}
	}
	infos := make([]leafInfo, len(leaves))
	for i, l := range leaves {
		ref, ok := l.Expr.(*ast.NamedRef)
		if !ok {
			return nil
		}
		st := o.Stats.StatsFor(ref.Name)
		if st == nil {
			return nil
		}
		infos[i] = leafInfo{item: l, name: ref.Name, vars: nameSet(ast.ItemVars(l)), rows: float64(st.Rows()), st: st}
	}
	conj := classifyConjuncts(infos, append(append([]ast.Expr(nil), pool...), on...), late, o.slots())
	order := decideJoinOrder(infos, conj)
	var check *slotCheck
	if o.tpl != nil && slices.ContainsFunc(conj, func(c costConjunct) bool { return c.slotted }) {
		check = joinOrderCheck(o.tpl, q, infos, conj, order)
	}
	if order == nil {
		return nil
	}
	items := make([]ast.FromItem, len(order.greedy))
	newPosOf := make([]int, len(order.greedy))
	for newPos, writtenPos := range order.greedy {
		items[newPos] = infos[writtenPos].item
		newPosOf[writtenPos] = newPos
	}
	label, notes := order.render(infos)
	return &reorderResult{
		items: items,
		on:    on,
		exec:  &reorderExec{perm: order.greedy, newPosOf: newPosOf, label: label},
		notes: notes,
		check: check,
	}
}

// joinOrder is a reorder verdict: the greedy order and the costs and
// estimates its notes print.
type joinOrder struct {
	greedy       []int
	costG, costW float64
	ests         []float64
}

// decideJoinOrder prices the written and the greedy order, returning
// nil when the written order stays: the greedy order is the written
// one, or the written one is cheap, or the gain is too small.
func decideJoinOrder(infos []leafInfo, conj []costConjunct) *joinOrder {
	written := make([]int, len(infos))
	for i := range written {
		written[i] = i
	}
	costW, _ := orderCost(infos, conj, written)
	greedy := greedyOrder(infos, conj)
	costG, ests := orderCost(infos, conj, greedy)
	identity := true
	for i, p := range greedy {
		if p != i {
			identity = false
		}
	}
	if identity || costW < reorderMinCost || costG*reorderGain > costW {
		return nil
	}
	return &joinOrder{greedy: greedy, costG: costG, costW: costW, ests: ests}
}

// render names the executed order and prints the decision's notes.
func (j *joinOrder) render(infos []leafInfo) (string, []string) {
	labels := make([]string, len(j.greedy))
	estParts := make([]string, len(j.greedy))
	for newPos, writtenPos := range j.greedy {
		labels[newPos] = infos[writtenPos].item.As
		estParts[newPos] = fmt.Sprintf("%s=%d", infos[writtenPos].item.As, int64(j.ests[newPos]))
	}
	label := strings.Join(labels, ",")
	return label, []string{
		fmt.Sprintf("join-order(%s cost=%d vs written=%d)", label, int64(j.costG), int64(j.costW)),
		fmt.Sprintf("est-rows(%s)", strings.Join(estParts, ",")),
	}
}

// flattenInnerJoins decomposes item into NamedRef scan leaves connected
// by inner joins, collecting the ON conditions' conjuncts. Anything
// else (LEFT joins, unpivots, subquery sources) refuses the flatten.
// governor:bounded by the number of FROM items in the query text
func flattenInnerJoins(item ast.FromItem, leaves *[]*ast.FromExpr, on *[]ast.Expr) bool {
	switch x := item.(type) {
	case *ast.FromExpr:
		if _, ok := x.Expr.(*ast.NamedRef); !ok {
			return false
		}
		*leaves = append(*leaves, x)
		return true
	case *ast.FromJoin:
		if x.Kind != ast.JoinInner || x.On == nil {
			return false
		}
		if !flattenInnerJoins(x.Left, leaves, on) || !flattenInnerJoins(x.Right, leaves, on) {
			return false
		}
		*on = append(*on, conjuncts(x.On)...)
		return true
	}
	return false
}

// classifyConjuncts maps each costable conjunct onto the leaves it
// touches and estimates its selectivity. Conjuncts over LET/window
// names are residual and never costed.
// governor:bounded by the number of WHERE conjuncts in the query text
func classifyConjuncts(infos []leafInfo, pool []ast.Expr, late map[string]bool, s *slotValues) []costConjunct {
	var out []costConjunct
	for _, c := range pool {
		fv := ast.FreeVars(c)
		if intersects(fv, late) {
			continue
		}
		cc := costConjunct{expr: c, sel: defaultSel}
		for i := range infos {
			if intersects(fv, infos[i].vars) {
				cc.leaves = append(cc.leaves, i)
			}
		}
		switch len(cc.leaves) {
		case 0:
			continue // pre-filter; no bearing on join order
		case 1:
			r0 := s.count()
			cc.sel = localSelectivity(&infos[cc.leaves[0]], c, s)
			cc.slotted = s.count() != r0
		case 2:
			if sel, ok := equiSelectivity(infos, cc.leaves[0], cc.leaves[1], c); ok {
				cc.equi, cc.sel = true, sel
			}
		}
		cc.sel = clampSel(cc.sel)
		out = append(out, cc)
	}
	return out
}

// clampSel bounds a selectivity to [minSel, 1].
func clampSel(sel float64) float64 {
	return min(max(sel, minSel), 1)
}

// localSelectivity estimates a single-leaf filter conjunct.
func localSelectivity(leaf *leafInfo, c ast.Expr, s *slotValues) float64 {
	if path, probe := matchEqConjunct(c, leaf.item.As, leaf.vars); path != nil {
		if lit, ok := literalOf(probe, s); ok {
			if frac, ok := leaf.st.EqFraction(path, lit); ok {
				return frac
			}
		}
		if ndv, ok := leaf.st.NDV(path); ok && ndv > 0 {
			return 1 / ndv
		}
		return defaultSel
	}
	if path, lo, hi, loIncl, hiIncl := matchRangeConjunct(c, leaf.item.As, leaf.vars); path != nil {
		loLit, loOK := literalOf(lo, s)
		hiLit, hiOK := literalOf(hi, s)
		if (lo == nil || loOK) && (hi == nil || hiOK) {
			var loV, hiV value.Value
			if loOK {
				loV = loLit
			}
			if hiOK {
				hiV = hiLit
			}
			if frac, ok := leaf.st.RangeFraction(path, loV, hiV, loIncl, hiIncl); ok {
				return frac
			}
		}
	}
	return defaultSel
}

// equiSelectivity estimates an equi-join edge between leaves a and b as
// 1/max(NDV_a, NDV_b) when both sides are key paths over their leaves.
func equiSelectivity(infos []leafInfo, a, b int, c ast.Expr) (float64, bool) {
	eq, ok := c.(*ast.Binary)
	if !ok || eq.Op != "=" {
		return 0, false
	}
	ndv := func(leaf *leafInfo, e ast.Expr) (float64, bool) {
		if path := fieldPath(e, leaf.item.As); path != nil {
			if n, ok := leaf.st.NDV(path); ok {
				return n, true
			}
		}
		return 0, false
	}
	maxNDV := 1.0
	found := false
	for _, side := range []ast.Expr{eq.L, eq.R} {
		for _, li := range []int{a, b} {
			if n, ok := ndv(&infos[li], side); ok {
				found = true
				if n > maxNDV {
					maxNDV = n
				}
			}
		}
	}
	if !found {
		return 0, false
	}
	return 1 / maxNDV, true
}

// literalOf unwraps a constant expression to its value: a literal, or
// in a template's plan a slot reference, whose value s supplies (and
// counts the read). It is the one place literal values enter the cost
// model.
func literalOf(e ast.Expr, s *slotValues) (value.Value, bool) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, true
	case *ast.VarRef:
		if s != nil {
			if i, ok := ast.SlotIndex(x.Name); ok && i < len(s.vals) {
				s.reads++
				return s.vals[i], true
			}
		}
	}
	return nil, false
}

// orderCost walks one candidate order through the cost model, returning
// the total cost and the estimated intermediate cardinality after each
// step.
// governor:bounded by the number of FROM items in the query text
func orderCost(infos []leafInfo, conj []costConjunct, order []int) (float64, []float64) {
	placed := make([]bool, len(infos))
	used := make([]bool, len(conj))
	inter := 1.0
	cost := 0.0
	ests := make([]float64, len(order))
	for oi, li := range order {
		stepCost, newInter := placeStep(infos, conj, placed, used, li, inter, oi == 0)
		cost += stepCost
		inter = newInter
		ests[oi] = inter
		placed[li] = true
		markUsed(conj, placed, used, li)
	}
	return cost, ests
}

// placeStep prices adding leaf li to the placed set without mutating it.
func placeStep(infos []leafInfo, conj []costConjunct, placed, used []bool, li int, inter float64, first bool) (stepCost, newInter float64) {
	rows := infos[li].rows
	linked := false
	sel := 1.0
	for ci := range conj {
		if used[ci] || !applicableWith(&conj[ci], placed, li) {
			continue
		}
		sel *= conj[ci].sel
		if conj[ci].equi && len(conj[ci].leaves) == 2 && !first {
			linked = true
		}
	}
	effInter := inter
	if effInter < 1 {
		effInter = 1
	}
	if first {
		stepCost = rows
	} else if linked {
		stepCost = buildWeight*rows + effInter
	} else {
		stepCost = effInter * rows
	}
	newInter = inter * rows * sel
	return stepCost, newInter
}

// applicableWith reports whether the conjunct's leaves are all within
// placed ∪ {li}, with li among them.
func applicableWith(c *costConjunct, placed []bool, li int) bool {
	hit := false
	for _, l := range c.leaves {
		if l == li {
			hit = true
			continue
		}
		if !placed[l] {
			return false
		}
	}
	return hit
}

// markUsed retires conjuncts that became applicable when li was placed.
func markUsed(conj []costConjunct, placed []bool, used []bool, li int) {
	for ci := range conj {
		if used[ci] {
			continue
		}
		all := true
		for _, l := range conj[ci].leaves {
			if !placed[l] {
				all = false
				break
			}
		}
		if all {
			used[ci] = true
		}
	}
}

// greedyOrder picks steps smallest-estimated-work-first: at each point
// the leaf minimizing (step cost + resulting intermediate), breaking
// ties toward the written order.
// governor:bounded by the number of FROM items in the query text
func greedyOrder(infos []leafInfo, conj []costConjunct) []int {
	n := len(infos)
	placed := make([]bool, n)
	used := make([]bool, n)
	if len(conj) > 0 {
		used = make([]bool, len(conj))
	}
	inter := 1.0
	var order []int
	for len(order) < n {
		best, bestScore := -1, 0.0
		for li := 0; li < n; li++ {
			if placed[li] {
				continue
			}
			stepCost, newInter := placeStep(infos, conj, placed, used, li, inter, len(order) == 0)
			score := stepCost + newInter
			if best < 0 || score < bestScore {
				best, bestScore = li, score
			}
		}
		_, inter = placeStep(infos, conj, placed, used, best, inter, len(order) == 0)
		placed[best] = true
		markUsed(conj, placed, used, best)
		order = append(order, best)
	}
	return order
}

// annotateEstimates computes best-effort per-step row estimates for the
// final plan (whatever order it ended in) so EXPLAIN ANALYZE can show
// est_rows next to actuals, and records the outer-scan estimate used
// for parallel sizing. Steps without statistics keep estimate -1
// (rendered nowhere).
// governor:bounded by the number of FROM items in the query text
func annotateEstimates(q *ast.SFW, phys *sfwPhys, o OptOptions, itemV []map[string]bool) {
	slots := o.slots()
	if o.Stats == nil {
		return
	}
	for i := range phys.steps {
		step := &phys.steps[i]
		x, ref := stepNamedScan(step)
		if x == nil {
			continue
		}
		st := o.Stats.StatsFor(ref.Name)
		if st == nil {
			continue
		}
		rows := st.Rows()
		step.estSrc = rows
		sel := 1.0
		for _, c := range step.filters {
			sel *= localSelectivity(&leafInfo{item: x, name: ref.Name, vars: itemV[i], rows: float64(rows), st: st}, c, slots)
		}
		step.estOut = int64(float64(rows) * sel)
		if h := step.hash; h != nil && h.left == nil {
			// Probe-only comma hash: the step's output is the join of the
			// incoming intermediate with this build side; estimate the
			// build side's contribution via its key NDV.
			step.estOut = rows
		}
		if ia := step.idx; ia != nil {
			ia.estRows = indexProbeEstimate(st, ia, slots)
		}
	}
	// Explicit JOIN steps: estimate build rows and join output where both
	// sides are named scans with statistics.
	for i := range phys.steps {
		step := &phys.steps[i]
		h := step.hash
		if h == nil || h.right == nil {
			continue
		}
		ref, ok := h.right.Expr.(*ast.NamedRef)
		if !ok {
			continue
		}
		bst := o.Stats.StatsFor(ref.Name)
		if bst == nil {
			continue
		}
		h.estBuild = bst.Rows()
		if h.left == nil {
			continue
		}
		lx, lok := h.left.(*ast.FromExpr)
		if !lok {
			continue
		}
		lref, lok := lx.Expr.(*ast.NamedRef)
		if !lok {
			continue
		}
		lst := o.Stats.StatsFor(lref.Name)
		if lst == nil {
			continue
		}
		maxNDV := 1.0
		for j := range h.buildKeys {
			if path := fieldPath(h.buildKeys[j], h.right.As); path != nil {
				if n, ok := bst.NDV(path); ok && n > maxNDV {
					maxNDV = n
				}
			}
			if path := fieldPath(h.probeKeys[j], lx.As); path != nil {
				if n, ok := lst.NDV(path); ok && n > maxNDV {
					maxNDV = n
				}
			}
		}
		h.estOut = int64(float64(lst.Rows()) * float64(bst.Rows()) / maxNDV)
	}
	if phys.parallel {
		if step := &phys.steps[0]; step.estSrc >= 0 {
			phys.scanEst = step.estSrc
		}
	}
}

// stepNamedScan unwraps a step that scans a named collection.
func stepNamedScan(step *fromStep) (*ast.FromExpr, *ast.NamedRef) {
	var x *ast.FromExpr
	if fe, ok := step.item.(*ast.FromExpr); ok {
		x = fe
	} else if step.item == nil && step.hash != nil && step.hash.left == nil {
		x = step.hash.right
	}
	if x == nil {
		return nil, nil
	}
	ref, ok := x.Expr.(*ast.NamedRef)
	if !ok {
		return nil, nil
	}
	return x, ref
}

// indexProbeEstimate prices a planned index access in rows, rounded to
// the nearest row: a unique key's fraction sits a little under 1/rows
// when the sketch did not sample it, and truncation would price its one
// row at none.
func indexProbeEstimate(st *stats.Collection, ia *indexAccess, s *slotValues) int64 {
	rows := st.Rows()
	frac := indexAccessFraction(st, ia, s)
	return int64(math.Round(float64(rows) * frac))
}

// indexAccessFraction estimates the fraction of the collection an index
// access would return.
func indexAccessFraction(st *stats.Collection, ia *indexAccess, s *slotValues) float64 {
	if ia.eq != nil {
		if lit, ok := literalOf(ia.eq, s); ok {
			if frac, ok := st.EqFraction(ia.path, lit); ok {
				return frac
			}
		}
		if ndv, ok := st.NDV(ia.path); ok && ndv > 0 {
			return 1 / ndv
		}
		return defaultSel
	}
	var lo, hi value.Value
	if l, ok := literalOf(ia.lo, s); ok {
		lo = l
	} else if ia.lo != nil {
		return defaultSel
	}
	if h, ok := literalOf(ia.hi, s); ok {
		hi = h
	} else if ia.hi != nil {
		return defaultSel
	}
	if frac, ok := st.RangeFraction(ia.path, lo, hi, ia.loIncl, ia.hiIncl); ok {
		return frac
	}
	return defaultSel
}

// indexWorthIt decides index-vs-scan by estimated selectivity against
// probe cost: on a large collection, an access expected to return more
// than indexVetoFraction of the rows scans instead (the planned access
// is discarded; the pushed filters it came from still apply). Small
// collections always keep their index plans. st is the collection's
// statistics, nil when it has none.
func indexWorthIt(st *stats.Collection, ia *indexAccess, s *slotValues) (keep bool, estRows, rows int64) {
	if st == nil {
		return true, -1, -1
	}
	rows = st.Rows()
	if rows < indexVetoMinRows {
		return true, -1, rows
	}
	frac := indexAccessFraction(st, ia, s)
	return frac <= indexVetoFraction, int64(frac * float64(rows)), rows
}
