package plan

import (
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
)

// optimizeQuery compiles a query against a catalog holding emp and dept
// and runs the optimization pass, returning the outermost block's
// physical plan and the notes.
func optimizeQuery(t *testing.T, query string, mode eval.TypingMode) (*sfwPhys, []string) {
	t.Helper()
	cat := catalog.New()
	for name, src := range map[string]string{
		"emp":  `{{ {'id': 1, 'deptno': 1, 'projects': [{'name': 'p'}]} }}`,
		"dept": `{{ {'dno': 1, 'budget': 10} }}`,
	} {
		if err := cat.Register(name, sion.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: cat})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	notes := Optimize(core, OptOptions{Mode: mode, Funcs: registry})
	var phys *sfwPhys
	ast.Inspect(core, func(e ast.Expr) bool {
		if q, ok := e.(*ast.SFW); ok && phys == nil {
			phys, _ = q.Phys.(*sfwPhys)
			return false
		}
		return true
	})
	if phys == nil {
		t.Fatalf("no physical plan annotated for %q", query)
	}
	return phys, notes
}

func hasNote(notes []string, prefix string) bool {
	for _, n := range notes {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

func TestOptimizePushdownLevels(t *testing.T) {
	phys, notes := optimizeQuery(t,
		`SELECT e.id FROM emp AS e, dept AS d WHERE e.id > 0 AND d.budget > 2 AND 1 = 1`,
		eval.Permissive)
	if len(phys.pre) != 1 {
		t.Errorf("variable-free conjunct should be a pre filter, got %d", len(phys.pre))
	}
	if len(phys.steps[0].filters) != 1 {
		t.Errorf("e.id > 0 should push to step 0, got %d filters", len(phys.steps[0].filters))
	}
	if len(phys.steps[1].filters) != 1 {
		t.Errorf("d.budget > 2 should land on step 1, got %d filters", len(phys.steps[1].filters))
	}
	if len(phys.residual) != 0 {
		t.Errorf("no conjunct references a LET, residual should be empty, got %d", len(phys.residual))
	}
	if !phys.steps[1].hoist {
		t.Error("uncorrelated dept scan should hoist")
	}
	if !phys.parallel {
		t.Error("unordered block over a plain scan should be parallel-eligible")
	}
	if !hasNote(notes, "pushdown(") || !hasNote(notes, "hoist(") {
		t.Errorf("notes missing pushdown/hoist: %v", notes)
	}
}

func TestOptimizeStrictModeDisablesPushdown(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`SELECT e.id FROM emp AS e, dept AS d WHERE e.id > 0 AND d.budget > 2`,
		eval.StopOnError)
	// Reordering conjuncts could change which error surfaces first in
	// stop-on-error mode, so WHERE stays in clause position…
	if len(phys.residual) != 2 {
		t.Errorf("strict mode should keep all conjuncts residual, got %d", len(phys.residual))
	}
	if len(phys.steps[0].filters)+len(phys.steps[1].filters)+len(phys.pre) != 0 {
		t.Error("strict mode must not push any conjunct")
	}
	// …but hoisting preserves the evaluation set exactly and stays on.
	if !phys.steps[1].hoist {
		t.Error("hoisting is mode-independent and should still fire")
	}
}

func TestOptimizeLetBlocksPushdown(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`FROM emp AS e LET s = e.id WHERE s > 0 SELECT VALUE s`,
		eval.Permissive)
	if len(phys.residual) != 1 {
		t.Errorf("a conjunct over a LET name must stay residual, got %d", len(phys.residual))
	}
}

func TestOptimizeJoinHash(t *testing.T) {
	phys, notes := optimizeQuery(t,
		`SELECT e.id FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`,
		eval.Permissive)
	h := phys.steps[0].hash
	if h == nil {
		t.Fatal("uncorrelated equi-join should hash")
	}
	if h.leftJoin {
		t.Error("INNER JOIN must not pad")
	}
	if len(h.probeKeys) != 1 || len(h.buildKeys) != 1 {
		t.Errorf("want 1 key pair, got %d/%d", len(h.probeKeys), len(h.buildKeys))
	}
	if !hasNote(notes, "hash-join(") {
		t.Errorf("notes missing hash-join: %v", notes)
	}
}

func TestOptimizeLeftJoinHash(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`SELECT e.id FROM emp AS e LEFT JOIN dept AS d ON d.dno = e.deptno`,
		eval.Permissive)
	h := phys.steps[0].hash
	if h == nil {
		t.Fatal("LEFT equi-join should hash")
	}
	if !h.leftJoin {
		t.Error("LEFT JOIN must keep the padding path")
	}
	if len(h.padVars) != 1 || h.padVars[0] != "d" {
		t.Errorf("padVars = %v, want [d]", h.padVars)
	}
}

func TestOptimizeCorrelatedJoinStaysNestedLoop(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`SELECT p FROM emp AS e JOIN e.projects AS p ON p.name = e.id`,
		eval.Permissive)
	if phys.steps[0].hash != nil {
		t.Error("a correlated right side cannot build a shared hash table")
	}
}

func TestOptimizeCommaHash(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`SELECT e.id FROM emp AS e, dept AS d WHERE e.deptno = d.dno AND d.budget > 0`,
		eval.Permissive)
	step := phys.steps[1]
	if step.hash == nil {
		t.Fatal("comma product with a pushed equi-conjunct should hash")
	}
	if step.item != nil {
		t.Error("a comma-derived hash step is probe-only (item must be nil)")
	}
	if len(step.hash.verify) != 1 {
		t.Errorf("the equi-conjunct verifies candidates, got %d", len(step.hash.verify))
	}
	if len(step.filters) != 1 {
		t.Errorf("the non-equi conjunct stays a step filter, got %d", len(step.filters))
	}
}

func TestOptimizeNonEquiJoinStaysNestedLoop(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`SELECT e.id FROM emp AS e JOIN dept AS d ON e.deptno < d.dno`,
		eval.Permissive)
	if phys.steps[0].hash != nil {
		t.Error("a non-equi ON condition has no hashable keys")
	}
}

func TestOptimizeParallelGating(t *testing.T) {
	phys, _ := optimizeQuery(t,
		`SELECT e.id FROM emp AS e LIMIT 1`, eval.Permissive)
	if phys.parallel {
		t.Error("LIMIT needs global order; the block must stay sequential")
	}
	phys, _ = optimizeQuery(t,
		`SELECT e.id FROM emp AS e ORDER BY e.id`, eval.Permissive)
	if phys.parallel {
		t.Error("ORDER BY blocks the parallel scan")
	}
	phys, _ = optimizeQuery(t,
		`SELECT e.id FROM emp AS e GROUP BY e.id`, eval.Permissive)
	if !phys.parallel {
		t.Error("grouped unordered blocks merge deterministically and may parallelize")
	}
}
