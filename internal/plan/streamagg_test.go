package plan

import (
	"fmt"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// prepareOptimized rewrites and optimizes (compiled, with the function
// library) a query over cat, the way the engine's Prepare does.
func prepareOptimized(t testing.TB, cat *catalog.Catalog, query string, mode eval.TypingMode) (ast.Expr, []string) {
	t.Helper()
	core, err := rewrite.Rewrite(parser.MustParse(query), rewrite.Options{Names: cat})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return core, Optimize(core, OptOptions{Mode: mode, Funcs: registry})
}

func TestStreamRecognizer(t *testing.T) {
	cat := catalog.New()
	if err := cat.Register("emp", value.Bag{}); err != nil {
		t.Fatal(err)
	}
	stream := func(query, label string, slots int) {
		t.Helper()
		core, notes := prepareOptimized(t, cat, query, eval.Permissive)
		phys := core.(*ast.SFW).Phys.(*sfwPhys)
		if phys.stream == nil {
			t.Fatalf("%s: not streamed: %v", query, notes)
		}
		if phys.stream.label != label || len(phys.stream.slots) != slots {
			t.Errorf("%s: label %q with %d slots, want %q with %d", query, phys.stream.label, len(phys.stream.slots), label, slots)
		}
		if !hasNote(notes, fmt.Sprintf("stream-agg(%d)", slots)) {
			t.Errorf("%s: notes %v lack stream-agg(%d)", query, notes, slots)
		}
	}
	stream(`SELECT e.d AS d, COUNT(*) AS c, SUM(e.x) AS s FROM emp AS e GROUP BY e.d`, "stream: COUNT,SUM", 2)
	// Textually equal folds share a slot, wherever they occur.
	stream(`SELECT SUM(e.x) AS a, SUM(e.x) + 1 AS b FROM emp AS e GROUP BY e.d HAVING SUM(e.x) > 0 ORDER BY SUM(e.x)`, "stream: SUM", 1)
	// No aggregate at all: nothing looks at the group, nothing is kept.
	stream(`SELECT e.d AS d FROM emp AS e GROUP BY e.d`, "stream", 0)
	// The paper's explicit form, with a filter, and a LET variable.
	stream(`FROM emp AS e LET y = e.x * 2 GROUP BY e.d AS d GROUP AS g
	        SELECT d AS d, COLL_MAX(FROM g AS v SELECT VALUE v.y) AS m,
	               COLL_SUM(SELECT VALUE v.e.x FROM g AS v WHERE v.e.x > 0) AS s`, "stream: MAX,SUM", 2)

	// Under stop-on-error, positions inside an argument are observable
	// through error text, so each occurrence keeps its own slot.
	core, _ := prepareOptimized(t, cat, `SELECT SUM(e.x) AS a, SUM(e.x) AS b FROM emp AS e GROUP BY e.d`, eval.StopOnError)
	if n := len(core.(*ast.SFW).Phys.(*sfwPhys).stream.slots); n != 2 {
		t.Errorf("stop-on-error: %d slots, want 2", n)
	}

	blocked := func(query, reason string) {
		t.Helper()
		core, notes := prepareOptimized(t, cat, query, eval.Permissive)
		if core.(*ast.SFW).Phys.(*sfwPhys).stream != nil {
			t.Fatalf("%s: streamed, want materialized (%s)", query, reason)
		}
		if !hasNote(notes, "group-materialize("+reason) {
			t.Errorf("%s: notes %v lack group-materialize(%s", query, notes, reason)
		}
	}
	blocked(`FROM emp AS e GROUP BY e.d AS d GROUP AS g SELECT d AS d, g AS g`, "g)")
	blocked(`FROM emp AS e GROUP BY e.d AS d GROUP AS g SELECT VALUE CARDINALITY(g)`, "CARDINALITY(g))")
	// The fold ranges over the element tuple itself, or an attribute of
	// it that is no block variable, or refers to a post-group name.
	blocked(`FROM emp AS e GROUP BY e.d AS d GROUP AS g SELECT VALUE COLL_COUNT(SELECT VALUE v FROM g AS v)`, "subquery over g)")
	blocked(`FROM emp AS e GROUP BY e.d AS d GROUP AS g SELECT VALUE COLL_SUM(SELECT VALUE v.nope FROM g AS v)`, "subquery over g)")
	blocked(`FROM emp AS e GROUP BY e.d AS d GROUP AS g SELECT VALUE COLL_SUM(SELECT VALUE v.e.x + d FROM g AS v)`, "subquery over g)")
	blocked(`FROM emp AS e GROUP BY e.d AS d GROUP AS g SELECT VALUE COLL_SUM(SELECT VALUE v.e.x FROM g AS v ORDER BY v.e.x LIMIT 2)`, "subquery over g)")
}

// TestStreamAggAllocationGuard: once its groups exist, a streamed
// aggregate allocates nothing per input row — no snapshot, no bag, no
// key string. The bound is deterministic (it counts allocations, not
// time), so it can gate CI on any host.
func TestStreamAggAllocationGuard(t *testing.T) {
	const rows, groups = 10000, 40
	elems := make(value.Bag, rows)
	for i := range elems {
		elems[i] = value.NewTuple(
			value.Field{Name: "k", Value: value.Int(int64(i % groups))},
			value.Field{Name: "x", Value: value.Int(int64(i))})
	}
	cat := catalog.New()
	if err := cat.Register("t", elems); err != nil {
		t.Fatal(err)
	}
	core, notes := prepareOptimized(t, cat, `SELECT r.k AS k, COUNT(*) AS c, SUM(r.x) AS s FROM t AS r GROUP BY r.k`, eval.Permissive)
	if !hasNote(notes, "stream-agg(2)") {
		t.Fatalf("not streamed: %v", notes)
	}
	run := func() {
		ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run}
		v, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
		if err != nil {
			t.Fatal(err)
		}
		if out, _ := value.Elements(v); len(out) != groups {
			t.Fatalf("%d groups, want %d", len(out), groups)
		}
	}
	perRow := testing.AllocsPerRun(5, run) / rows
	t.Logf("%.4f allocations per input row", perRow)
	if perRow > 0.1 {
		t.Errorf("streamed GROUP BY allocates %.3f times per input row, want <= 0.1", perRow)
	}
}

// TestHashProbeReusesCandidate: the hash probe rebinds one candidate
// environment per probe site. Matches, non-matches and LEFT JOIN padding
// interleave here, so a binding left over from the previous probe would
// show up as a wrong row.
func TestHashProbeReusesCandidate(t *testing.T) {
	cat := catalog.New()
	for name, src := range map[string]string{
		"l": `[{'id': 1, 'k': 1}, {'id': 2, 'k': 9}, {'id': 3, 'k': 2}, {'id': 4, 'k': null}, {'id': 5, 'k': 1}]`,
		"r": `[{'k': 1, 'v': 'a'}, {'k': 2, 'v': 'b'}, {'k': 1, 'v': 'c'}]`,
	} {
		if err := cat.Register(name, sion.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ query, want string }{
		{`SELECT VALUE [x.id, y.v] FROM l AS x LEFT JOIN r AS y ON x.k = y.k`,
			`{{[1, 'a'], [1, 'c'], [2, null], [3, 'b'], [4, null], [5, 'a'], [5, 'c']}}`},
		{`SELECT VALUE [x.id, y.v] FROM l AS x, r AS y WHERE x.k = y.k`,
			`{{[1, 'a'], [1, 'c'], [3, 'b'], [5, 'a'], [5, 'c']}}`},
	} {
		core, notes := prepareOptimized(t, cat, c.query, eval.Permissive)
		phys := core.(*ast.SFW).Phys.(*sfwPhys)
		if !hasNote(notes, "hash-join(1)") || !phys.reuseEnv {
			t.Fatalf("%s: want a hash join with row-environment reuse, got %v", c.query, notes)
		}
		ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run}
		got, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("%s:\n  got  %s\n  want %s", c.query, got, c.want)
		}
	}
}
