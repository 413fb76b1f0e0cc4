package sqlpp_test

// Plan-quality harness at unit scale: over an adversarial catalog the
// planner's cost-based decisions must show in PlanNotes — join order
// with estimated cost, per-step cardinality estimates, build sides,
// index vetoes, and parallel chunk sizing — EXPLAIN ANALYZE must surface
// est_rows next to the actual row counters, and whatever the plan, the
// result must be byte-identical to the reference oracle's.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/value"
)

// planqRows builds n rows {<key>: 0..n-1, grp: i%2, pad}.
func planqRows(n int, key string) value.Bag {
	out := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		t := value.EmptyTuple()
		t.Put(key, value.Int(int64(i)))
		t.Put("grp", value.Int(int64(i%2)))
		t.Put("pad", value.String(fmt.Sprintf("r%05d", i)))
		out = append(out, t)
	}
	return out
}

// planqEngines returns the reference oracle and a production engine over
// the adversarial three-relation catalog (l x l/10 x 10 rows; 3000 where
// the notes under test quote the estimates).
func planqEngines(t *testing.T, parallelism, l int) (oracle, cost *sqlpp.Engine) {
	t.Helper()
	oracle = sqlpp.New(&sqlpp.Options{Parallelism: 1, DisableOptimizer: true})
	cost = sqlpp.New(&sqlpp.Options{Parallelism: parallelism})
	for name, data := range map[string]value.Bag{
		"l": planqRows(l, "x"),
		"m": planqRows(l/10, "y"),
		"s": planqRows(10, "j"),
	} {
		if err := oracle.Register(name, data); err != nil {
			t.Fatal(err)
		}
		if err := cost.Register(name, data); err != nil {
			t.Fatal(err)
		}
	}
	return oracle, cost
}

func hasNote(notes []string, prefix string) bool {
	for _, n := range notes {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// TestPlannerDifferentialIdentity: a battery of join/filter shapes the
// planner reorders, prunes and hashes; results must be byte-identical to
// the oracle's, which runs every one as the written nested loop (hence
// the smaller catalog: its worst-first joins are l x m x s iterations).
func TestPlannerDifferentialIdentity(t *testing.T) {
	oracle, cost := planqEngines(t, 1, 600)
	queries := []string{
		// The adversarial worst-first comma-join: written order cross-
		// products l x m before s links them.
		`SELECT VALUE {'x': l.x, 'y': m.y} FROM l AS l, m AS m, s AS s WHERE l.x = s.j AND m.y = s.j`,
		// Same chain written in the good order: reorder must not fire (or
		// must be a no-op) and results still match.
		`SELECT VALUE {'x': l.x, 'y': m.y} FROM s AS s, m AS m, l AS l WHERE l.x = s.j AND m.y = s.j`,
		// Explicit JOIN chain (flattened and reordered through ON).
		`SELECT VALUE {'x': l.x} FROM l AS l JOIN m AS m ON l.x = m.y JOIN s AS s ON m.y = s.j`,
		// Local filters the statistics can price.
		`SELECT VALUE {'x': l.x} FROM l AS l, s AS s WHERE l.x = s.j AND l.grp = 1`,
		`SELECT VALUE l.x FROM l AS l WHERE l.x >= 100 AND l.x < 140`,
		// Aggregation and DISTINCT over a reordered join.
		`SELECT s.j AS j, COUNT(*) AS n FROM l AS l, m AS m, s AS s WHERE l.x = s.j AND m.y = s.j GROUP BY s.j`,
		`SELECT DISTINCT m.grp AS g FROM m AS m, s AS s WHERE m.y = s.j`,
		// ORDER BY + LIMIT exercises errStop through the reorder buffer.
		`SELECT VALUE l.x FROM l AS l, s AS s WHERE l.x = s.j ORDER BY l.x DESC LIMIT 3`,
	}
	p, err := cost.Prepare(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(p.PlanNotes(), "join-order(s,") {
		t.Fatalf("worst-first join is not reordered at this scale: %v", p.PlanNotes())
	}
	for _, q := range queries {
		want := outcome(oracle.Query(q))
		if got := outcome(cost.Query(q)); got != want {
			t.Fatalf("%q diverges:\n  oracle     %s\n  cost-based %s", q, want, got)
		}
	}
}

// TestPlannerNotesSurfaceDecisions: every cost-based decision must be
// visible in PlanNotes.
func TestPlannerNotesSurfaceDecisions(t *testing.T) {
	_, cost := planqEngines(t, 1, 3000)
	q := `SELECT VALUE {'x': l.x} FROM l AS l, m AS m, s AS s WHERE l.x = s.j AND m.y = s.j`

	cp, err := cost.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	notes := cp.PlanNotes()
	if !hasNote(notes, "join-order(s,") {
		t.Errorf("cost-based plan does not reorder smallest-first: %v", notes)
	}
	if !hasNote(notes, "est-rows(") {
		t.Errorf("cost-based plan carries no cardinality estimates: %v", notes)
	}
	if !hasNote(notes, "build-side(") {
		t.Errorf("cost-based plan does not report its build sides: %v", notes)
	}
}

// TestPlannerIndexVeto: statistics must veto an index probe that would
// select most of a large collection, keep one that stays selective, and
// never change results either way.
func TestPlannerIndexVeto(t *testing.T) {
	oracle, cost := planqEngines(t, 1, 3000)
	if err := cost.CreateIndex("ixg", "l", "grp", "hash"); err != nil {
		t.Fatal(err)
	}
	if err := cost.CreateIndex("ixx", "l", "x", "hash"); err != nil {
		t.Fatal(err)
	}
	wide := `SELECT VALUE l.pad FROM l AS l WHERE l.grp = 1`
	narrow := `SELECT VALUE l.pad FROM l AS l WHERE l.x = 7`

	cp, err := cost.Prepare(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(cp.PlanNotes(), "index-skip(ixg") {
		t.Errorf("half-selective probe not vetoed: %v", cp.PlanNotes())
	}
	np, err := cost.Prepare(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(np.PlanNotes(), "index-eq(ixx") || !hasNote(np.PlanNotes(), "index-est(ixx") {
		t.Errorf("selective probe lost its index or estimate: %v", np.PlanNotes())
	}
	for _, q := range []string{wide, narrow} {
		want := outcome(oracle.Query(q))
		if got := outcome(cost.Query(q)); got != want || strings.HasPrefix(got, "error") {
			t.Fatalf("%q diverges under index veto:\n  oracle     %s\n  cost-based %s", q, want, got)
		}
	}
}

// TestPlannerUniqueKeyEstimate: a probe of a unique key returns one row,
// and its estimate must say so. An id the statistics did not sample has
// an equality fraction a little under 1/rows; the estimate rounds it to
// the nearest row instead of truncating it to none.
func TestPlannerUniqueKeyEstimate(t *testing.T) {
	_, cost := planqEngines(t, 1, 2000)
	if err := cost.CreateIndex("ixx", "l", "x", "hash"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 17, 999, 1999} {
		p, err := cost.Prepare(fmt.Sprintf(`SELECT VALUE l.pad FROM l AS l WHERE l.x = %d`, id))
		if err != nil {
			t.Fatal(err)
		}
		if !hasNote(p.PlanNotes(), "index-est(ixx rows=1)") {
			t.Errorf("id %d: unique-key probe estimate: %v", id, p.PlanNotes())
		}
		_, st, err := p.ExplainAnalyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tree := st.Render(true)
		if _, probe, _ := strings.Cut(tree, "index_probe(ixx)"); !strings.HasPrefix(probe, " in=1 out=1 est_rows=1 ") {
			t.Errorf("id %d: EXPLAIN ANALYZE probe lacks est_rows=1:\n%s", id, tree)
		}
	}
}

// TestPlannerParallelSizing: row estimates size parallel chunks (and the
// note says so); results stay identical to the oracle's.
func TestPlannerParallelSizing(t *testing.T) {
	oracle, cost := planqEngines(t, 4, 3000)
	q := `SELECT VALUE l.x FROM l AS l WHERE l.grp = 1`
	cp, err := cost.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(cp.PlanNotes(), "parallel-scan(est=3000 chunk=750)") {
		t.Errorf("parallel sizing note missing: %v", cp.PlanNotes())
	}
	want := outcome(oracle.Query(q))
	if got := outcome(cost.Query(q)); got != want || strings.HasPrefix(got, "error") {
		t.Fatalf("parallel results diverge:\n  oracle     %s\n  cost-based %s", want, got)
	}
}

// TestPlannerEstRowsInExplain: EXPLAIN ANALYZE on a reordered plan must
// surface est_rows counters beside the actual in/out counts, under a
// join-order group node, through the one shared executor.
func TestPlannerEstRowsInExplain(t *testing.T) {
	_, cost := planqEngines(t, 1, 3000)
	q := `SELECT VALUE {'x': l.x} FROM l AS l, m AS m, s AS s WHERE l.x = s.j AND m.y = s.j`
	p, err := cost.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tree := st.Render(true)
	for _, want := range []string{"join-order", "est_rows="} {
		if !strings.Contains(tree, want) {
			t.Errorf("EXPLAIN ANALYZE tree lacks %q:\n%s", want, tree)
		}
	}
	if n := len(res.(value.Bag)); n != 10 {
		t.Errorf("adversarial join returned %d rows, want 10", n)
	}
}
