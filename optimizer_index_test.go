package sqlpp_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/value"
)

// indexedEngine is a small fixture with heterogeneous, partly-absent
// key attributes so indexed and scanned semantics can diverge if the
// index mishandles MISSING/NULL or mixed types.
func indexedEngine(t testing.TB) *sqlpp.Engine {
	t.Helper()
	db := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	if err := db.RegisterSION("emp", `{{
	  {'id': 1, 'deptno': 1, 'name': 'alice'},
	  {'id': 2, 'deptno': 2, 'name': 'bob'},
	  {'id': 2.0, 'deptno': 1, 'name': 'bea'},
	  {'id': 'x', 'deptno': 2, 'name': 'carl'},
	  {'id': null, 'deptno': 1, 'name': 'dora'},
	  {'deptno': 2, 'name': 'evan'},
	  {'id': 4, 'name': 'fred'}
	}}`); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterSION("dept", `{{
	  {'dno': 1, 'dn': 'eng'},
	  {'dno': 2, 'dn': 'ops'},
	  {'dno': 3, 'dn': 'idle'}
	}}`); err != nil {
		t.Fatal(err)
	}
	return db
}

func findOp(st *sqlpp.OpStats, op string) *sqlpp.OpStats {
	if st == nil {
		return nil
	}
	if st.Op == op {
		return st
	}
	for _, c := range st.Children {
		if hit := findOp(c, op); hit != nil {
			return hit
		}
	}
	return nil
}

func notesContain(notes []string, substr string) bool {
	for _, n := range notes {
		if strings.Contains(n, substr) {
			return true
		}
	}
	return false
}

// queriesIdentical runs query on both engines and requires the exact
// same rendering (the engine's canonical form) or the exact same error.
func queriesIdentical(t *testing.T, a, b *sqlpp.Engine, query string) {
	t.Helper()
	va, erra := a.Query(query)
	vb, errb := b.Query(query)
	if (erra == nil) != (errb == nil) {
		t.Fatalf("error divergence on %q: %v vs %v", query, erra, errb)
	}
	if erra != nil {
		if erra.Error() != errb.Error() {
			t.Fatalf("error text divergence on %q:\n  a: %v\n  b: %v", query, erra, errb)
		}
		return
	}
	if va.String() != vb.String() {
		t.Fatalf("result divergence on %q:\n  a: %s\n  b: %s", query, va, vb)
	}
}

// TestIndexAccessPathSelection: the optimizer rewrites matching WHERE
// conjuncts to index access and says so in the plan notes, choosing
// hash for equality and ordered for ranges.
func TestIndexAccessPathSelection(t *testing.T) {
	db := indexedEngine(t)
	if err := db.CreateIndex("ix_id_h", "emp", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("ix_id_o", "emp", "id", "ordered"); err != nil {
		t.Fatal(err)
	}

	eq, err := db.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !notesContain(eq.PlanNotes(), "index-eq(ix_id_h)") {
		t.Errorf("equality plan prefers %v, want index-eq(ix_id_h)", eq.PlanNotes())
	}

	rng, err := db.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.id >= 1 AND e.id < 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !notesContain(rng.PlanNotes(), "index-range(ix_id_o)") {
		t.Errorf("range plan has %v, want index-range(ix_id_o)", rng.PlanNotes())
	}

	btw, err := db.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.id BETWEEN 1 AND 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !notesContain(btw.PlanNotes(), "index-range(ix_id_o)") {
		t.Errorf("BETWEEN plan has %v, want index-range(ix_id_o)", btw.PlanNotes())
	}

	// No index on deptno: no index note.
	none, err := db.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.deptno = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if notesContain(none.PlanNotes(), "index-") {
		t.Errorf("unindexed path still chose an index: %v", none.PlanNotes())
	}

	// Strict mode disables index access: permissive re-verification is
	// what licenses the rewrite.
	sdb := sqlpp.New(&sqlpp.Options{Parallelism: 1, StopOnError: true})
	if err := sdb.RegisterSION("emp", `{{ {'id': 1, 'name': 'a'}, {'id': 2, 'name': 'b'} }}`); err != nil {
		t.Fatal(err)
	}
	if err := sdb.CreateIndex("ix", "emp", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	strict, err := sdb.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if notesContain(strict.PlanNotes(), "index-") {
		t.Errorf("strict-mode plan chose an index: %v", strict.PlanNotes())
	}
}

// TestExplainAnalyzeIndexOperators: EXPLAIN ANALYZE grows index_probe
// and index_range operator blocks with probe/hit counters that match
// the data.
func TestExplainAnalyzeIndexOperators(t *testing.T) {
	db := indexedEngine(t)
	if err := db.CreateIndex("ix", "emp", "id", "ordered"); err != nil {
		t.Fatal(err)
	}

	p, err := db.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != `{{'bob', 'bea'}}` {
		t.Fatalf("indexed equality result = %s", got)
	}
	probe := findOp(st, "index_probe")
	if probe == nil {
		t.Fatalf("no index_probe operator in stats:\n%s", st.Render(false))
	}
	if probe.Label != "ix" {
		t.Errorf("index_probe label = %q, want ix", probe.Label)
	}
	// 2 and 2.0 are grouping-equal: one probe, two candidate hits, both
	// re-verified into the output.
	if probe.Counters["probes"] != 1 || probe.Counters["hits"] != 2 {
		t.Errorf("index_probe counters = %v, want probes=1 hits=2", probe.Counters)
	}
	if probe.RowsOut != 2 {
		t.Errorf("index_probe rows_out = %d, want 2", probe.RowsOut)
	}

	r, err := db.Prepare(`SELECT VALUE e.name FROM emp AS e WHERE e.id >= 1 AND e.id < 4`)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err = r.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != `{{'alice', 'bob', 'bea'}}` {
		t.Fatalf("indexed range result = %s", got)
	}
	rngOp := findOp(st, "index_range")
	if rngOp == nil {
		t.Fatalf("no index_range operator in stats:\n%s", st.Render(false))
	}
	// Candidates 1, 2, 2.0 — the string 'x', the null, and the missing
	// ids never enter the class-restricted range.
	if rngOp.Counters["probes"] != 1 || rngOp.Counters["hits"] != 3 {
		t.Errorf("index_range counters = %v, want probes=1 hits=3", rngOp.Counters)
	}
}

// TestIndexProbesExamineATenthOfScan is the index win in counters, not
// nanoseconds: at 100k rows the equality and range probes answer like
// the full scan while taking in at most a tenth of the rows it does.
func TestIndexProbesExamineATenthOfScan(t *testing.T) {
	const rows = 100000
	shape := value.ShapeOf("id", "grp", "pad")
	data := make(value.Bag, 0, rows)
	for i := 0; i < rows; i++ {
		data = append(data, shape.New([]value.Value{
			value.Int(int64(i)), value.Int(int64(i % 100)), value.String(fmt.Sprintf("row-%08d", i)),
		}))
	}
	scanDB := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	idxDB := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	for _, db := range []*sqlpp.Engine{scanDB, idxDB} {
		if err := db.Register("rows", data); err != nil {
			t.Fatal(err)
		}
	}
	if err := idxDB.CreateIndex("ix_eq", "rows", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	if err := idxDB.CreateIndex("ix_rng", "rows", "id", "ordered"); err != nil {
		t.Fatal(err)
	}
	explain := func(db *sqlpp.Engine, query string) (value.Value, *sqlpp.OpStats) {
		t.Helper()
		p, err := db.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := p.ExplainAnalyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	lo := rows / 2
	for _, tc := range []struct{ query, op string }{
		{fmt.Sprintf(`SELECT VALUE r.pad FROM rows AS r WHERE r.id = %d`, lo), "index_probe"},
		{fmt.Sprintf(`SELECT VALUE r.pad FROM rows AS r WHERE r.id >= %d AND r.id < %d`, lo, lo+100), "index_range"},
	} {
		scanRes, scanSt := explain(scanDB, tc.query)
		idxRes, idxSt := explain(idxDB, tc.query)
		if scanRes.String() != idxRes.String() {
			t.Fatalf("%s: indexed result differs from the scan's", tc.op)
		}
		scan, probe := findOp(scanSt, "scan"), findOp(idxSt, tc.op)
		if scan == nil || scan.RowsIn != rows {
			t.Fatalf("%s: the unindexed plan is not a full scan:\n%s", tc.op, scanSt.Render(true))
		}
		if probe == nil {
			t.Fatalf("no %s operator in stats:\n%s", tc.op, idxSt.Render(true))
		}
		if took := max(probe.RowsIn, probe.Counters["hits"]); took*10 > scan.RowsIn {
			t.Errorf("%s took in %d rows, over a tenth of the scan's %d", tc.op, took, scan.RowsIn)
		}
	}
}

// TestIndexJoinByteIdentity: an index on the join key turns the hash
// build side into index probes; results must not move.
func TestIndexJoinByteIdentity(t *testing.T) {
	query := `SELECT e.name AS name, d.dn AS dn
	          FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`
	left := `SELECT e.name AS name, d.dn AS dn
	         FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno`

	plain := indexedEngine(t)
	indexed := indexedEngine(t)
	if err := indexed.CreateIndex("ix_dno", "dept", "dno", "hash"); err != nil {
		t.Fatal(err)
	}

	p, err := indexed.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if !notesContain(p.PlanNotes(), "index-join(ix_dno)") {
		t.Fatalf("join plan has %v, want index-join(ix_dno)", p.PlanNotes())
	}
	queriesIdentical(t, plain, indexed, query)
	queriesIdentical(t, plain, indexed, left)

	_, st, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j := findOp(st, "index_join")
	if j == nil {
		t.Fatalf("no index_join operator in stats:\n%s", st.Render(false))
	}
	if j.Counters["probes"] == 0 || j.Counters["hits"] == 0 {
		t.Errorf("index_join counters = %v, want non-zero probes and hits", j.Counters)
	}
}

// TestIndexFallbackAfterDrop: plans prepared against an index keep
// answering identically when the index disappears — the runtime falls
// back to the scan it re-verifies against anyway.
func TestIndexFallbackAfterDrop(t *testing.T) {
	db := indexedEngine(t)
	query := `SELECT VALUE e.name FROM emp AS e WHERE e.id = 2`
	baseline, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	if err := db.CreateIndex("ix", "emp", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if !notesContain(p.PlanNotes(), "index-eq(ix)") {
		t.Fatalf("plan has %v, want index-eq(ix)", p.PlanNotes())
	}
	indexed, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if indexed.String() != baseline.String() {
		t.Fatalf("indexed result diverges: %s vs %s", indexed, baseline)
	}

	// Drop out from under the prepared plan; a fresh physState resolves
	// the index lazily, misses, and scans.
	if !db.DropIndex("ix") {
		t.Fatal("DropIndex failed")
	}
	after, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if after.String() != baseline.String() {
		t.Fatalf("post-drop result diverges: %s vs %s", after, baseline)
	}
}

// TestIndexSurvivesAppend: incremental ingest extends the index and
// indexed queries immediately see the new rows, identically to scans.
func TestIndexSurvivesAppend(t *testing.T) {
	plain := indexedEngine(t)
	indexed := indexedEngine(t)
	if err := indexed.CreateIndex("ix_eq", "emp", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	if err := indexed.CreateIndex("ix_rng", "emp", "id", "ordered"); err != nil {
		t.Fatal(err)
	}

	batch := `{{ {'id': 2, 'name': 'gina'}, {'id': 9, 'deptno': 1, 'name': 'hugo'}, {'name': 'ida'} }}`
	if err := plain.AppendSION("emp", batch); err != nil {
		t.Fatal(err)
	}
	if err := indexed.AppendSION("emp", batch); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = 2`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = 9`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id >= 2 AND e.id <= 9`,
		`SELECT VALUE e FROM emp AS e WHERE e.id = 'x'`,
	} {
		queriesIdentical(t, plain, indexed, q)
	}

	// The extension is visible through the index itself, not a rebuild
	// side effect: entry counts grew.
	for _, info := range indexed.Indexes() {
		if info.Entries != 10 {
			t.Errorf("index %s covers %d entries after append, want 10", info.Name, info.Entries)
		}
	}
}

// TestIndexedIdentityOnAbsentAndMixedKeys: the predicates the paper's
// permissive semantics make tricky — MISSING keys, NULL keys, and
// mixed-type comparisons — return identical results with and without
// indexes.
func TestIndexedIdentityOnAbsentAndMixedKeys(t *testing.T) {
	plain := indexedEngine(t)
	indexed := indexedEngine(t)
	for _, spec := range [][3]string{
		{"ih", "id", "hash"},
		{"io", "id", "ordered"},
		{"dh", "deptno", "hash"},
		{"do", "deptno", "ordered"},
	} {
		if err := indexed.CreateIndex(spec[0], "emp", spec[1], spec[2]); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = 2`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = 'x'`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = null`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = missing`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id > 0`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id >= 'a' AND e.id <= 'z'`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id BETWEEN 1 AND 4`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.deptno = 1 AND e.id = 2`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.deptno >= 1 AND e.deptno < 2 AND e.id > 1`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.id = 1 + 1`,
	}
	for _, q := range queries {
		queriesIdentical(t, plain, indexed, q)
	}
}

// TestIndexInfoSurface: the library-level Indexes() report matches the
// built structures.
func TestIndexInfoSurface(t *testing.T) {
	db := indexedEngine(t)
	if err := db.CreateIndex("ix", "emp", "id", "ordered"); err != nil {
		t.Fatal(err)
	}
	infos := db.Indexes()
	if len(infos) != 1 {
		t.Fatalf("Indexes() = %d entries, want 1", len(infos))
	}
	got := infos[0]
	want := sqlpp.IndexInfo{Name: "ix", Collection: "emp", Path: "id", Kind: "ordered",
		Entries: 7, Keys: 4, Missing: 1, Null: 1}
	if got != want {
		t.Errorf("IndexInfo = %+v, want %+v", got, want)
	}
	if db.IndexEpoch() == 0 {
		t.Error("IndexEpoch still zero after registrations and DDL")
	}
	if err := db.CreateIndex("ix2", "emp", "id.0.bad..path", "hash"); err == nil {
		t.Error("CreateIndex with empty path step accepted")
	}
	if err := db.CreateIndex("ix3", "emp", "id", "btree"); err == nil {
		t.Error("CreateIndex with unknown kind accepted")
	}
}

// TestIndexScanUnderGovernor: probe charging shows up as a typed
// resource error when the budget is tiny, and the same query passes
// under a sane budget with identical results to the scan.
func TestIndexScanUnderGovernor(t *testing.T) {
	mk := func(lim sqlpp.Limits, withIndex bool) *sqlpp.Engine {
		db := sqlpp.New(&sqlpp.Options{Parallelism: 1, Limits: lim})
		var sb strings.Builder
		sb.WriteString("{{")
		for i := 0; i < 500; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "{'id': %d}", i%50)
		}
		sb.WriteString("}}")
		if err := db.RegisterSION("rows", sb.String()); err != nil {
			t.Fatal(err)
		}
		if withIndex {
			if err := db.CreateIndex("ix", "rows", "id", "ordered"); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	// A budget the 500-element build fits under (it charges 500) but the
	// correlated probe join does not: every outer row's probe charges its
	// candidates, so the join accumulates 500×10 probe charges and trips.
	tight := mk(sqlpp.Limits{MaxMaterializedValues: 520}, true)
	_, err := tight.Query(`SELECT VALUE [a.id, b.id] FROM rows AS a, rows AS b WHERE b.id = a.id AND a.id < 5`)
	var re *sqlpp.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want ResourceError from governed index probe, got %v", err)
	}
	if !strings.Contains(err.Error(), "index-probe") {
		t.Errorf("resource error not attributed to the probe site: %v", err)
	}

	// Sane budget: identical to the scan.
	lim := sqlpp.Limits{MaxMaterializedValues: 100000}
	queriesIdentical(t, mk(lim, false), mk(lim, true),
		`SELECT VALUE r.id FROM rows AS r WHERE r.id >= 10 AND r.id < 13`)
}
