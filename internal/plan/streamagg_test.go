package plan

import (
	"fmt"
	"runtime"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/index"
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
// key string — and a group costs its key values, its key encoding, a
// table slot, its accumulators and its output row, with nothing per
// group at flush. The bounds are deterministic (they count allocations
// and bytes at Parallelism 1, not time), so they can gate CI on any host.
func TestStreamAggAllocationGuard(t *testing.T) {
	const query = `SELECT r.k AS k, COUNT(*) AS c, SUM(r.x) AS s FROM t AS r GROUP BY r.k`
	perRow := testing.AllocsPerRun(5, streamAggRun(t, 10000, 40, query)) / 10000
	t.Logf("%.4f allocations per input row", perRow)
	if perRow > 0.1 {
		t.Errorf("streamed GROUP BY allocates %.3f times per input row, want <= 0.1", perRow)
	}

	if raceBuild {
		return // the byte bounds are set without the race detector
	}
	// 1,000 groups, sorted: about 394 bytes a group, output row
	// included; the bound leaves 10 % headroom.
	perGroup := execBytes(streamAggRun(t, 10000, 1000, query+` ORDER BY k`)) / 1000
	t.Logf("%.1f bytes per group", perGroup)
	if perGroup > 430 {
		t.Errorf("streamed GROUP BY allocates %.1f bytes per group, want <= 430", perGroup)
	}
	// One group, as the serving workloads' grouped queries have: no table
	// is sized ahead of its groups, so this costs no more than the
	// per-group entries did (2,504 bytes).
	one := execBytes(streamAggRun(t, 20, 1, query+` ORDER BY k`))
	t.Logf("%.0f bytes for one group", one)
	if one > 2504 {
		t.Errorf("a one-group streamed GROUP BY allocates %.0f bytes, want <= 2504", one)
	}
}

// streamAggRun registers t as rows tuples {k, x} whose k takes groups
// values in turn, prepares query over it, and returns a run of one
// execution that checks its group count.
func streamAggRun(t *testing.T, rows, groups int, query string) func() {
	t.Helper()
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
	core, notes := prepareOptimized(t, cat, query, eval.Permissive)
	if !hasNote(notes, "stream-agg(2)") {
		t.Fatalf("not streamed: %v", notes)
	}
	return func() {
		ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run}
		v, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
		if err != nil {
			t.Fatal(err)
		}
		if out, _ := value.Elements(v); len(out) != groups {
			t.Fatalf("%d groups, want %d", len(out), groups)
		}
	}
}

// execBytes returns the bytes one call of run allocates, averaged over
// 20 calls after a warm-up.
func execBytes(run func()) float64 {
	const runs = 20
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestHashProbeReusesCandidate: the hash probe, and the index join that
// probes an index on the build key in its place, rebind one candidate
// environment per probe site. Matches, non-matches and LEFT JOIN padding
// interleave here, so a binding left over from the previous probe would
// show up as a wrong row. Over an indexed r the LEFT JOIN runs as an
// index join and the comma join as an index probe of r; neither may
// allocate a candidate environment per left binding.
func TestHashProbeReusesCandidate(t *testing.T) {
	cases := []struct{ query, want string }{
		{`SELECT VALUE [x.id, y.v] FROM l AS x LEFT JOIN r AS y ON x.k = y.k`,
			`{{[1, 'a'], [1, 'c'], [2, null], [3, 'b'], [4, null], [5, 'a'], [5, 'c']}}`},
		{`SELECT VALUE [x.id, y.v] FROM l AS x, r AS y WHERE x.k = y.k`,
			`{{[1, 'a'], [1, 'c'], [3, 'b'], [5, 'a'], [5, 'c']}}`},
	}
	for _, indexed := range []bool{false, true} {
		cat := catalog.New()
		for name, src := range map[string]string{
			"l": `[{'id': 1, 'k': 1}, {'id': 2, 'k': 9}, {'id': 3, 'k': 2}, {'id': 4, 'k': null}, {'id': 5, 'k': 1}]`,
			"r": `[{'k': 1, 'v': 'a'}, {'k': 2, 'v': 'b'}, {'k': 1, 'v': 'c'}]`,
		} {
			if err := cat.Register(name, sion.MustParse(src)); err != nil {
				t.Fatal(err)
			}
		}
		o := OptOptions{Mode: eval.Permissive, Funcs: registry}
		wantNotes := []string{"hash-join(1)", "hash-join(1)"}
		if indexed {
			if err := cat.CreateIndex(index.Spec{Name: "rk", Collection: "r", Path: []string{"k"}, Kind: index.Hash}, nil); err != nil {
				t.Fatal(err)
			}
			o.Indexes = cat
			wantNotes = []string{"index-join(rk)", "index-eq(rk)"}
		}
		for ci, c := range cases {
			core, err := rewrite.Rewrite(parser.MustParse(c.query), rewrite.Options{Names: cat})
			if err != nil {
				t.Fatal(err)
			}
			notes := Optimize(core, o)
			if !hasNote(notes, wantNotes[ci]) || !core.(*ast.SFW).Phys.(*sfwPhys).reuseEnv {
				t.Fatalf("indexed=%v %s: want %s with row-environment reuse, got %v", indexed, c.query, wantNotes[ci], notes)
			}
			ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run}
			got, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != c.want {
				t.Errorf("indexed=%v %s:\n  got  %s\n  want %s", indexed, c.query, got, c.want)
			}
		}
	}
}

// TestIndexJoinAllocationGuard: a JOIN … ON whose left operand is a plain
// scan allocates nothing per left binding, as an index join and as a hash
// join. Over 2,000 left bindings (a match, a match and a non-match padded
// by the LEFT JOIN, in turn) the left operand rebinds one environment and
// every probe one candidate environment in place; a fresh environment
// per left binding, with its two binding slices, would cost three
// allocations each, and a fresh candidate per match and per pad three
// more.
func TestIndexJoinAllocationGuard(t *testing.T) {
	const left = 2000
	l := make(value.Array, left)
	for i := range l {
		l[i] = value.NewTuple(value.Field{Name: "id", Value: value.Int(int64(i))}, value.Field{Name: "k", Value: value.Int(int64(i % 3))})
	}
	for _, indexed := range []bool{true, false} {
		cat := catalog.New()
		if err := cat.Register("l", l); err != nil {
			t.Fatal(err)
		}
		if err := cat.Register("r", sion.MustParse(`[{'k': 1, 'v': 'a'}, {'k': 2, 'v': 'b'}]`)); err != nil {
			t.Fatal(err)
		}
		o, note := OptOptions{Mode: eval.Permissive, Funcs: registry}, "hash-join(1)"
		if indexed {
			if err := cat.CreateIndex(index.Spec{Name: "rk", Collection: "r", Path: []string{"k"}, Kind: index.Hash}, nil); err != nil {
				t.Fatal(err)
			}
			o.Indexes, note = cat, "index-join(rk)"
		}
		core, err := rewrite.Rewrite(parser.MustParse(`SELECT VALUE y.v FROM l AS x LEFT JOIN r AS y ON x.k = y.k`), rewrite.Options{Names: cat})
		if err != nil {
			t.Fatal(err)
		}
		if notes := Optimize(core, o); !hasNote(notes, note) {
			t.Fatalf("not %s: %v", note, notes)
		}
		run := func() {
			ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run}
			v, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
			if err != nil {
				t.Fatal(err)
			}
			if out, _ := value.Elements(v); len(out) != left {
				t.Fatalf("%d rows, want %d", len(out), left)
			}
		}
		perLeft := testing.AllocsPerRun(5, run) / left
		t.Logf("%s: %.3f allocations per left binding", note, perLeft)
		if perLeft > 0.5 {
			t.Errorf("%s allocates %.3f times per left binding, want <= 0.5", note, perLeft)
		}
	}
}
