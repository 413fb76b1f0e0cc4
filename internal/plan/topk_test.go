package plan

import (
	"fmt"
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// topkData: 200 rows, sort keys deliberately full of ties (k = id % 10)
// so the bounded heap's tie-breaking is observable against the stable
// full sort.
func topkData() map[string]string {
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'id': %d, 'k': %d}", i+1, i%10)
	}
	// A NULL and a MISSING sort key exercise the absent-ordering arms.
	sb.WriteString(",{'id': 201, 'k': null},{'id': 202}")
	sb.WriteString("}}")
	return map[string]string{"t": sb.String()}
}

// TestTopKMatchesFullSort checks the bounded-heap path (ORDER BY with
// LIMIT) against the full stable sort sliced by hand: identical rows in
// identical order, ties resolved by arrival order in both.
func TestTopKMatchesFullSort(t *testing.T) {
	data := topkData()
	orders := []string{
		`ORDER BY r.k`,
		`ORDER BY r.k DESC`,
		`ORDER BY r.k NULLS FIRST`,
		`ORDER BY r.k DESC, r.id DESC`,
	}
	limits := []struct{ limit, offset int }{
		{1, 0}, {7, 0}, {7, 3}, {25, 190}, {500, 0}, {0, 0}, {3, 500},
	}
	for _, ord := range orders {
		full, err := exec(t, data, `SELECT VALUE r.id FROM t AS r `+ord, false, false)
		if err != nil {
			t.Fatal(err)
		}
		all, ok := full.(value.Array)
		if !ok {
			t.Fatalf("ordered query should yield an array, got %T", full)
		}
		for _, lo := range limits {
			q := fmt.Sprintf(`SELECT VALUE r.id FROM t AS r %s LIMIT %d OFFSET %d`,
				ord, lo.limit, lo.offset)
			got, err := exec(t, data, q, false, false)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			start := lo.offset
			if start > len(all) {
				start = len(all)
			}
			end := start + lo.limit
			if end > len(all) {
				end = len(all)
			}
			want := value.Array(all[start:end])
			if got.String() != want.String() {
				t.Errorf("%s:\n  got  %s\n  want %s", q, got, want)
			}
		}
	}
}

// TestTopKOffsetOnly: OFFSET without LIMIT cannot bound the heap and
// must still slice the full ordering correctly.
func TestTopKOffsetOnly(t *testing.T) {
	data := topkData()
	full, err := exec(t, data, `SELECT VALUE r.id FROM t AS r ORDER BY r.k, r.id`, false, false)
	if err != nil {
		t.Fatal(err)
	}
	all := full.(value.Array)
	got, err := exec(t, data, `SELECT VALUE r.id FROM t AS r ORDER BY r.k, r.id OFFSET 195`, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := value.Array(all[195:])
	if got.String() != want.String() {
		t.Errorf("OFFSET without LIMIT:\n  got  %s\n  want %s", got, want)
	}
}

// TestTopKProjectsOnlyAdmittedRows: under permissive typing ORDER BY …
// LIMIT k evaluates the sort keys of every row but SELECT VALUE only for a
// row that enters the heap, so the block allocates O(k log n) objects, not
// O(n). The tuple constructor in the projection is what a regression would
// bring back: one tuple and one key slice per scanned row (≈ 2.8 objects).
func TestTopKProjectsOnlyAdmittedRows(t *testing.T) {
	const n, k = 10000, 10
	rows := make(value.Bag, n)
	for i := range rows {
		rows[i] = value.NewTuple(
			value.Field{Name: "id", Value: value.Int(int64(i))},
			// 7919 is coprime to n: the keys are a permutation, in an order
			// that keeps evicting.
			value.Field{Name: "k", Value: value.Int(int64(i*7919) % n)},
		)
	}
	cat := catalog.New()
	if err := cat.Register("t", rows); err != nil {
		t.Fatal(err)
	}
	core, _ := prepareOptimized(t, cat,
		fmt.Sprintf(`SELECT r.id AS id, r.k AS k FROM t AS r WHERE r.k >= 0 ORDER BY r.k DESC, r.id LIMIT %d`, k), eval.Permissive)
	run := func() value.Value {
		v, err := Run(&eval.Context{Names: cat, Funcs: registry, Run: Run}, eval.NewEnv(), core.(*ast.SFW))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got, want := run().String(), `[{'id': 2321, 'k': 9999}, {'id': 4642, 'k': 9998}, {'id': 6963, 'k': 9997}`; !strings.HasPrefix(got, want) {
		t.Fatalf("result %s does not start with %s", got, want)
	}
	allocs := testing.AllocsPerRun(5, func() { run() })
	// ≈ k·ln(n/k) ≈ 70 rows enter the heap at 3 objects each (tuple,
	// attribute slice, boxed row for heap.Push or reused keys), plus the
	// block's fixed set-up: a few hundred objects, against 28,000.
	if limit := float64(n) / 20; allocs > limit {
		t.Errorf("ORDER BY … LIMIT %d over %d rows allocated %.0f objects, want at most %.0f (O(k), not O(n))", k, n, allocs, limit)
	}
}

// TestTopKStrictProjectsEveryRow: under stop-on-error typing a type fault
// in the projection of a row that would never make the top k must still
// fail the query, so projection is not deferred there.
func TestTopKStrictProjectsEveryRow(t *testing.T) {
	data := map[string]string{"t": `{{ {'id': 1, 'k': 9, 'x': 1}, {'id': 2, 'k': 8, 'x': 2}, {'id': 3, 'k': 1, 'x': 'oops'} }}`}
	const query = `SELECT VALUE r.x + 1 FROM t AS r ORDER BY r.k DESC LIMIT 2`
	cat := catalog.New()
	if err := cat.Register("t", sion.MustParse(data["t"])); err != nil {
		t.Fatal(err)
	}
	for _, planned := range []bool{false, true} {
		strict := func() (value.Value, error) { return exec(t, data, query, false, true) }
		permissive := func() (value.Value, error) { return exec(t, data, query, false, false) }
		if planned {
			strict = func() (value.Value, error) {
				core, _ := prepareOptimized(t, cat, query, eval.StopOnError)
				return Run(&eval.Context{Mode: eval.StopOnError, Names: cat, Funcs: registry, Run: Run}, eval.NewEnv(), core.(*ast.SFW))
			}
			permissive = func() (value.Value, error) {
				core, _ := prepareOptimized(t, cat, query, eval.Permissive)
				return Run(&eval.Context{Names: cat, Funcs: registry, Run: Run}, eval.NewEnv(), core.(*ast.SFW))
			}
		}
		if v, err := strict(); err == nil {
			t.Errorf("planned=%v: strict mode returned %s; the fault in the discarded row must fail the query", planned, v)
		}
		// Permissive typing turns the same fault into MISSING, in a row the
		// result does not contain either way.
		v, err := permissive()
		if err != nil || v.String() != "[2, 3]" {
			t.Errorf("planned=%v: permissive mode returned (%v, %v), want [2, 3]", planned, v, err)
		}
	}
}
