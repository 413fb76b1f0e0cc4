package plan

import (
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// scratchRun registers t as rows tuples {a, b, id} — a cycling over 7
// values, b over 13 — prepares query over it, and returns one execution
// at parallelism par, which checks that the answer has want rows.
func scratchRun(t *testing.T, rows int, query string, par, want int) func() value.Value {
	t.Helper()
	elems := make(value.Bag, rows)
	for i := range elems {
		elems[i] = value.NewTuple(
			value.Field{Name: "a", Value: value.Int(int64(i % 7))},
			value.Field{Name: "b", Value: value.Int(int64(i % 13))},
			value.Field{Name: "id", Value: value.Int(int64(i))})
	}
	cat := catalog.New()
	if err := cat.Register("t", elems); err != nil {
		t.Fatal(err)
	}
	core, notes := prepareOptimized(t, cat, query, eval.Permissive)
	if par > 1 && !hasNote(notes, "parallel-scan") {
		t.Fatalf("%s: outer scan not partitioned: %v", query, notes)
	}
	return func() value.Value {
		ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run, Parallelism: par}
		v, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
		if err != nil {
			t.Fatal(err)
		}
		if out, _ := value.Elements(v); len(out) != want {
			t.Fatalf("%s: %d rows, want %d", query, len(out), want)
		}
		return v
	}
}

// drainScratch empties the pool, so that scratch other tests left,
// sized for their answers, does not grow inside a measured execution.
func drainScratch() {
	for range 64 {
		rowScratches.Get()
	}
}

// valueBytes is the size of one row of an answer's slice, a value.Value.
const valueBytes = 16

// TestParallelScanRecyclesWorkerRows: the workers of a parallel scan
// collect their rows in pooled scratch, which the merge into the exact-size
// answer empties and returns, so an execution allocates little beyond
// its answer: about the answer's bytes plus the workers' run states, where
// each worker growing a fresh buffer by append costs about four times the
// answer.
func TestParallelScanRecyclesWorkerRows(t *testing.T) {
	if raceBuild {
		t.Skip("the byte bound is set without the race detector")
	}
	const rows, kept = 20000, 2858 // a = 0: every seventh row
	run := scratchRun(t, rows, `SELECT VALUE x FROM t AS x WHERE x.a = 0`, 2, kept)
	drainScratch()
	got := execBytes(func() { run() })
	answer := float64(kept * valueBytes)
	t.Logf("%.0f bytes per execution for a %.0f-byte answer", got, answer)
	if bound := 1.3*answer + 16<<10; got > bound {
		t.Errorf("a parallel scan keeping %d rows allocates %.0f bytes, want <= %.0f", kept, got, bound)
	}
}

// TestFullSortRecyclesOrderBuffers: a full-sort ORDER BY buffers its
// rows, their sort keys and the sort permutation in pooled scratch and
// copies the sorted rows into the exact-size answer array, so an
// execution allocates about that array.
func TestFullSortRecyclesOrderBuffers(t *testing.T) {
	if raceBuild {
		t.Skip("the byte bound is set without the race detector")
	}
	const rows = 2000
	run := scratchRun(t, rows, `SELECT VALUE x FROM t AS x ORDER BY x.a, x.b`, 1, rows)
	drainScratch()
	got := execBytes(func() { run() })
	answer := float64(rows * valueBytes)
	t.Logf("%.0f bytes per execution for a %.0f-byte answer", got, answer)
	if bound := 1.3*answer + 8<<10; got > bound {
		t.Errorf("a %d-row ORDER BY allocates %.0f bytes, want <= %.0f", rows, got, bound)
	}
}

// pooledScratchClean takes scratch from the pool until it has seen n and
// fails t if any holds a value anywhere up to its capacity.
func pooledScratchClean(t *testing.T, n int) {
	t.Helper()
	taken := make([]*rowScratch, n)
	for i := range taken {
		sc := rowScratches.Get().(*rowScratch)
		taken[i] = sc
		for _, buf := range [][]value.Value{sc.vals, sc.keys} {
			for j, v := range buf[:cap(buf)] {
				if v != nil {
					t.Fatalf("pooled scratch holds %s at %d of %d", v, j, cap(buf))
				}
			}
		}
		if len(sc.vals)+len(sc.keys)+len(sc.perm) != 0 {
			t.Fatalf("pooled scratch is not empty: %d, %d, %d", len(sc.vals), len(sc.keys), len(sc.perm))
		}
	}
	for _, sc := range taken {
		rowScratches.Put(sc)
	}
}

// TestPooledScratchHoldsNoValue: after a parallel scan and a full sort,
// every scratch the pool hands out is empty and nil up to its capacity,
// so pooled buffers keep no answer's rows alive.
func TestPooledScratchHoldsNoValue(t *testing.T) {
	lowerParallelThreshold(t, 64)
	drainScratch()
	scratchRun(t, 3000, `SELECT VALUE x FROM t AS x WHERE x.b < 5`, 2, 1155)()
	scratchRun(t, 3000, `SELECT DISTINCT VALUE x.a FROM t AS x`, 2, 7)()
	scratchRun(t, 2000, `SELECT VALUE x FROM t AS x ORDER BY x.b, x.id`, 1, 2000)()
	pooledScratchClean(t, 16)
}
