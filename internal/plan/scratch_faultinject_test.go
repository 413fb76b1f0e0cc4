//go:build faultinject

package plan

import (
	"errors"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// TestFailedWorkerDropsScratch: when a parallel-scan worker fails, by an
// error or a panic, the scan drops every worker's scratch, the other
// workers' rows included, so nothing the pool hands out later holds a
// value.
func TestFailedWorkerDropsScratch(t *testing.T) {
	lowerParallelThreshold(t, 64)
	drainScratch()
	rows := make(value.Bag, 4000)
	for i := range rows {
		rows[i] = value.NewTuple(value.Field{Name: "id", Value: value.Int(int64(i))})
	}
	cat := catalog.New()
	if err := cat.Register("t", rows); err != nil {
		t.Fatal(err)
	}
	core, notes := prepareOptimized(t, cat, `SELECT VALUE x FROM t AS x WHERE x.id % 2 = 0`, eval.Permissive)
	if !hasNote(notes, "parallel-scan") {
		t.Fatalf("outer scan not partitioned: %v", notes)
	}
	defer faultinject.Reset()
	for _, action := range []faultinject.Action{{Err: faultinject.ErrInjected}, {Panic: "worker"}} {
		for after := range uint64(4) {
			faultinject.Reset()
			// The after+1-th worker to start fails; the others scan their
			// chunks.
			faultinject.Set(faultinject.WorkerStart, after, 1, 1, action)
			ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run, Parallelism: 4}
			_, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
			var pe *eval.PanicError
			if action.Panic != "" && !errors.As(err, &pe) || action.Panic == "" && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("worker %d failing with %+v: got %v", after+1, action, err)
			}
		}
	}
	faultinject.Reset()
	pooledScratchClean(t, 16)
}
