package plan

import (
	"math"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// listing10Rows builds n employees shaped like Listing 10's hr data: an id
// and a projects array, of which every other project matches '%Security%'.
func listing10Rows(n int) value.Bag {
	rows := make(value.Bag, n)
	projects := value.Array{value.String("OLAP Security"), value.String("Q3 Plan"), value.String("OLTP Security")}
	for i := range rows {
		rows[i] = value.NewTuple(
			value.Field{Name: "id", Value: value.Int(int64(i))},
			value.Field{Name: "projects", Value: projects[:i%len(projects)+1]},
		)
	}
	return rows
}

// TestSubBlockAllocatesOnlyItsAnswer: Listing 10's correlated SELECT VALUE
// runs once per outer row. The block's pipeline is built once and its run
// state reused, so an invocation allocates only the bag it answers; with
// the outer row's tuple that is at most 4 objects per additional row.
func TestSubBlockAllocatesOnlyItsAnswer(t *testing.T) {
	const query = `SELECT e.id AS id, (SELECT VALUE p FROM e.projects AS p WHERE p LIKE '%Security%') AS sec FROM emp AS e`
	allocs := func(n int) float64 {
		cat := catalog.New()
		if err := cat.Register("emp", listing10Rows(n)); err != nil {
			t.Fatal(err)
		}
		core, notes := prepareOptimized(t, cat, query, eval.Permissive)
		if !hasNote(notes, "compiled") {
			t.Fatalf("block not planned: %v", notes)
		}
		run := func() value.Value {
			v, err := Run(&eval.Context{Names: cat, Funcs: registry, Run: Run, Parallelism: 1}, eval.NewEnv(), core.(*ast.SFW))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		got := run().(value.Bag)
		if len(got) != n {
			t.Fatalf("%d rows, want %d", len(got), n)
		}
		if sec, _ := got[1].(*value.Tuple).Get("sec"); sec.String() != "{{'OLAP Security'}}" {
			t.Fatalf("row 1 answers %s", sec)
		}
		return testing.AllocsPerRun(3, func() { run() })
	}
	small, large := allocs(1000), allocs(10000)
	// The outer result's own slice doubles a few times between the two
	// sizes, well under 0.01 of an allocation per row: count to hundredths.
	perRow := math.Round((large-small)/9000*100) / 100
	t.Logf("%.0f allocations over 1000 rows, %.0f over 10000: %.2f per additional row", small, large, perRow)
	if perRow > 4 {
		t.Errorf("%.2f allocations per additional outer row, want at most 4 (the row's tuple and the sub-block's answer)", perRow)
	}
}
