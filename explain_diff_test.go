package sqlpp_test

// Differential property tests for the EXPLAIN ANALYZE layer: collecting
// per-operator statistics must be observationally inert. Every execution
// strategy — optimized sequential, optimized parallel, and instrumented —
// must render byte-identically to the naive sequential pipeline.

import (
	"context"
	"fmt"
	"testing"

	"sqlpp"
	"sqlpp/internal/compat"
)

// TestInstrumentationInertProperty runs the optimizer battery over
// several random datasets on four strategies and requires identical
// rendering: naive, optimized sequential, optimized parallel, and
// optimized parallel under EXPLAIN ANALYZE. It also checks the stats
// tree itself is well formed (a rooted tree with at least one operator
// that saw rows).
func TestInstrumentationInertProperty(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		naive := sqlpp.New(&sqlpp.Options{DisableOptimizer: true, Parallelism: 1})
		optSeq := sqlpp.New(&sqlpp.Options{Parallelism: 1})
		optPar := sqlpp.New(&sqlpp.Options{Parallelism: 8})
		for _, db := range []*sqlpp.Engine{naive, optSeq, optPar} {
			if err := db.Register("emp", FlatEmp(1500, 40, seed)); err != nil {
				t.Fatal(err)
			}
			if err := db.Register("dept", Departments(40, seed)); err != nil {
				t.Fatal(err)
			}
			if err := db.Register("hr", HR(HROptions{N: 200, ScalarProjects: true, Seed: seed})); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range optimizerBattery {
			want, err := naive.Query(q)
			if err != nil {
				t.Fatalf("seed %d query %d naive: %v", seed, i, err)
			}
			for name, db := range map[string]*sqlpp.Engine{"opt-seq": optSeq, "opt-par": optPar} {
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("seed %d query %d %s: %v", seed, i, name, err)
				}
				if want.String() != got.String() {
					t.Errorf("seed %d query %d: %s diverges from naive:\n  naive %s\n  %s   %s",
						seed, i, name, want, name, got)
				}
				p, err := db.Prepare(q)
				if err != nil {
					t.Fatalf("seed %d query %d %s prepare: %v", seed, i, name, err)
				}
				inst, stats, err := p.ExplainAnalyze(context.Background())
				if err != nil {
					t.Fatalf("seed %d query %d %s instrumented: %v", seed, i, name, err)
				}
				if want.String() != inst.String() {
					t.Errorf("seed %d query %d: instrumentation changed the %s result:\n  plain        %s\n  instrumented %s",
						seed, i, name, want, inst)
				}
				if stats == nil {
					t.Fatalf("seed %d query %d %s: nil stats tree", seed, i, name)
				}
				var sawRows bool
				stats.Walk(func(s *sqlpp.OpStats) {
					if s.RowsIn > 0 || s.RowsOut > 0 {
						sawRows = true
					}
				})
				if !sawRows {
					t.Errorf("seed %d query %d %s: stats tree recorded no rows:\n%s",
						seed, i, name, stats.Render(true))
				}
			}
		}
	}
}

// TestPaperListingsUnchangedByInstrumentation: every paper listing
// renders byte-identically with and without EXPLAIN ANALYZE, in each
// mode the listing declares. Error behavior must agree too.
func TestPaperListingsUnchangedByInstrumentation(t *testing.T) {
	for _, c := range compat.PaperCases() {
		for _, compatMode := range c.Modes() {
			db := sqlpp.New(&sqlpp.Options{Compat: compatMode, StopOnError: c.Strict})
			for name, v := range c.Data {
				if err := db.Register(name, v); err != nil {
					t.Fatalf("%s: register %s: %v", c.Name, name, err)
				}
			}
			plain, perr := db.Query(c.Query)
			var inst fmt.Stringer
			var ierr error
			if p, err := db.Prepare(c.Query); err != nil {
				ierr = err
			} else {
				inst, _, ierr = p.ExplainAnalyze(context.Background())
			}
			if (perr == nil) != (ierr == nil) {
				t.Errorf("%s (compat=%v): error behavior diverges: plain=%v instrumented=%v",
					c.Name, compatMode, perr, ierr)
				continue
			}
			if perr != nil {
				continue
			}
			if plain.String() != inst.String() {
				t.Errorf("%s (compat=%v): instrumentation changed the listing:\n  plain        %s\n  instrumented %s",
					c.Name, compatMode, plain, inst)
			}
		}
	}
}
