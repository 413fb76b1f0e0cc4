//go:build faultinject

package sqlpp_test

// The two paths pick their evaluator once: production compiles every
// expression (eval.Compile) and never enters the tree-walking
// interpreter, the reference oracle (DisableOptimizer) interprets every
// expression (eval.Interpret). The interpret injection point fires at
// each eval.Eval entry; armed count-only it counts interpreter entries.
// Like the chaos battery, this test arms global injection state, so it
// must not run in parallel with tests that call faultinject.Reset.

import (
	"fmt"
	"testing"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/faultinject"
)

// interpreterEntries runs f with the interpret point armed count-only and
// returns how often f entered the interpreter.
func interpreterEntries(f func()) uint64 {
	faultinject.Set(faultinject.Interpret, 0, 1, 0, faultinject.Action{})
	f()
	return faultinject.Fired(faultinject.Interpret)
}

// TestProductionNeverInterprets: every battery query, in both typing
// modes, with and without SQL compatibility, sequentially and with
// parallel scans, and every paper listing in the same four modes, runs
// on the production path without one interpreter entry. On the oracle
// every text enters the interpreter (the battery checked in one mode:
// its naive nested loops are what the race-enabled chaos job pays for).
// The sequential production engines run every text through the
// literal-template path too (queryTemplated), which must not interpret
// either.
func TestProductionNeverInterprets(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	check := func(name string, db *sqlpp.Engine, query string, oracle bool) {
		t.Helper()
		n := interpreterEntries(func() { _, _ = db.Query(query) })
		if !oracle && n != 0 {
			t.Errorf("%s: production entered the interpreter %d times", name, n)
		}
		if !oracle && db.Options().Parallelism != 8 {
			if n := interpreterEntries(func() { _, _, _ = queryTemplated(db, query) }); n != 0 {
				t.Errorf("%s: the template path entered the interpreter %d times", name, n)
			}
		}
		if oracle && n == 0 {
			t.Errorf("%s: the oracle never entered the interpreter", name)
		}
	}
	for _, strict := range []bool{false, true} {
		for _, compatMode := range []bool{false, true} {
			for _, parallelism := range []int{1, 8} {
				opts := sqlpp.Options{Compat: compatMode, StopOnError: strict, Parallelism: parallelism}
				production := batteryEngine(t, 0, opts)
				for i, q := range optimizerBattery {
					check(fmt.Sprintf("strict=%v compat=%v p=%d: query %d (%s)", strict, compatMode, parallelism, i, q), production, q, false)
				}
			}
		}
	}
	oracle := batteryEngine(t, 0, sqlpp.Options{Parallelism: 1, DisableOptimizer: true})
	for i, q := range optimizerBattery {
		check(fmt.Sprintf("oracle: query %d (%s)", i, q), oracle, q, true)
	}
	for _, c := range compat.PaperCases() {
		for _, compatMode := range []bool{false, true} {
			for _, strict := range []bool{false, true} {
				for _, useOracle := range []bool{false, true} {
					db := sqlpp.New(&sqlpp.Options{Compat: compatMode, StopOnError: strict, DisableOptimizer: useOracle})
					for name, v := range c.Data {
						if err := db.Register(name, v); err != nil {
							t.Fatalf("register %s: %v", name, err)
						}
					}
					check(fmt.Sprintf("%s compat=%v strict=%v oracle=%v", c.Name, compatMode, strict, useOracle), db, c.Query, useOracle)
				}
			}
		}
	}
}
