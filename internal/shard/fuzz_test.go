package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"sqlpp"
)

// FuzzScatter is the splitter's differential fuzzer: each text runs on
// one engine and through a 3-shard range-partitioned cluster over the
// same small catalog. Integer measures keep SUM and AVG exact under
// re-association, so whatever class the splitter picks, both sides must
// fail, or both must render byte-identically. A deadline or a spent
// budget on either side bounds the run, not the answer, and is exempt:
// the budget charges sites that differ between the two sides (a hash
// build, a hoisted subquery, the shards' budgets, which scatterOptions
// zeroes).
func FuzzScatter(f *testing.F) {
	for _, q := range propertyQueries {
		f.Add(q)
	}
	data := sqlpp.MustParseValue(fuzzCatalog)
	opts := &sqlpp.Options{Limits: sqlpp.Limits{MaxOutputRows: 4096, MaxMaterializedValues: 4096}}
	single := sqlpp.New(opts)
	if err := single.Register("data", data); err != nil {
		f.Fatal(err)
	}
	co := NewLocalCluster(3, opts, Policy{})
	if err := co.Distribute("data", data, Spec{}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, query string) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		want, werr := single.QueryContext(ctx, query)
		res, gerr := co.Exec(ctx, query)
		if bounded(werr) || bounded(gerr) {
			return
		}
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%q: single err=%v sharded err=%v", query, werr, gerr)
		}
		if werr != nil {
			return
		}
		if got := res.Value.String(); got != want.String() {
			t.Fatalf("%q class=%s:\n got  %s\n want %s\n notes %v", query, res.Class, got, want.String(), res.Notes)
		}
	})
}

// fuzzCatalog is FuzzScatter's data: heterogeneous rows, a faulting
// measure, a non-tuple row.
const fuzzCatalog = `[{'g': 'a', 'v': 1}, {'g': 'b', 'v': 2}, {'g': 'a', 'v': 3, 'w': {'z': 1}}, {'g': null, 'v': 4},
	{'v': 5}, {'g': 'b', 'v': 'oops'}, {'g': 1, 'v': 6}, 7, {'g': 'c', 'v': -2}, {'g': 'a', 'v': 10}]`

// bounded reports whether err ended a run on its deadline or budget
// rather than on the query's meaning.
func bounded(err error) bool {
	var re *sqlpp.ResourceError
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &re)
}
