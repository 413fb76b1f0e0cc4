package shard

import (
	"context"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// TestGroupMergeStreams: the merge of a group scatter folds the partial
// rows as they are scanned — one streamed GROUP BY, no GROUP AS
// collection, no subquery per group — whatever mix of mergeable
// aggregates the query uses, including the SUM/AVG whose "some partial
// faulted to MISSING" test used to be an EXISTS over the group.
func TestGroupMergeStreams(t *testing.T) {
	// 500 groups, every one on both shards: 1,000 partial rows. Group 7's
	// rows on the second shard hold a string, so its partial SUM faults to
	// MISSING there and the merged SUM/AVG must be MISSING too.
	rows := make(value.Array, 0, 4000)
	for i := 0; i < 4000; i++ {
		var v value.Value = value.Int(int64(i))
		if i >= 2000 && i%500 == 7 {
			v = value.String("oops")
		}
		rows = append(rows, value.NewTuple(
			value.Field{Name: "g", Value: value.Int(int64(i % 500))},
			value.Field{Name: "v", Value: v}))
	}
	single := sqlpp.New(nil)
	if err := single.Register("data", rows); err != nil {
		t.Fatal(err)
	}
	co := NewLocalCluster(2, nil, Policy{})
	if err := co.Distribute("data", rows, Spec{}); err != nil {
		t.Fatal(err)
	}

	for _, query := range []string{
		`SELECT x.g AS g, COUNT(*) AS c, SUM(x.v) AS s, AVG(x.v) AS a, MIN(x.v) AS lo, MAX(x.v) AS hi FROM data AS x GROUP BY x.g AS g ORDER BY g`,
		`SELECT g, SUM(x.v) AS s FROM data AS x GROUP BY x.g AS g HAVING AVG(x.v) > 100 ORDER BY SUM(x.v) DESC, g LIMIT 20`,
		`SELECT SUM(x.v) AS s, AVG(x.v) AS a, COUNT(x.v) AS c FROM data AS x WHERE x.g <> 7`,
	} {
		want, err := single.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.ExecRequest(context.Background(), ExecRequest{Query: query, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != "group" || res.Value.String() != want.String() {
			t.Fatalf("%s: class %s\n  got  %.200s\n  want %.200s", query, res.Class, res.Value, want)
		}
		merge := co.plan(query).mergeQuery
		if strings.Contains(merge, "GROUP AS") || strings.Contains(merge, "EXISTS") {
			t.Errorf("merge text materialises its groups: %s", merge)
		}
		var blocks, streamed []*eval.StatsSnapshot
		var walk func(n *eval.StatsSnapshot)
		walk = func(n *eval.StatsSnapshot) {
			switch {
			case n.Op == "select":
				blocks = append(blocks, n)
			case n.Op == "group-by" && strings.HasPrefix(n.Label, "stream"):
				streamed = append(streamed, n)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, c := range res.Stats.Children {
			if c.Op == "merge" {
				walk(c)
			}
		}
		// A group variable that had to be materialised shows as a group-by
		// labelled "materialize" and one more block per group subquery.
		if len(blocks) != 1 || len(streamed) != 1 {
			t.Errorf("%s: merge ran %d blocks with %d streamed GROUP BYs, want 1 and 1", query, len(blocks), len(streamed))
		}
	}
}

// TestCoPartitionedSelection: a group merge skips re-aggregation only
// when the collection is hash-partitioned and a grouping key is exactly
// the head variable's partitioning key path, with the head variable
// bound once. Everything else keeps the re-grouping merge, and a HAVING
// that still needs a pre-group binding falls back to gather either way.
func TestCoPartitionedSelection(t *testing.T) {
	hashG := Spec{Name: "data", Kind: Hash, Key: "g"}
	for _, tc := range []struct {
		spec  Spec
		query string
		class string
		co    bool
	}{
		{hashG, "SELECT x.g AS g, COUNT(*) AS c FROM data AS x GROUP BY x.g", "group", true},
		{hashG, "SELECT x.h AS h, SUM(x.v) AS s FROM data AS x GROUP BY x.h, x.g AS g", "group", true},
		{hashG, "SELECT x.g AS g, d.n AS n, COUNT(*) AS c FROM data AS x JOIN dims AS d ON x.g = d.g GROUP BY x.g, d.n", "group", true},
		{hashG, "SELECT x.h AS h, COUNT(*) AS c FROM data AS x GROUP BY x.h", "group", false},
		{hashG, "SELECT d.g AS g, COUNT(*) AS c FROM data AS x JOIN dims AS d ON x.g = d.g GROUP BY d.g", "group", false},
		{hashG, "SELECT COUNT(*) AS c FROM data AS x", "group", false},
		{hashG, "SELECT y.g AS g, COUNT(*) AS c FROM data AS x, x.kids AS y GROUP BY y.g", "group", false},
		{hashG, "SELECT x.g AS g, COUNT(*) AS c FROM data AS x LET x = x.w GROUP BY x.g", "group", false},
		{Spec{Name: "data", Kind: Hash, Key: "w.z"}, "SELECT x.w.z AS z, COUNT(*) AS c FROM data AS x GROUP BY x.w.z", "group", true},
		{Spec{Name: "data", Kind: Hash, Key: "w.z"}, "SELECT x.w AS w, COUNT(*) AS c FROM data AS x GROUP BY x.w", "group", false},
		{Spec{Name: "data"}, "SELECT x.g AS g, COUNT(*) AS c FROM data AS x GROUP BY x.g", "group", false},
		{hashG, "SELECT x.g AS g FROM data AS x GROUP BY x.g HAVING x.v > 1", "gather", false},
	} {
		p := classify(tc.query, map[string]Spec{"data": tc.spec})
		if p.class != tc.class || (p.coPartitioned != "") != tc.co {
			t.Errorf("%s %q: %s: class %s, co-partitioned %q, want %s, %v",
				tc.spec.Kind, tc.spec.Key, tc.query, p.class, p.coPartitioned, tc.class, tc.co)
			continue
		}
		grouped := strings.Contains(tc.query, "GROUP BY")
		if p.class == "group" && grouped && strings.Contains(p.mergeQuery, "GROUP BY") == tc.co {
			t.Errorf("%s: merge %q does not match co-partitioned=%v", tc.query, p.mergeQuery, tc.co)
		}
	}
}
