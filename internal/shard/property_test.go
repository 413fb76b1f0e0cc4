package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/value"
)

// randomCatalog renders a heterogeneous collection in object notation:
// tuples with mixed-type group keys (null among them), sometimes-missing
// group keys and measures,
// occasional non-numeric measures (exercising the permissive type-fault
// propagation through the merge), nested tuples, and bare scalars.
func randomCatalog(rng *rand.Rand) string {
	n := rng.Intn(51)
	rows := make([]string, 0, n)
	keys := []string{"'a'", "'b'", "'c'", "1", "2", "'missing-key'", "null"}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0: // bare scalar row: .g and .v navigate to MISSING
			rows = append(rows, fmt.Sprintf("%d", rng.Intn(100)))
		case 1: // no group key
			rows = append(rows, fmt.Sprintf("{'v': %d}", rng.Intn(100)))
		case 2: // non-numeric measure: SUM/AVG type-fault to MISSING
			rows = append(rows, fmt.Sprintf("{'g': %s, 'v': 'oops'}", keys[rng.Intn(len(keys))]))
		case 3: // nested tuple measure
			rows = append(rows, fmt.Sprintf("{'g': %s, 'v': %d, 'w': {'z': %d}}",
				keys[rng.Intn(len(keys))], rng.Intn(100), rng.Intn(10)))
		default:
			rows = append(rows, fmt.Sprintf("{'g': %s, 'v': %d}", keys[rng.Intn(len(keys))], rng.Intn(100)))
		}
	}
	return "[" + strings.Join(rows, ", ") + "]"
}

// propertyQueries is the merge-decomposition surface under test: every
// split class, integer measures (float SUM re-association is the
// documented caveat), aggregate decomposition including AVG and the
// MISSING fault guard, HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT.
var propertyQueries = []string{
	"SELECT x.g AS g, COUNT(*) AS c, SUM(x.v) AS s, MIN(x.v) AS mn, MAX(x.v) AS mx FROM data AS x GROUP BY x.g AS g",
	"SELECT x.g AS g, AVG(x.v) AS a FROM data AS x GROUP BY x.g AS g",
	"SELECT g, COUNT(*) AS c FROM data AS x GROUP BY x.g AS g HAVING COUNT(*) > 1 ORDER BY g, c",
	"SELECT COUNT(*) AS c, SUM(x.v) AS s, AVG(x.v) AS a, MIN(x.v) AS mn, MAX(x.v) AS mx FROM data AS x",
	"SELECT x.g AS g, SUM(x.v) AS s FROM data AS x WHERE x.v >= 0 GROUP BY x.g AS g ORDER BY s DESC, g LIMIT 3",
	"SELECT VALUE x.v FROM data AS x ORDER BY x.v DESC LIMIT 7 OFFSET 1",
	"SELECT VALUE x FROM data AS x ORDER BY x.v, x.g LIMIT 5",
	"SELECT VALUE x.v FROM data AS x WHERE x.v > 10",
	"SELECT DISTINCT x.g AS g FROM data AS x",
	"SELECT x.g AS g, x.v AS v FROM data AS x WHERE x.v > 50 LIMIT 4",
}

// TestPropertyShardedIdentity is the merge-correctness property test:
// across 200 randomized heterogeneous catalogs × shard counts, every
// query's sharded result under range partitioning is byte-identical to
// single-node execution.
func TestPropertyShardedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(20240817))
	for iter := 0; iter < 200; iter++ {
		src := randomCatalog(rng)
		shards := 1 + rng.Intn(6)
		data, err := sqlpp.ParseValue(src)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		single := sqlpp.New(nil)
		if err := single.Register("data", data); err != nil {
			t.Fatal(err)
		}
		co := NewLocalCluster(shards, nil, Policy{})
		if err := co.Distribute("data", data, Spec{}); err != nil {
			t.Fatal(err)
		}
		query := propertyQueries[iter%len(propertyQueries)]
		want, werr := single.Query(query)
		res, gerr := co.Exec(context.Background(), query)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("iter %d shards=%d %q:\n data %s\n single err=%v sharded err=%v",
				iter, shards, query, src, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got := res.Value.String(); got != want.String() {
			t.Fatalf("iter %d shards=%d class=%s %q:\n data %s\n got  %s\n want %s\n notes %v",
				iter, shards, res.Class, query, src, got, want.String(), res.Notes)
		}
	}
}

// TestPropertyHashPartitioning checks hash partitioning in both typing
// modes, with SQL compatibility on and off: results are deterministic
// for a fixed topology and equal to single-node execution as a multiset
// (hash placement may permute first-seen orders, so order-insensitive
// queries compare sorted; ORDER BY queries compare exactly). The group
// queries group by the partitioning key, so they merge co-partitioned,
// without re-aggregating; the catalog's null and missing keys are where
// compat mode's NULL/MISSING grouping would split a group across shards
// if Partition did not colocate them. Each co-partitioned answer must
// also be byte-identical to the re-grouping merge over the same
// partials.
func TestPropertyHashPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []struct {
		q       string
		ordered bool // ORDER BY fixes the row order: compare exactly
		coPart  bool // groups by the partitioning key
	}{
		{"SELECT x.g AS g, COUNT(*) AS c, SUM(x.v) AS s FROM data AS x GROUP BY x.g AS g", false, true},
		{"SELECT x.g AS g, COUNT(*) AS c FROM data AS x GROUP BY x.g AS g HAVING COUNT(*) > 1", false, true},
		{"SELECT x.g AS g, SUM(x.v) AS s FROM data AS x GROUP BY x.g AS g ORDER BY s DESC, g LIMIT 3", true, true},
		{"SELECT x.g AS g, AVG(x.v) AS a, MIN(x.v) AS mn, MAX(x.v) AS mx FROM data AS x GROUP BY x.g AS g", false, true},
		{"SELECT DISTINCT COUNT(*) AS n FROM data AS x GROUP BY x.g", false, true},
		{"SELECT VALUE x.v FROM data AS x WHERE x.v > 20", false, false},
		{"SELECT DISTINCT x.g AS g FROM data AS x", false, false},
	}
	for iter := 0; iter < 40; iter++ {
		src := randomCatalog(rng)
		shards := 2 + rng.Intn(4)
		data := sqlpp.MustParseValue(src)
		for _, opts := range []sqlpp.Options{{}, {Compat: true}, {StopOnError: true}, {Compat: true, StopOnError: true}} {
			single := sqlpp.New(&opts)
			if err := single.Register("data", data); err != nil {
				t.Fatal(err)
			}
			run := func() *Coordinator {
				// Strict-mode queries fail on the shards with answered
				// errors, which never open the default breaker.
				co := NewLocalCluster(shards, &opts, Policy{})
				if err := co.Distribute("data", data, Spec{Kind: Hash, Key: "g"}); err != nil {
					t.Fatal(err)
				}
				return co
			}
			coA, coB := run(), run()
			for _, tc := range queries {
				q := tc.q
				want, werr := single.Query(q)
				ra, ea := coA.Exec(context.Background(), q)
				rb, eb := coB.Exec(context.Background(), q)
				if (werr != nil) != (ea != nil) || (ea != nil) != (eb != nil) {
					t.Fatalf("iter %d %+v %q: errs single=%v a=%v b=%v", iter, opts, q, werr, ea, eb)
				}
				if werr != nil {
					continue
				}
				if ra.Value.String() != rb.Value.String() {
					t.Fatalf("iter %d %+v %q: hash run not deterministic:\n a %s\n b %s",
						iter, opts, q, ra.Value.String(), rb.Value.String())
				}
				got, wantS := sortedElems(t, ra.Value), sortedElems(t, want)
				if tc.ordered {
					got, wantS = ra.Value.String(), want.String()
				}
				if got != wantS {
					t.Fatalf("iter %d %+v %q: hash result mismatch:\n data %s\n got  %s\n want %s\n notes %v",
						iter, opts, q, src, got, wantS, ra.Notes)
				}
				if hasCoPartNote(ra.Notes) != tc.coPart {
					t.Fatalf("iter %d %q: co-partitioned note = %v, want %v: %v",
						iter, q, !tc.coPart, tc.coPart, ra.Notes)
				}
				if tc.coPart {
					// The same shard query under a spec whose key is not a
					// grouping key: the merge re-groups the same partials.
					regroup := classify(q, map[string]Spec{"data": {Name: "data", Kind: Hash, Key: "v"}})
					if regroup.coPartitioned != "" || regroup.shardQuery != coA.plan(q).shardQuery {
						t.Fatalf("%q: re-grouping plan %+v", q, regroup)
					}
					rr, err := coA.execSplit(context.Background(), ExecRequest{Query: q}, opts, FailFast, regroup)
					if err != nil {
						t.Fatalf("iter %d %+v %q: re-grouping merge: %v", iter, opts, q, err)
					}
					if rr.Value.String() != ra.Value.String() {
						t.Fatalf("iter %d %+v %q: merges differ:\n co-partitioned %s\n re-grouping    %s",
							iter, opts, q, ra.Value.String(), rr.Value.String())
					}
				}
			}
		}
	}
}

// hasCoPartNote reports whether a scatter's notes name a co-partitioned
// group merge.
func hasCoPartNote(notes []string) bool {
	for _, n := range notes {
		if strings.HasPrefix(n, "group merge: co-partitioned") {
			return true
		}
	}
	return false
}

// sortedElems renders a collection's elements sorted, for multiset
// comparison.
func sortedElems(t *testing.T, v value.Value) string {
	t.Helper()
	elems, ok := value.Elements(v)
	if !ok {
		return v.String()
	}
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = e.String()
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// TestPaperListingsUnchangedBySharding runs the full conformance suite
// — the paper's 28 listings plus the SQL-compat, null/missing, and
// semantics batteries — through a 3-shard coordinator and requires the
// exact behavior (value or error) of a single-node engine with the same
// data, in both engine modes.
func TestPaperListingsUnchangedBySharding(t *testing.T) {
	cases := compat.Suite()
	if len(cases) < len(compat.PaperCases()) {
		t.Fatalf("suite has %d cases, fewer than the paper listings", len(cases))
	}
	for _, c := range cases {
		for _, compatMode := range []bool{false, true} {
			if c.Mode == compat.Core && compatMode {
				continue
			}
			if c.Mode == compat.Compat && !compatMode {
				continue
			}
			opts := &sqlpp.Options{Compat: compatMode, StopOnError: c.Strict}
			single := sqlpp.New(opts)
			co := NewLocalCluster(3, opts, Policy{})
			for name, src := range c.Data {
				v, err := sqlpp.ParseValue(src)
				if err != nil {
					t.Fatalf("%s: data %s: %v", c.Name, name, err)
				}
				if err := single.Register(name, v); err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				if _, isColl := value.Elements(v); isColl {
					if err := co.Distribute(name, v, Spec{}); err != nil {
						t.Fatalf("%s: distribute %s: %v", c.Name, name, err)
					}
				} else if err := co.Broadcast(name, v); err != nil {
					t.Fatalf("%s: broadcast %s: %v", c.Name, name, err)
				}
			}
			want, werr := single.Query(c.Query)
			res, gerr := co.Exec(context.Background(), c.Query)
			if (werr != nil) != (gerr != nil) {
				t.Errorf("%s (compat=%v): single err=%v sharded err=%v", c.Name, compatMode, werr, gerr)
				continue
			}
			if werr != nil {
				continue
			}
			if got := res.Value.String(); got != want.String() {
				t.Errorf("%s (compat=%v) class=%s:\n got  %s\n want %s",
					c.Name, compatMode, res.Class, got, want.String())
			}
		}
	}
}

// TestShardWireKeepsPrecedence: shard and merge queries travel as
// ast.Format text, so a tree that printed like another tree would run
// as that other query on every shard. Two shards must answer exactly
// what one node does.
func TestShardWireKeepsPrecedence(t *testing.T) {
	data := sqlpp.MustParseValue(`[{'n': 1, 'm': 1, 'a': true, 'b': null}, {'n': 1, 'm': false, 'a': false, 'b': 2},
		{'n': 4, 'm': true, 'a': false, 'b': null}, {'n': -2, 'm': -2, 'a': true, 'b': 3}]`)
	single := sqlpp.New(nil)
	if err := single.Register("data", data); err != nil {
		t.Fatal(err)
	}
	co := NewLocalCluster(2, nil, Policy{})
	if err := co.Distribute("data", data, Spec{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT VALUE x.a = (x.b IS NULL) FROM data AS x",
		"SELECT VALUE x.n FROM data AS x WHERE x.a = (x.b IS NULL)",
		"SELECT VALUE (NOT x.n) = x.m FROM data AS x",
		"SELECT VALUE - -x.n FROM data AS x",
	} {
		want, werr := single.Query(q)
		res, gerr := co.Exec(context.Background(), q)
		if (werr != nil) != (gerr != nil) {
			t.Errorf("%s: single err=%v, sharded err=%v", q, werr, gerr)
			continue
		}
		if werr == nil && res.Value.String() != want.String() {
			t.Errorf("%s (class %s): sharded %s, single %s\n notes %v", q, res.Class, res.Value, want, res.Notes)
		}
	}
}
