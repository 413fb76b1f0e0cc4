package sqlpp_test

// Differential battery for the secondary-index subsystem: under the
// paper's permissive semantics, an index may only change how rows are
// found, never which rows are found. Every test here runs the same
// query with and without indexes and requires byte-identical renderings
// (or identical errors) — including the MISSING/NULL/mixed-type key
// populations where a naive index would silently diverge.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/value"
)

// randValue produces a heterogeneous key: ints and floats that collide
// under grouping equality, short strings, bools, NULL, or no value at
// all (MISSING).
func randKey(rng *rand.Rand) (value.Value, bool) {
	switch rng.Intn(8) {
	case 0:
		return value.Int(int64(rng.Intn(12))), true
	case 1:
		return value.Float(float64(rng.Intn(12))), true
	case 2:
		return value.Float(float64(rng.Intn(12)) + 0.5), true
	case 3:
		return value.String(string(rune('a' + rng.Intn(8)))), true
	case 4:
		return value.Bool(rng.Intn(2) == 0), true
	case 5:
		return value.Null, true
	case 6: // nested tuple key — indexable only through a deeper path
		t := value.EmptyTuple()
		t.Put("z", value.Int(int64(rng.Intn(5))))
		return t, true
	default:
		return nil, false // attribute absent → MISSING
	}
}

// randPredicate builds a WHERE clause over path (either "k" or the
// nested "n.z") with a random shape: equality, a one-sided or
// two-sided range, or BETWEEN.
func randPredicate(rng *rand.Rand, path string) string {
	lit := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(12))
		case 1:
			return fmt.Sprintf("%d.5", rng.Intn(12))
		case 2:
			return fmt.Sprintf("'%c'", 'a'+rune(rng.Intn(8)))
		default:
			return "null"
		}
	}
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("e.%s = %s", path, lit())
	case 1:
		return fmt.Sprintf("e.%s >= %s", path, lit())
	case 2:
		return fmt.Sprintf("e.%s < %s", path, lit())
	case 3:
		return fmt.Sprintf("e.%s >= %s AND e.%s < %s", path, lit(), path, lit())
	default:
		return fmt.Sprintf("e.%s BETWEEN %s AND %s", path, lit(), lit())
	}
}

// TestIndexedScanIdentityProperty: randomized collections × randomized
// predicates, evaluated with and without a full complement of indexes.
// The rendering (canonical form, order included) must match exactly.
func TestIndexedScanIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(60)
		elems := make([]value.Value, 0, n)
		for i := 0; i < n; i++ {
			tup := value.EmptyTuple()
			tup.Put("pos", value.Int(int64(i)))
			if k, ok := randKey(rng); ok {
				tup.Put("k", k)
			}
			if rng.Intn(3) == 0 {
				nested := value.EmptyTuple()
				nested.Put("z", value.Int(int64(rng.Intn(6))))
				tup.Put("n", nested)
			}
			elems = append(elems, tup)
		}
		var src value.Value
		if rng.Intn(2) == 0 {
			src = value.Bag(elems)
		} else {
			src = value.Array(elems)
		}

		plain := sqlpp.New(&sqlpp.Options{Parallelism: 1})
		indexed := sqlpp.New(&sqlpp.Options{Parallelism: 1})
		if err := plain.Register("emp", src); err != nil {
			t.Fatal(err)
		}
		if err := indexed.Register("emp", src); err != nil {
			t.Fatal(err)
		}
		for i, spec := range [][2]string{{"k", "hash"}, {"k", "ordered"}, {"n.z", "hash"}, {"n.z", "ordered"}} {
			if err := indexed.CreateIndex(fmt.Sprintf("ix%d", i), "emp", spec[0], spec[1]); err != nil {
				t.Fatal(err)
			}
		}

		path := "k"
		if rng.Intn(3) == 0 {
			path = "n.z"
		}
		query := fmt.Sprintf("SELECT VALUE e.pos FROM emp AS e WHERE %s", randPredicate(rng, path))
		pv, perr := plain.Query(query)
		iv, ierr := indexed.Query(query)
		if (perr == nil) != (ierr == nil) {
			t.Fatalf("trial %d: error divergence on %q: %v vs %v", trial, query, perr, ierr)
		}
		if perr != nil {
			continue
		}
		if pv.String() != iv.String() {
			t.Fatalf("trial %d: divergence on %q over %s:\n  scan  %s\n  index %s",
				trial, query, src, pv, iv)
		}
	}
}

// topLevelPaths lists the attribute names of a collection's first
// tuple element — the paths the paper-listing invariance test indexes.
func topLevelPaths(v value.Value) []string {
	els, ok := value.Elements(v)
	if !ok || len(els) == 0 {
		return nil
	}
	tup, ok := els[0].(*value.Tuple)
	if !ok {
		return nil
	}
	return tup.Names()
}

// TestPaperListingsUnchangedByIndexes re-runs every paper listing with
// hash and ordered indexes declared on every top-level attribute of
// every input collection. The paper's query-stability tenet extends to
// physical design: declaring indexes must never change (or break) a
// working query.
func TestPaperListingsUnchangedByIndexes(t *testing.T) {
	for _, c := range compat.PaperCases() {
		for _, compatMode := range c.Modes() {
			name := fmt.Sprintf("%s/compat=%v", c.Name, compatMode)
			t.Run(name, func(t *testing.T) {
				opts := &sqlpp.Options{Compat: compatMode, StopOnError: c.Strict, Parallelism: 1}
				plain := sqlpp.New(opts)
				indexed := sqlpp.New(opts)
				for dn, v := range c.Data {
					if err := plain.Register(dn, v); err != nil {
						t.Fatal(err)
					}
					if err := indexed.Register(dn, v); err != nil {
						t.Fatal(err)
					}
				}
				i := 0
				for dn, v := range c.Data {
					for _, p := range topLevelPaths(v) {
						for _, kind := range []string{"hash", "ordered"} {
							if err := indexed.CreateIndex(fmt.Sprintf("ix%d", i), dn, p, kind); err != nil {
								t.Fatalf("CreateIndex %s.%s (%s): %v", dn, p, kind, err)
							}
							i++
						}
					}
				}
				if i == 0 {
					t.Skip("no indexable collection attributes")
				}

				pv, perr := plain.Query(c.Query)
				iv, ierr := indexed.Query(c.Query)
				if (perr == nil) != (ierr == nil) {
					t.Fatalf("error divergence: %v vs %v", perr, ierr)
				}
				if perr != nil {
					if c.ExpectError {
						return // both fail, as the listing expects
					}
					t.Fatalf("listing failed in both engines: %v", perr)
				}
				if pv.String() != iv.String() {
					t.Fatalf("listing result changed by indexes:\n  plain   %s\n  indexed %s", pv, iv)
				}
				if !c.ExpectError && !value.Equivalent(c.Expect, iv) {
					t.Fatalf("indexed result diverges from the paper:\n  got  %s\n  want %s", iv, c.Expect)
				}
			})
		}
	}
}

// TestIndexedIdentityUnderParallelScans: with Parallelism > 1 the
// un-indexed engine runs partitioned scans while the indexed engine
// probes sequentially; results must still be identical because bags
// render canonically.
func TestIndexedIdentityUnderParallelScans(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'id': %d, 'grp': %d}", i, i%7)
	}
	sb.WriteString("}}")

	plain := sqlpp.New(&sqlpp.Options{Parallelism: 4})
	indexed := sqlpp.New(&sqlpp.Options{Parallelism: 4})
	if err := plain.RegisterSION("rows", sb.String()); err != nil {
		t.Fatal(err)
	}
	if err := indexed.RegisterSION("rows", sb.String()); err != nil {
		t.Fatal(err)
	}
	if err := indexed.CreateIndex("ix", "rows", "id", "ordered"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT VALUE r.grp FROM rows AS r WHERE r.id = 4321`,
		`SELECT VALUE r.id FROM rows AS r WHERE r.id >= 100 AND r.id < 180`,
		`SELECT r.grp AS g, COUNT(*) AS n FROM rows AS r WHERE r.id < 700 GROUP BY r.grp`,
	} {
		pv, perr := plain.Query(q)
		iv, ierr := indexed.Query(q)
		if perr != nil || ierr != nil {
			t.Fatalf("%q: %v / %v", q, perr, ierr)
		}
		if pv.String() != iv.String() {
			t.Fatalf("%q diverges:\n  plain   %s\n  indexed %s", q, pv, iv)
		}
	}
}
