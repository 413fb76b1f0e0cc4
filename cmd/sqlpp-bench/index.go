package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"sqlpp"
	"sqlpp/internal/value"
)

// indexReport is the machine-readable artifact of -index.
type indexReport struct {
	GOMAXPROCS int         `json:"gomaxprocs"`
	Scale      int         `json:"scale"`
	Sizes      []indexSize `json:"sizes"`
}

// indexSize holds the numbers for one collection size: index build cost
// and the scan-vs-probe comparison per probe shape.
type indexSize struct {
	Rows           int          `json:"rows"`
	BuildHashNs    float64      `json:"build_hash_ns"`
	BuildOrderedNs float64      `json:"build_ordered_ns"`
	Probes         []indexProbe `json:"probes"`
}

type indexProbe struct {
	Name       string  `json:"name"`
	ResultRows int     `json:"result_rows"`
	ScanNs     float64 `json:"scan_ns_per_op"`
	IndexNs    float64 `json:"index_ns_per_op"`
	// Speedup is scan-ns / index-ns.
	Speedup float64 `json:"speedup"`
	// Operator is the index operator observed in EXPLAIN ANALYZE on the
	// indexed engine ("" means no index operator appeared — a failure).
	Operator string `json:"operator"`
}

// indexRows generates n rows {id, grp, pad}: id unique (the equality
// and range key), grp low-cardinality, pad ballast so rows are not
// trivially small.
func indexRows(n int) value.Bag {
	shape := value.ShapeOf("id", "grp", "pad")
	out := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, shape.New([]value.Value{
			value.Int(int64(i)), value.Int(int64(i % 100)), value.String(fmt.Sprintf("row-%08d", i)),
		}))
	}
	return out
}

// runIndexBench measures secondary-index build cost and equality/range
// probe latency against the full scans they replace, at 10k and 100k
// rows, and writes the numbers to outPath. Both engines run with
// Parallelism 1 so the comparison is probe-vs-sequential-scan, not
// probe-vs-worker-pool. It reports failure when any variant errors,
// when the indexed results are not byte-identical to the scans, when
// EXPLAIN ANALYZE shows no index operator, or when a 100k-row probe is
// under 10x faster than its scan.
func runIndexBench(scale int, outPath string) bool {
	fmt.Println("== Secondary indexes (build cost, equality probe, range scan vs full scan) ==")
	fmt.Println("(Parallelism=1; indexed results diffed byte-for-byte against scans)")
	report := indexReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale}
	failed := false
	for _, rows := range []int{10000 * scale, 100000 * scale} {
		fmt.Printf("\n%d rows\n", rows)
		data := indexRows(rows)
		size := indexSize{Rows: rows}

		scanDB := sqlpp.New(&sqlpp.Options{Parallelism: 1})
		idxDB := sqlpp.New(&sqlpp.Options{Parallelism: 1})
		if err := scanDB.Register("rows", data); err != nil {
			fmt.Println("  ERROR:", err)
			return true
		}
		if err := idxDB.Register("rows", data); err != nil {
			fmt.Println("  ERROR:", err)
			return true
		}

		// Build cost: drop + recreate per iteration.
		runtime.GC()
		buildHash := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idxDB.DropIndex("bh")
				if err := idxDB.CreateIndex("bh", "rows", "id", "hash"); err != nil {
					b.Fatal(err)
				}
			}
		})
		idxDB.DropIndex("bh")
		runtime.GC()
		buildOrdered := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idxDB.DropIndex("bo")
				if err := idxDB.CreateIndex("bo", "rows", "id", "ordered"); err != nil {
					b.Fatal(err)
				}
			}
		})
		idxDB.DropIndex("bo")
		size.BuildHashNs = float64(buildHash.NsPerOp())
		size.BuildOrderedNs = float64(buildOrdered.NsPerOp())
		fmt.Printf("  %-16s %12.0f ns/build\n", "build-hash", size.BuildHashNs)
		fmt.Printf("  %-16s %12.0f ns/build\n", "build-ordered", size.BuildOrderedNs)

		if err := idxDB.CreateIndex("ix_eq", "rows", "id", "hash"); err != nil {
			fmt.Println("  ERROR:", err)
			return true
		}
		if err := idxDB.CreateIndex("ix_rng", "rows", "id", "ordered"); err != nil {
			fmt.Println("  ERROR:", err)
			return true
		}

		lo := rows / 2
		probes := []struct{ name, query, wantOp string }{
			{"equality", fmt.Sprintf(`SELECT VALUE r.pad FROM rows AS r WHERE r.id = %d`, lo), "index_probe"},
			{"range", fmt.Sprintf(`SELECT VALUE r.pad FROM rows AS r WHERE r.id >= %d AND r.id < %d`, lo, lo+100), "index_range"},
		}
		for _, tc := range probes {
			p := indexProbe{Name: tc.name}
			scanNs, scanRes, err := benchQuery(scanDB, tc.query)
			if err != nil {
				fmt.Printf("  %-16s scan ERROR %v\n", tc.name, err)
				failed = true
				continue
			}
			idxNs, idxRes, err := benchQuery(idxDB, tc.query)
			if err != nil {
				fmt.Printf("  %-16s index ERROR %v\n", tc.name, err)
				failed = true
				continue
			}
			if scanRes.String() != idxRes.String() {
				fmt.Printf("  %-16s RESULT MISMATCH: indexed result differs from scan\n", tc.name)
				failed = true
				continue
			}
			p.ResultRows = int(resultRows(idxRes))
			p.ScanNs, p.IndexNs = scanNs, idxNs
			if idxNs > 0 {
				p.Speedup = scanNs / idxNs
			}
			p.Operator = explainOperator(idxDB, tc.query, tc.wantOp)
			status := ""
			if p.Operator == "" {
				status = "  NO INDEX OPERATOR IN EXPLAIN"
				failed = true
			}
			if rows >= 100000 && p.Speedup < 10 {
				status += fmt.Sprintf("  UNDER 10x (%.1fx)", p.Speedup)
				failed = true
			}
			fmt.Printf("  %-16s scan %12.0f ns/op   index %12.0f ns/op   %7.1fx   %4d rows  [%s]%s\n",
				tc.name, p.ScanNs, p.IndexNs, p.Speedup, p.ResultRows, p.Operator, status)
			size.Probes = append(size.Probes, p)
		}
		report.Sizes = append(report.Sizes, size)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Println("ERROR encoding report:", err)
		return true
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Println("ERROR writing report:", err)
		return true
	}
	fmt.Printf("\nwrote %s\n\n", outPath)
	return failed
}

// benchQuery prepares and times one query, returning ns/op and the
// result value.
func benchQuery(db *sqlpp.Engine, query string) (float64, value.Value, error) {
	p, err := db.Prepare(query)
	if err != nil {
		return 0, nil, err
	}
	res, err := p.Exec()
	if err != nil {
		return 0, nil, err
	}
	runtime.GC()
	bres := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(bres.NsPerOp()), res, nil
}

// explainOperator runs the query under EXPLAIN ANALYZE and returns
// wantOp if that operator appears in the stats tree, else "".
func explainOperator(db *sqlpp.Engine, query, wantOp string) string {
	p, err := db.Prepare(query)
	if err != nil {
		return ""
	}
	_, st, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		return ""
	}
	if statsHasOp(st, wantOp) {
		return wantOp
	}
	return ""
}

// statsHasOp walks a stats tree looking for an operator name.
func statsHasOp(st *sqlpp.OpStats, op string) bool {
	if st == nil {
		return false
	}
	if st.Op == op {
		return true
	}
	for _, c := range st.Children {
		if statsHasOp(c, op) {
			return true
		}
	}
	return false
}

// resultRows is the cardinality of a query result.
func resultRows(v value.Value) int64 {
	if els, ok := value.Elements(v); ok {
		return int64(len(els))
	}
	return 1
}
