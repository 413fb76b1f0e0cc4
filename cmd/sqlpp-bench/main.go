// Command sqlpp-bench regenerates the paper's artifacts:
//
//	sqlpp-bench -listings    re-execute every paper listing and diff the results
//	sqlpp-bench -kit         run the full Core SQL++ compatibility kit
//	sqlpp-bench -perf        run the performance experiments (claims C1/C3/C4/C6 + ablations)
//	sqlpp-bench -formats     run the format-independence experiment (claim C5)
//	sqlpp-bench -serve       run the served-vs-embedded query latency comparison
//	sqlpp-bench -joins       run the physical-optimizer experiments and write BENCH_joins.json
//	sqlpp-bench -explain     measure EXPLAIN ANALYZE overhead and write BENCH_explain.json
//	sqlpp-bench -governor    measure resource-governor overhead and enforcement and
//	                         write BENCH_governor.json
//	sqlpp-bench -vet         measure static-analysis (sema) cost and write BENCH_vet.json
//	sqlpp-bench -index       measure secondary-index build and probe cost vs full scans
//	                         and write BENCH_index.json
//	sqlpp-bench -shard       measure fault-tolerant scatter-gather over in-process
//	                         shards (4-shard speedup, byte identity, failure
//	                         policies) and write BENCH_shard.json
//	sqlpp-bench -lint        time the full static-analysis suite over this repo,
//	                         fail if it exceeds its 30s budget or finds anything,
//	                         and write BENCH_lint.json
//	sqlpp-bench              all of the above
//
// The output tables are the ones recorded in EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/bench"
	"sqlpp/internal/compat"
	"sqlpp/internal/value"
)

func main() {
	listings := flag.Bool("listings", false, "reproduce the paper listings")
	kit := flag.Bool("kit", false, "run the compatibility kit")
	perf := flag.Bool("perf", false, "run the performance experiments")
	formats := flag.Bool("formats", false, "run the format-independence experiment")
	serve := flag.Bool("serve", false, "run the served-vs-embedded latency comparison")
	joins := flag.Bool("joins", false, "run the physical-optimizer experiments")
	joinsOut := flag.String("joins-out", "BENCH_joins.json", "machine-readable output of -joins")
	explain := flag.Bool("explain", false, "measure EXPLAIN ANALYZE instrumentation overhead")
	explainOut := flag.String("explain-out", "BENCH_explain.json", "machine-readable output of -explain")
	governor := flag.Bool("governor", false, "measure resource-governor overhead and enforcement")
	governorOut := flag.String("governor-out", "BENCH_governor.json", "machine-readable output of -governor")
	vet := flag.Bool("vet", false, "measure static-analysis (sema) cost per query")
	vetOut := flag.String("vet-out", "BENCH_vet.json", "machine-readable output of -vet")
	indexBench := flag.Bool("index", false, "measure secondary-index build and probe cost vs full scans")
	indexOut := flag.String("index-out", "BENCH_index.json", "machine-readable output of -index")
	shardBench := flag.Bool("shard", false, "measure fault-tolerant scatter-gather over in-process shards")
	shardOut := flag.String("shard-out", "BENCH_shard.json", "machine-readable output of -shard")
	lintBench := flag.Bool("lint", false, "time the full static-analysis suite; fail if over budget")
	lintOut := flag.String("lint-out", "BENCH_lint.json", "machine-readable output of -lint")
	lintRoot := flag.String("lint-root", ".", "module root the -lint suite analyzes")
	scale := flag.Int("scale", 1, "scale factor for the performance experiments")
	flag.Parse()

	all := !*listings && !*kit && !*perf && !*formats && !*serve && !*joins && !*explain && !*governor && !*vet && !*indexBench && !*shardBench && !*lintBench
	failed := false
	if *listings || all {
		failed = runListings() || failed
	}
	if *kit || all {
		failed = runKit() || failed
	}
	if *perf || all {
		runPerf(*scale)
	}
	if *formats || all {
		failed = runFormats(*scale) || failed
	}
	if *serve || all {
		failed = runServe(*scale) || failed
	}
	if *joins || all {
		failed = runJoins(*scale, *joinsOut) || failed
	}
	if *explain || all {
		failed = runExplain(*scale, *explainOut) || failed
	}
	if *governor || all {
		failed = runGovernor(*scale, *governorOut) || failed
	}
	if *vet || all {
		failed = runVetBench(*scale, *vetOut) || failed
	}
	if *indexBench || all {
		failed = runIndexBench(*scale, *indexOut) || failed
	}
	if *shardBench || all {
		failed = runShard(*scale, *shardOut) || failed
	}
	if *lintBench || all {
		failed = runLintBench(*lintRoot, *lintOut) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// runListings re-executes every paper listing; it reports whether any
// failed.
func runListings() bool {
	fmt.Println("== Paper listings (queries re-executed, results diffed against the paper) ==")
	fmt.Printf("%-36s %-7s %s\n", "LISTING", "MODE", "STATUS")
	failed := false
	for _, c := range compat.PaperCases() {
		for _, r := range compat.Run(c) {
			status := "PASS"
			if !r.Pass {
				status = "FAIL: " + r.Detail
				failed = true
			}
			fmt.Printf("%-36s %-7s %s\n", c.Name, r.ModeName, status)
		}
	}
	fmt.Println()
	return failed
}

func runKit() bool {
	fmt.Println("== Core SQL++ compatibility kit ==")
	all, failures := compat.RunSuite(compat.Suite())
	fmt.Printf("%d checks, %d failures\n\n", len(all), len(failures))
	for _, f := range failures {
		fmt.Printf("FAIL %s [%s]: %s\n", f.Case.Name, f.ModeName, f.Detail)
	}
	return len(failures) > 0
}

func runPerf(scale int) {
	fmt.Println("== Performance experiments ==")
	fmt.Println("(ns/op measured via testing.Benchmark; rows = result cardinality)")
	for _, exp := range bench.StandardExperiments(scale) {
		fmt.Printf("\n%s\n  claim: %s\n", exp.ID, exp.Claim)
		var base float64
		for i, v := range exp.Variants {
			if v.ExpectError {
				_, err := v.Run()
				status := "did not fail"
				if err != nil {
					status = "fails fast: " + firstLine(err.Error())
				}
				fmt.Printf("  %-20s %s\n", v.Name, status)
				continue
			}
			rows, err := v.Run()
			if err != nil {
				fmt.Printf("  %-20s ERROR %v\n", v.Name, err)
				continue
			}
			prepared, err := v.Prepare()
			if err != nil {
				fmt.Printf("  %-20s ERROR %v\n", v.Name, err)
				continue
			}
			runtime.GC() // isolate variants from one another's garbage
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := prepared.Exec(); err != nil {
						b.Fatal(err)
					}
				}
			})
			perOp := float64(res.NsPerOp())
			if i == 0 {
				base = perOp
			}
			rel := ""
			if i > 0 && base > 0 {
				rel = fmt.Sprintf("  (%.2fx of %s)", perOp/base, exp.Variants[0].Name)
			}
			fmt.Printf("  %-20s %12.0f ns/op  %6d rows%s\n", v.Name, perOp, rows, rel)
		}
	}
	fmt.Println()
}

// joinsReport is the machine-readable artifact of -joins.
type joinsReport struct {
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Scale       int               `json:"scale"`
	Experiments []joinsExperiment `json:"experiments"`
}

type joinsExperiment struct {
	ID       string         `json:"id"`
	Claim    string         `json:"claim"`
	Variants []joinsVariant `json:"variants"`
}

type joinsVariant struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Rows    int     `json:"rows"`
	// Speedup is baseline-ns / this-ns; 1.0 for the baseline (first)
	// variant itself.
	Speedup float64 `json:"speedup_vs_baseline"`
}

// runJoins measures the physical-optimizer experiments (hash join,
// predicate pushdown, parallel scan) against the naive/sequential
// baselines and writes the numbers to outPath. It reports failure when
// any variant errors or produces a different row count than its
// baseline — the optimizations must be invisible in the results.
func runJoins(scale int, outPath string) bool {
	fmt.Println("== Physical optimizer (hash joins, pushdown, parallel scan) ==")
	fmt.Printf("(GOMAXPROCS=%d; baseline = first variant of each experiment)\n", runtime.GOMAXPROCS(0))
	report := joinsReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale}
	failed := false
	for _, exp := range bench.PhysicalExperiments(scale) {
		fmt.Printf("\n%s\n  claim: %s\n", exp.ID, exp.Claim)
		je := joinsExperiment{ID: exp.ID, Claim: exp.Claim}
		var base float64
		baseRows := -1
		for i, v := range exp.Variants {
			rows, err := v.Run()
			if err != nil {
				fmt.Printf("  %-20s ERROR %v\n", v.Name, err)
				failed = true
				continue
			}
			if i == 0 {
				baseRows = rows
			} else if rows != baseRows {
				fmt.Printf("  %-20s ROW MISMATCH: %d vs baseline %d\n", v.Name, rows, baseRows)
				failed = true
			}
			prepared, err := v.Prepare()
			if err != nil {
				fmt.Printf("  %-20s ERROR %v\n", v.Name, err)
				failed = true
				continue
			}
			runtime.GC()
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := prepared.Exec(); err != nil {
						b.Fatal(err)
					}
				}
			})
			perOp := float64(res.NsPerOp())
			if i == 0 {
				base = perOp
			}
			speedup := 1.0
			if i > 0 && perOp > 0 {
				speedup = base / perOp
			}
			je.Variants = append(je.Variants, joinsVariant{
				Name: v.Name, NsPerOp: perOp, Rows: rows, Speedup: speedup,
			})
			rel := ""
			if i > 0 {
				rel = fmt.Sprintf("  (%.1fx vs %s)", speedup, exp.Variants[0].Name)
			}
			fmt.Printf("  %-20s %12.0f ns/op  %6d rows%s\n", v.Name, perOp, rows, rel)
		}
		report.Experiments = append(report.Experiments, je)
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

// explainReport is the machine-readable artifact of -explain.
type explainReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	Scale      int             `json:"scale"`
	Queries    []explainResult `json:"queries"`
}

type explainResult struct {
	Name       string  `json:"name"`
	DisabledNs float64 `json:"disabled_ns_per_op"`
	AnalyzeNs  float64 `json:"analyze_ns_per_op"`
	// Overhead is analyze-ns / disabled-ns: the full cost of collecting
	// the per-operator stats tree relative to the nil-sink fast path.
	Overhead float64 `json:"overhead"`
}

// runExplain measures the cost of EXPLAIN ANALYZE instrumentation: each
// query runs plain (nil stats sink, the fast path) and instrumented, and
// the results must render identically — instrumentation is observation,
// never behavior. The numbers land in outPath.
func runExplain(scale int, outPath string) bool {
	fmt.Println("== EXPLAIN ANALYZE overhead (nil-sink fast path vs instrumented) ==")
	db := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	if err := db.Register("emp", bench.FlatEmp(20000*scale, 20, 42)); err != nil {
		fmt.Println("ERROR:", err)
		return true
	}
	if err := db.Register("dept", bench.Departments(20, 42)); err != nil {
		fmt.Println("ERROR:", err)
		return true
	}
	queries := []struct{ name, q string }{
		{"scan-filter", `SELECT e.name AS n FROM emp AS e WHERE e.salary > 100000`},
		{"hash-join", `SELECT e.name AS n, d.name AS dn FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`},
		{"group", `SELECT e.deptno AS dno, AVG(e.salary) AS a FROM emp AS e GROUP BY e.deptno`},
		{"top-k", `SELECT VALUE e.name FROM emp AS e ORDER BY e.salary DESC LIMIT 10`},
	}
	report := explainReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale}
	failed := false
	ctx := context.Background()
	for _, tc := range queries {
		p, err := db.Prepare(tc.q)
		if err != nil {
			fmt.Printf("  %-12s ERROR %v\n", tc.name, err)
			failed = true
			continue
		}
		plain, err := p.Exec()
		if err != nil {
			fmt.Printf("  %-12s ERROR %v\n", tc.name, err)
			failed = true
			continue
		}
		inst, _, err := p.ExplainAnalyze(ctx)
		if err != nil {
			fmt.Printf("  %-12s instrumented ERROR %v\n", tc.name, err)
			failed = true
			continue
		}
		if plain.String() != inst.String() {
			fmt.Printf("  %-12s RESULT MISMATCH: instrumentation changed the result\n", tc.name)
			failed = true
			continue
		}
		runtime.GC()
		disabled := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(); err != nil {
					b.Fatal(err)
				}
			}
		})
		runtime.GC()
		analyze := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.ExplainAnalyze(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		dNs, aNs := float64(disabled.NsPerOp()), float64(analyze.NsPerOp())
		overhead := 0.0
		if dNs > 0 {
			overhead = aNs / dNs
		}
		report.Queries = append(report.Queries, explainResult{
			Name: tc.name, DisabledNs: dNs, AnalyzeNs: aNs, Overhead: overhead,
		})
		fmt.Printf("  %-12s disabled %12.0f ns/op   analyze %12.0f ns/op   (%.3fx)\n",
			tc.name, dNs, aNs, overhead)
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

// runFormats checks claim C5: the same query over the same data in four
// formats returns identical results, and reports decode throughput.
func runFormats(scale int) bool {
	fmt.Println("== Format independence (C5) ==")
	payload, err := bench.BuildFormatPayload(50*scale, 20)
	if err != nil {
		fmt.Println("ERROR:", err)
		return true
	}
	query := `SELECT sp.symbol AS symbol, AVG(sp.price) AS avg_price
	          FROM stock_prices AS sp GROUP BY sp.symbol`
	var reference value.Value
	failed := false
	sizes := map[string]int{
		"sion": len(payload.SION), "json": len(payload.JSON),
		"cbor": len(payload.CBOR), "csv": len(payload.CSV),
	}
	for _, format := range []string{"sion", "json", "cbor", "csv"} {
		f := format
		v, err := bench.DecodeFormat(payload, f)
		if err != nil {
			fmt.Printf("  %-5s decode ERROR: %v\n", f, err)
			failed = true
			continue
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(sizes[f]))
			for i := 0; i < b.N; i++ {
				if _, err := bench.DecodeFormat(payload, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		got, err := compatQuery(v, query)
		if err != nil {
			fmt.Printf("  %-5s query ERROR: %v\n", f, err)
			failed = true
			continue
		}
		same := "reference"
		if reference == nil {
			reference = got
		} else if value.Equivalent(reference, got) {
			same = "identical result"
		} else {
			same = "RESULT MISMATCH"
			failed = true
		}
		mbps := float64(sizes[f]) / (float64(res.NsPerOp()) / 1e9) / (1 << 20)
		fmt.Printf("  %-5s %8d bytes  decode %10.0f ns/op (%7.1f MiB/s)  %s\n",
			f, sizes[f], float64(res.NsPerOp()), mbps, same)
	}
	fmt.Println()
	return failed
}

func compatQuery(data value.Value, query string) (value.Value, error) {
	return compat.ExecuteValues(map[string]value.Value{"stock_prices": data}, query, false, false)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
