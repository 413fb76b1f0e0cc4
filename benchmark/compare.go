package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict classifies b against a for one metric. worse is the relative
// change in the metric's bad direction. A change inside the recorded
// run-to-run spread cannot be told from noise: it is unresolved when the
// spread itself exceeds the bound, unchanged otherwise.
func verdict(a, b metricValue) (string, float64) {
	if a.Value == 0 {
		if a.Bound == nil {
			return "info", 0
		}
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if a.Direction == "higher" {
		worse = -worse
	}
	spread := 0.0
	for _, s := range []*float64{a.Spread, b.Spread} {
		if s != nil && *s > spread {
			spread = *s
		}
	}
	if a.Bound == nil {
		return "info", worse
	}
	switch {
	case spread > *a.Bound:
		return "unresolved", worse
	case worse > *a.Bound:
		return "regressed", worse
	case worse < 0 && -worse > spread && -worse > *a.Bound:
		return "improved", worse
	}
	return "unchanged", worse
}

// compareFiles prints one row per (metric, workload) the two result files
// share, end-to-end metrics judged by the bounds recorded in them from
// BENCHMARK.json. It reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return false, fmt.Errorf("runs were made at GOMAXPROCS %d and %d: their numbers are not comparable", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	if a.Seed != b.Seed || a.Quick != b.Quick || a.WindowSeconds != b.WindowSeconds {
		fmt.Fprintf(w, "warning: runs differ in settings (seed %d/%d, quick %v/%v, window %gs/%gs)\n",
			a.Seed, b.Seed, a.Quick, b.Quick, a.WindowSeconds, b.WindowSeconds)
	}
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Workload] = wl
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-32s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "worse by", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-16s %-32s %14d %14d %9s  regressed\n", wa.Workload, "failed", wa.Failed, wb.Failed, "")
			regressed = true
		}
		// Per-layer metrics have no bound: their rows say "info" and show
		// the change, which is where the demoted timings are compared.
		for _, lists := range [][2][]metricValue{{wa.EndToEnd, wb.EndToEnd}, {wa.PerLayer, wb.PerLayer}} {
			mb := map[string]metricValue{}
			for _, m := range lists[1] {
				mb[m.Name] = m
			}
			for _, ma := range lists[0] {
				m, ok := mb[ma.Name]
				if !ok {
					continue
				}
				v, worse := verdict(ma, m)
				regressed = regressed || v == "regressed"
				fmt.Fprintf(w, "%-16s %-32s %14.6g %14.6g %+8.1f%%  %s\n", wa.Workload, ma.Name, ma.Value, m.Value, 100*worse, v)
			}
		}
	}
	return regressed, nil
}
