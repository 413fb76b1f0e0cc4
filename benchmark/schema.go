package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// declaration mirrors BENCHMARK.json, the one place metric names, units,
// directions and regression bounds are written down. The program reads
// it rather than repeating it, so a metric it computes but the file does
// not declare (or the reverse) is an error, not a silent drift.
type declaration struct {
	Workloads []declWorkload `json:"workloads"`
	EndToEnd  []declMetric   `json:"end_to_end"`
	PerLayer  []declMetric   `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
}

type declMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadDeclaration finds BENCHMARK.json in the working directory (the
// checkout root, as the wrapper script runs the program) or its parent
// (as `go test` runs it, inside benchmark/).
func loadDeclaration() (*declaration, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &d, nil
	}
	return nil, firstErr
}

// metricValue is one reported number in the result file.
type metricValue struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Value     float64  `json:"value"`
	N         int      `json:"n"`
	Direction string   `json:"direction"`
	Bound     *float64 `json:"bound,omitempty"`
	// Spread is the interquartile range over the median across -runs
	// repetitions; absent for a single run.
	Spread *float64 `json:"spread,omitempty"`
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Workload   string        `json:"workload"`
	Correct    bool          `json:"correct"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	FirstError string        `json:"first_error,omitempty"`
	EndToEnd   []metricValue `json:"end_to_end,omitempty"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`
	// Extra holds numbers that apply to this workload only (per-class
	// medians, ingest rate, open-loop latencies); BENCHMARK.json cannot
	// declare them because every declared metric is reported by every
	// workload.
	Extra []metricValue `json:"extra,omitempty"`
	// demoted holds the untraced windows' metrics that BENCHMARK.json lists
	// per layer, not end to end, between the two passes, and windowOps the
	// ops one of those windows measured.
	demoted   metrics
	windowOps int
}

// result is the file -out writes: where and how the run was made, then
// one entry per workload.
type result struct {
	Host        string `json:"host"`
	Cores       int    `json:"cores"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	Seed        int64  `json:"seed"`
	Quick       bool   `json:"quick"`
	// WindowSeconds is the measured time of one end-to-end pass, split
	// evenly between WindowReps windows, each over a fresh set-up.
	WindowSeconds float64 `json:"window_seconds"`
	WindowReps    int     `json:"window_reps"`
	// TracedSeconds is the length of each of the traced pass's two
	// replays (untraced baseline, then traced).
	TracedSeconds float64          `json:"traced_seconds"`
	Runs          int              `json:"runs"`
	Workloads     []workloadResult `json:"workloads"`
}

func newResult(seed int64, quick bool, seconds float64, runs int) *result {
	host, _ := os.Hostname()
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	reps := windowReps
	if quick {
		reps = quickReps
	}
	return &result{Host: host, Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: rev, Seed: seed, Quick: quick, WindowSeconds: seconds, WindowReps: reps,
		TracedSeconds: tracedShare * seconds, Runs: runs}
}

// declared turns computed values into result entries in declaration
// order, failing on any name computed but not declared, declared but
// not computed, or not a finite number.
func declared(decl []declMetric, got metrics, n int) ([]metricValue, error) {
	out := make([]metricValue, 0, len(decl))
	seen := map[string]bool{}
	for _, d := range decl {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		seen[d.Name] = true
		out = append(out, metricValue{Name: d.Name, Unit: d.Unit, Value: v, N: n, Direction: d.Better, Bound: d.Bound})
	}
	for name := range got {
		if !seen[name] {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// contractLine is the last line of standard output: the object the
// harness that runs BENCHMARK.json's command reads.
func contractLine(w *workloadResult, ms []metricValue) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, map[string]mv{}}
	for _, m := range ms {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // finite floats and strings cannot fail to encode
	return string(b)
}
