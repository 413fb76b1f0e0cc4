package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func quickOptions(t *testing.T) options {
	t.Helper()
	return options{seed: 7, seconds: 0.3, quick: true, runs: 1, outDir: t.TempDir()}
}

// Every metric BENCHMARK.json declares is emitted exactly once per
// workload, by both passes, with a valid name and a finite value; every
// answer is correct; and the trace each traced pass writes is well
// formed.
func TestQuickProfileEmitsDeclaredMetrics(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		w := findWorkload(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json declares unknown workload %q", dw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			o := quickOptions(t)
			wr := workloadResult{Workload: w.name, Correct: true}
			if err := endToEndRuns(w, o, decl, &wr); err != nil {
				t.Fatal(err)
			}
			tracePath := filepath.Join(o.outDir, "trace.json")
			if err := tracedPass(w, o, decl, tracePath, &wr); err != nil {
				t.Fatal(err)
			}
			if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", wr.Correct, wr.Attempted, wr.Failed, wr.FirstError)
			}
			checkEmitted(t, "end_to_end", decl.EndToEnd, wr.EndToEnd)
			checkEmitted(t, "per_layer", decl.PerLayer, wr.PerLayer)
			for _, m := range wr.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; end-to-end metrics are never 0", m.Name, m.Value)
				}
			}
			if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkEmitted(t *testing.T, kind string, decl []declMetric, got []metricValue) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range got {
		seen[m.Name]++
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s metric name %q is not valid", kind, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s metric %s is %v", kind, m.Name, m.Value)
		}
		if m.Unit == "" {
			t.Errorf("%s metric %s has no unit", kind, m.Name)
		}
	}
	for _, d := range decl {
		if seen[d.Name] != 1 {
			t.Errorf("%s metric %s emitted %d times, want once", kind, d.Name, seen[d.Name])
		}
	}
	if len(got) != len(decl) {
		t.Errorf("%d %s metrics emitted, %d declared", len(got), kind, len(decl))
	}
}

// The same seed gives byte-identical inputs and op texts; another seed
// gives different ones.
func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	render := func(seed int64) map[string][]byte {
		out := map[string][]byte{}
		for i := range workloads {
			w := &workloads[i]
			d := generate(w.quick, seed)
			p := w.build(d, w.quick, seed)
			for name, b := range p.in.json {
				out[w.name+"/"+name] = b
			}
			var texts bytes.Buffer
			for _, s := range p.streams {
				for _, o := range s {
					texts.WriteString(o.text)
					texts.Write(o.body)
					if o.write != nil {
						texts.WriteString(o.write.path)
						texts.Write(o.write.body)
					}
					texts.WriteByte('\n')
				}
			}
			out[w.name+"/ops"] = texts.Bytes()
		}
		ev := genEvents(seed, 0, 500)
		out["events.csv"], out["events.cbor"] = eventsCSV(ev), eventsCBOR(ev)
		out["events.sion"], out["events.jsonl"] = eventsSION(ev), eventsJSONLines(ev)
		return out
	}
	a, again, b := render(3), render(3), render(4)
	for name, x := range a {
		if !bytes.Equal(x, again[name]) {
			t.Errorf("%s differs between two generations from the same seed", name)
		}
		// The analytic and scatter query texts are fixed; only their data
		// and expected answers follow the seed.
		fixed := name == "embed-analytic/ops" || name == "shard-scatter/ops"
		if !fixed && bytes.Equal(x, b[name]) {
			t.Errorf("%s is identical for seeds 3 and 4", name)
		}
	}
}

// The correctness gate must actually close: a wrong expectation fails
// the run.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	w := findWorkload("embed-analytic")
	o := quickOptions(t)
	p := prepare(w, o)
	p.plan.streams[0][0].want.sum++
	topo, err := p.setup(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.stop()
	r, err := newRunner(p.plan, topo)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	wr := workloadResult{Correct: true}
	wr.absorb(r.closedLoop(0))
	if wr.Correct || wr.Failed != 1 || !strings.Contains(wr.FirstError, "checksum") {
		t.Fatalf("correct=%v failed=%d err=%q; want exactly the corrupted op to fail its checksum", wr.Correct, wr.Failed, wr.FirstError)
	}
}

func TestSpanTreeChecks(t *testing.T) {
	good := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "http.roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "shard.wire", Start: 20, End: 60},
		{ID: 4, Parent: 2, Op: 1, Name: "shard.wire", Start: 40, End: 80},
		{ID: 5, Parent: 0, Op: 2, Name: "op", Start: 100, End: 110},
	}
	if err := checkSpanTree(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	// Overlapping children are counted once: [20,80] of [10,90].
	if self := selfTimes(good)[2]; self != 20 {
		t.Errorf("self time of the round trip = %d, want 20", self)
	}
	for name, bad := range map[string][]span{
		"child outside parent": {good[0], {ID: 2, Parent: 1, Op: 1, Name: "x", Start: 50, End: 150}},
		"two roots":            {good[0], {ID: 2, Parent: 0, Op: 1, Name: "op", Start: 0, End: 1}},
		"unknown parent":       {good[0], {ID: 2, Parent: 9, Op: 1, Name: "x", Start: 1, End: 2}},
		"parent in another op": {good[0], good[4], {ID: 6, Parent: 5, Op: 1, Name: "x", Start: 101, End: 102}},
		"ends before start":    {{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 5, End: 4}},
	} {
		if checkSpanTree(bad) == nil {
			t.Errorf("%s: malformed tree accepted", name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := iqrShare(xs); s != 1 {
		t.Errorf("iqrShare = %v, want 1", s)
	}
}

func TestMedianAveragesTheMiddlePair(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 1,3,5 = %v, want 3", m)
	}
}

// Two cycles of connection 0, 1 s and 3 s long, with 4 and 6 answers of
// all connections inside them: 4/s and 2/s, median 3/s. A whole-window
// mean would say 2.5/s.
func TestCycleQPSIsTheMedianCycleRate(t *testing.T) {
	l := &loopResult{marks: []int64{1e9, 4e9}}
	for _, at := range []int64{1, 2, 3, 1e9, 2e9, 2e9, 3e9, 3e9, 4e9, 4e9} {
		l.samples = append(l.samples, sample{at: at})
	}
	if q := l.cycleQPS(); q != 3 {
		t.Errorf("cycleQPS = %v, want 3", q)
	}
}

func TestSplitEnvelope(t *testing.T) {
	raw, cached, us, err := splitEnvelope([]byte(`{"result":[{"a":1}],"cached":true,"elapsed_us":42,"plan":["x"]}` + "\n"))
	if err != nil || string(raw) != `[{"a":1}]` || !cached || us != 42 {
		t.Errorf("fast path: %q %v %d %v", raw, cached, us, err)
	}
	raw, cached, us, err = splitEnvelope([]byte(`{"cached":false,"result":[1],"elapsed_us":7}`))
	if err != nil || string(raw) != `[1]` || cached || us != 7 {
		t.Errorf("slow path: %q %v %d %v", raw, cached, us, err)
	}
	if _, _, _, err := splitEnvelope([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// Results taken at different GOMAXPROCS are not comparable; -compare
// says so instead of printing verdicts.
func TestCompareRefusesAnotherGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	ra, rb := newResult(1, true, 1, 1), newResult(1, true, 1, 1)
	rb.GOMAXPROCS = ra.GOMAXPROCS + 1
	if err := writeJSON(a, ra); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, rb); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, a, b); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("compare of runs at %d and %d procs: err = %v, want a refusal", ra.GOMAXPROCS, rb.GOMAXPROCS, err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, a, a); err != nil {
		t.Errorf("compare of a run with itself: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound, tight, wide := 0.10, 0.02, 0.30
	m := func(v float64, dir string, spread *float64) metricValue {
		return metricValue{Name: "m", Value: v, Direction: dir, Bound: &bound, Spread: spread}
	}
	for _, c := range []struct {
		a, b metricValue
		want string
	}{
		{m(100, "lower", &tight), m(105, "lower", &tight), "unchanged"},
		{m(100, "lower", &tight), m(120, "lower", &tight), "regressed"},
		{m(100, "lower", &tight), m(80, "lower", &tight), "improved"},
		{m(100, "higher", &tight), m(80, "higher", &tight), "regressed"},
		{m(100, "higher", &tight), m(125, "higher", &tight), "improved"},
		{m(100, "lower", &wide), m(150, "lower", &tight), "unresolved"},
		// A per-layer metric has no bound: whatever it did is information.
		{metricValue{Name: "m", Value: 100, Direction: "lower"}, metricValue{Name: "m", Value: 150, Direction: "lower"}, "info"},
		{metricValue{Name: "m", Value: 0, Direction: "lower"}, metricValue{Name: "m", Value: 0, Direction: "lower"}, "info"},
	} {
		if got, _ := verdict(c.a, c.b); got != c.want {
			t.Errorf("%v → %v (%s is better): got %s, want %s", c.a.Value, c.b.Value, c.a.Direction, got, c.want)
		}
	}
}
