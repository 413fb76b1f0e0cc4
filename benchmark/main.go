// Command benchmark is the repository's one measurement harness: four
// seeded workloads over the default production path, end-to-end metrics
// with tracing off, and a traced pass that accounts for the time layer
// by layer from outside the engine. See README.md in this directory and
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0: end-to-end pass only, 1: the traced pass too
	quick    bool
	outDir   string
	out      string
	runs     int
}

// procs is the GOMAXPROCS of every run: the two cores the load shape is
// defined for (two client connections, or one caller and the engine's
// parallel scans). It is a constant, not a flag: results taken at another
// value are not comparable, and -compare refuses to compare them.
const procs = 2

// init and not main, so the package's tests measure at the same setting.
func init() { runtime.GOMAXPROCS(procs) }

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time of the end-to-end pass, split between its windows; the traced pass scales with it")
	flag.IntVar(&o.trace, "trace", 1, "0: end-to-end pass only, last line carries the end-to-end metrics; 1: the traced pass too, last line carries the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "small data, for tests")
	flag.StringVar(&o.outDir, "outdir", "", "directory for result-<workload>.json and trace-<workload>.json")
	flag.StringVar(&o.out, "out", "", "write the combined result file here")
	flag.IntVar(&o.runs, "runs", 1, "repeat the end-to-end pass and report medians with their spread")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	ok, err := run(o)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes the selected workloads and passes, prints every metric by
// name with its unit, and ends standard output with the contract line.
// It reports false when any result was wrong.
func run(o options) (bool, error) {
	decl, err := loadDeclaration()
	if err != nil {
		return false, err
	}
	selected := workloads
	if o.workload != "all" {
		w := findWorkload(o.workload)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return false, err
		}
	}
	res := newResult(o.seed, o.quick, o.seconds, o.runs)
	allOK := true
	var last *workloadResult
	var lastMetrics []metricValue
	for i := range selected {
		w := &selected[i]
		wr := workloadResult{Workload: w.name, Correct: true}
		// The traced pass needs the end-to-end pass too: the metrics that
		// were demoted from the end-to-end list are per-layer metrics now,
		// and they are still measured with tracing off.
		if err := endToEndRuns(w, o, decl, &wr); err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		lastMetrics = wr.EndToEnd
		if o.trace == 0 {
			// No traced pass will report them, so list them here.
			for _, d := range decl.PerLayer {
				if v, ok := wr.demoted[d.Name]; ok {
					wr.Extra = append(wr.Extra, metricValue{Name: d.Name, Unit: d.Unit, Value: v, N: wr.windowOps, Direction: d.Better})
				}
			}
		} else {
			tracePath := ""
			if o.outDir != "" {
				tracePath = filepath.Join(o.outDir, "trace-"+w.name+".json")
			}
			if err := tracedPass(w, o, decl, tracePath, &wr); err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			lastMetrics = wr.PerLayer
		}
		printWorkload(&wr)
		allOK = allOK && wr.Correct
		res.Workloads = append(res.Workloads, wr)
		last = &res.Workloads[len(res.Workloads)-1]
		if o.outDir != "" {
			one := *res
			one.Workloads = []workloadResult{wr}
			if err := writeJSON(filepath.Join(o.outDir, "result-"+w.name+".json"), &one); err != nil {
				return false, err
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return false, err
		}
	}
	fmt.Println(contractLine(last, lastMetrics))
	return allOK, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printWorkload(w *workloadResult) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", w.Workload, w.Correct, w.Attempted, w.Failed)
	if w.FirstError != "" {
		fmt.Printf("   first error: %s\n", w.FirstError)
	}
	for _, group := range []struct {
		title string
		ms    []metricValue
	}{{"end-to-end", w.EndToEnd}, {"per-layer", w.PerLayer}, {"this workload only", w.Extra}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Printf("-- %s\n", group.title)
		for _, m := range group.ms {
			spread := ""
			if m.Spread != nil {
				spread = fmt.Sprintf("  spread=%.3f", *m.Spread)
			}
			fmt.Printf("   %-46s %16.6g %-8s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, spread)
		}
	}
}

// One end-to-end pass of a workload is windowReps repetitions of set up →
// warm up → measured window, each window a share of -seconds, and every
// metric is the median over the repetitions. Two windows over two fresh
// set-ups of the same inputs differ by as much as two runs of the whole
// program do (heap layout, map seeds, where the connections landed), so
// one long window over one set-up repeats worse than several short ones.
// The quick profile repeats twice, enough to exercise the path.
//
// setup_s is the median over those set-ups; a set-up that takes well under
// a second is repeated further, up to maxSetups times in all, because a
// 40 ms measurement taken five times is not steady and more cost nothing.
const (
	windowReps    = 5
	quickReps     = 2
	maxSetups     = 11
	cheapSetupSec = 0.5
)

// bench is a generated dataset with its op plan, ready to set up.
type bench struct {
	w    *workload
	sz   sizes
	data *dataset
	plan *opPlan
}

func prepare(w *workload, o options) *bench {
	sz := w.full
	if o.quick {
		sz = w.quick
	}
	d := generate(sz, o.seed)
	return &bench{w: w, sz: sz, data: d, plan: w.build(d, sz, o.seed)}
}

func (p *bench) setup(hk hooks) (*topology, error) {
	switch p.w.topo {
	case topoServed:
		return setupServed(p.plan.in, hk)
	case topoSharded:
		return setupSharded(p.plan.in, 2, hk)
	}
	db, err := setupEmbedded(p.plan.in)
	if err != nil {
		return nil, err
	}
	return &topology{engine: db}, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (w *workloadResult) absorb(l *loopResult) {
	w.Attempted += l.attempted
	w.Failed += l.failed
	if l.failed > 0 {
		w.Correct = false
		if w.FirstError == "" && l.firstErr != nil {
			w.FirstError = l.firstErr.Error()
		}
	}
}

// endToEnd is one end-to-end pass with tracing off. It returns the
// medians over the repetitions of the declared metrics and of the numbers
// that apply to this workload only, and the ops one window measured.
func endToEnd(w *workload, o options, wr *workloadResult) (metrics, *extraList, int, error) {
	p := prepare(w, o)
	reps := windowReps
	if o.quick {
		reps = quickReps
	}
	dur := time.Duration(o.seconds / float64(reps) * float64(time.Second))
	var e2es []metrics
	var extras []*extraList
	var setups []float64
	var cursor []int
	for rep := 0; rep < reps; rep++ {
		before := heapAlloc()
		t0 := time.Now()
		topo, err := p.setup(hooks{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		resident := float64(heapAlloc()) - float64(before)
		e2e, extra, next, err := p.window(topo, cursor, dur, rep == reps-1, wr)
		topo.stop()
		if err != nil {
			return nil, nil, 0, err
		}
		e2e["resident_bytes_per_input_byte"] = resident / float64(p.plan.in.bytes())
		e2es, extras, cursor = append(e2es, e2e), append(extras, extra), next
	}
	for !o.quick && len(setups) < maxSetups && median(setups) < cheapSetupSec {
		t0 := time.Now()
		topo, err := p.setup(hooks{})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		topo.stop()
	}
	e2e := medians(e2es)
	e2e["setup_s"] = median(setups)
	extra := medianExtras(extras)
	extra.add("setup_reps", "count", float64(len(setups)))
	return e2e, extra, extra.n, nil
}

// window warms a fresh topology up and measures one closed-loop window on
// it. cursor is where the previous repetition's streams stopped (nil for
// the first): the first warm-up runs every stream through once, which
// checks every distinct op against its expected answer; a later one runs
// one cycle, enough to fill the new server's plan cache with the repeated
// texts. The last repetition of a workload that has an open-loop phase
// runs it after its window.
func (p *bench) window(topo *topology, cursor []int, dur time.Duration, last bool, wr *workloadResult) (metrics, *extraList, []int, error) {
	r, err := newRunner(p.plan, topo)
	if err != nil {
		return nil, nil, nil, err
	}
	defer r.close()
	if cursor == nil {
		wr.absorb(r.closedLoop(0))
	} else {
		r.cursor = cursor
		wr.absorb(r.closedLoop(1))
	}
	runtime.GC()
	win := r.closedLoop(dur)
	wr.absorb(win)
	if len(win.samples) == 0 {
		return nil, nil, nil, fmt.Errorf("no operation succeeded: %v", win.firstErr)
	}

	lat := win.latencies(len(p.plan.classes))
	ok := float64(len(win.samples))
	e2e := metrics{
		"qps":                  win.cycleQPS(),
		"lat_p50_ms":           lat.p50,
		"lat_p95_ms":           lat.p95,
		"lat_p99_ms":           lat.p99,
		"class_p50_geomean_ms": lat.geomeanMS,
		"alloc_kb_per_op":      float64(win.allocs) / 1024 / ok,
		"fail_share":           ratio(float64(win.failed), float64(win.attempted)),
		"shed_share":           ratio(float64(win.shed), float64(win.attempted)),
	}
	extra := &extraList{n: len(win.samples)}
	extra.add("qps_whole_window", "1/s", ok/win.elapsed.Seconds())
	extra.add("cycles", "count", float64(len(win.marks)))
	extra.add("input_bytes", "B", float64(p.plan.in.bytes()))
	for c, name := range p.plan.classes {
		extra.add("class."+name+".p50_ms", "ms", lat.classP50[c])
		extra.add("class."+name+".n", "count", float64(lat.classN[c]))
	}
	if win.rows > 0 {
		extra.add("ingest_rows_per_s", "1/s", float64(win.rows)/win.elapsed.Seconds())
	}
	if win.hits+win.misses > 0 {
		extra.add("plancache_hit_ratio", "ratio", ratio(float64(win.hits), float64(win.hits+win.misses)))
	}
	if last && len(p.w.openRates) > 0 {
		wr.openPhase(r, p.w, dur, extra)
	}
	return e2e, extra, r.cursor, nil
}

// medians reduces the repetitions' values of each metric to their median.
func medians(reps []metrics) metrics {
	out := metrics{}
	for name := range reps[0] {
		xs := make([]float64, len(reps))
		for i, m := range reps {
			xs[i] = m[name]
		}
		out[name] = median(xs)
	}
	return out
}

// medianExtras does the same for the numbers outside the declaration,
// keeping their order; one that only some repetitions report (the
// open-loop phase follows the last window only) is the median of those.
func medianExtras(reps []*extraList) *extraList {
	out := &extraList{n: reps[len(reps)-1].n}
	seen := map[string]bool{}
	for _, rep := range reps {
		for _, m := range rep.ms {
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			var xs []float64
			for _, other := range reps {
				for _, x := range other.ms {
					if x.Name == m.Name {
						xs = append(xs, x.Value)
					}
				}
			}
			out.add(m.Name, m.Unit, median(xs))
		}
	}
	return out
}

// openPhase offers the workload's op streams at each frozen rate in turn,
// for dur each, and reports latency from each request's due time, the
// share shed, the highest rate that was sustained, and (at the middle
// rate) how late the generator ran.
func (wr *workloadResult) openPhase(r *runner, w *workload, dur time.Duration, extra *extraList) {
	sustained := 0.0
	for i, rate := range w.openRates {
		res := r.openLoop(rate, dur)
		wr.absorb(&loopResult{attempted: res.offered, failed: res.failed, firstErr: res.firstErr})
		at := fmt.Sprintf(".r%.0f", rate)
		extra.add("server.open_p50_ms"+at, "ms", res.p50)
		extra.add("server.open_p99_ms"+at, "ms", res.p99)
		extra.add("server.open_shed_share"+at, "share", ratio(float64(res.shed), float64(res.offered)))
		if i == len(w.openRates)/2 {
			extra.add("open_p50_ms", "ms", res.p50)
			extra.add("open_p99_ms", "ms", res.p99)
			extra.add("bench.generator_late_p99_ms", "ms", res.lateP99)
		}
		if res.ok(w.openLimitMS) {
			sustained = rate
		}
	}
	extra.add("max_rate_ok_rps", "1/s", sustained)
}

// extraList collects the numbers that apply to one workload only.
type extraList struct {
	n  int
	ms []metricValue
}

func (e *extraList) add(name, unit string, v float64) {
	e.ms = append(e.ms, metricValue{Name: name, Unit: unit, Value: v, N: e.n, Direction: "info"})
}

// endToEndRuns repeats the end-to-end pass -runs times and reports each
// metric's median, with the interquartile spread when there are enough
// runs to have one.
func endToEndRuns(w *workload, o options, decl *declaration, wr *workloadResult) error {
	var all []metrics
	var extra *extraList
	n := 0
	for i := 0; i < o.runs; i++ {
		e2e, ex, samples, err := endToEnd(w, o, wr)
		if err != nil {
			return err
		}
		all, extra, n = append(all, e2e), ex, samples
	}
	med := metrics{}
	spreads := map[string]float64{}
	for name := range all[0] {
		xs := make([]float64, len(all))
		for i, m := range all {
			xs[i] = m[name]
		}
		med[name] = median(xs)
		if len(xs) >= 4 {
			spreads[name] = iqrShare(xs)
		}
	}
	// What the windows measured and BENCHMARK.json does not list as an
	// end-to-end metric is a demoted one: the traced pass reports it among
	// the per-layer metrics, where the declaration is checked again.
	bounded := metrics{}
	for _, d := range decl.EndToEnd {
		if v, ok := med[d.Name]; ok {
			bounded[d.Name] = v
			delete(med, d.Name)
		}
	}
	wr.demoted, wr.windowOps = med, n
	ms, err := declared(decl.EndToEnd, bounded, n)
	if err != nil {
		return err
	}
	for i := range ms {
		if s, ok := spreads[ms[i].Name]; ok {
			ms[i].Spread = &s
		}
	}
	wr.EndToEnd = ms
	wr.Extra = extra.ms
	return nil
}

// tracedShare is the share of -seconds each of the traced pass's two
// replays takes; the layer probes take the rest and more.
const tracedShare = 0.3

// tracedPass sets the workload up once with the benchmark's probes
// installed, measures an untraced and a traced single-connection replay
// of the op streams, and runs the layer probes.
func tracedPass(w *workload, o options, decl *declaration, tracePath string, wr *workloadResult) error {
	p := prepare(w, o)
	tr := newTracer()
	topo, err := p.setup(tr.hooks())
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer topo.stop()
	r, err := newRunner(p.plan, topo)
	if err != nil {
		return err
	}
	defer r.close()
	ref, err := newReference(p.plan.refIn)
	if err != nil {
		return err
	}
	wr.absorb(r.closedLoop(0))
	runtime.GC()

	// Both replays start at the streams' first op (the warm-up ran each
	// stream through once), where ingest-mixed's writer replaces the
	// collection: the traced replay executes exactly the ops the untraced
	// one did, from the same collection state.
	part := time.Duration(o.seconds * tracedShare * float64(time.Second))
	from := append([]int(nil), r.cursor...)
	plainOps, plain := r.seqLoop(part, 0, nil, nil)
	wr.absorb(plain)
	copy(r.cursor, from)
	tracedOps, traced := r.seqLoop(0, len(plainOps)/p.plan.roundLen(), tr, ref)
	wr.absorb(traced)
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return fmt.Errorf("no operation succeeded: %v %v", plain.firstErr, traced.firstErr)
	}
	if err := checkSpanTree(tr.spans); err != nil {
		return fmt.Errorf("trace is malformed: %w", err)
	}
	if tracePath != "" {
		if err := tr.write(tracePath); err != nil {
			return err
		}
	}
	attachSpans(tracedOps, tr.spans)

	m := metrics{}
	sh := shares(tracedOps, w.topo == topoSharded)
	m["share.prepare"], m["share.exec"], m["share.encode"] = sh.prepare, sh.exec, sh.encode
	m["share.ingest"], m["share.shard"], m["share.server"] = sh.ingest, sh.shard, sh.server
	var plainNS, tracedNS, stagedNS float64
	for i := range tracedOps {
		plainNS += float64(plainOps[i].real)
		tracedNS += float64(tracedOps[i].real)
		stagedNS += float64(tracedOps[i].staged())
	}
	m["bench.trace_overhead_share"] = tracedNS/plainNS - 1
	for name, v := range wr.demoted {
		m[name] = v
	}
	if w.topo != topoEmbedded {
		// Embedded, the one stage is the call itself and the ratio would be
		// 1 + overhead by construction, so it is not reported.
		wr.Extra = append(wr.Extra, metricValue{Name: "bench.trace_coverage", Unit: "ratio",
			Value: stagedNS / plainNS, N: len(tracedOps), Direction: "info"})
	}

	if w.topo == topoServed {
		serverMetrics(m, tracedOps, topo.front.srv.Metrics().Shed.Load())
	} else if err := probeServer(m, ref, p.data, p.sz, part/2); err != nil {
		return err
	}
	if err := probePrepare(m, ref, p.plan); err != nil {
		return err
	}
	if err := probeExec(m, ref, p.data, p.sz); err != nil {
		return err
	}
	probeValue(m, ref)
	if err := probeWritePath(m, ref); err != nil {
		return err
	}
	formatRows := 20000
	if o.quick {
		formatRows = 1000
	}
	if err := probeFormats(m, ref, o.seed, formatRows); err != nil {
		return err
	}
	if err := probeShard(m, p.data, p.sz); err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	wr.PerLayer, err = declared(decl.PerLayer, m, len(tracedOps))
	for i := range wr.PerLayer {
		if _, ok := wr.demoted[wr.PerLayer[i].Name]; ok {
			wr.PerLayer[i].N = wr.windowOps
		}
	}
	return err
}
