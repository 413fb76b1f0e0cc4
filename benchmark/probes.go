package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sqlpp"
	"sqlpp/internal/catalog"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/index"
	"sqlpp/internal/server"
	"sqlpp/internal/shard"
	"sqlpp/internal/sion"
	"sqlpp/internal/stats"
	"sqlpp/internal/value"
)

// The layer probes time calls into each layer's public functions from
// outside, on the workload's own data and query texts. Every traced pass
// runs all of them, so each per-layer metric exists for each workload;
// what differs between workloads is the data scale and the texts.

type metrics map[string]float64

func memDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// distinctTexts lists the plan's distinct query texts (first op of each),
// capped so the prepare probe stays short.
func distinctTexts(p *opPlan, limit int) []*op {
	seen := map[string]bool{}
	var out []*op
	for _, s := range p.streams {
		for _, o := range s {
			if o.write == nil && !seen[o.text] && len(out) < limit {
				seen[o.text] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// probePrepare takes the workload's texts through the prepare pipeline,
// once stage by stage and once through Engine.Prepare. Times are medians
// over all texts and repetitions: a garbage-collection cycle landing in
// one call would otherwise be charged to whichever stage it hit.
func probePrepare(m metrics, ref *reference, p *opPlan) error {
	texts := distinctTexts(p, 512)
	reps := 1 + 600/len(texts)
	var lex, parse, rewrite, sema, optimize, staged, prep []float64
	var counts stageTimes
	prepareOn := func(o *op) error {
		if o.params == nil {
			_, err := ref.engine.Prepare(o.text)
			return err
		}
		_, err := ref.engine.PrepareParams(o.text, paramNames(o.params)...)
		return err
	}
	// The staged replay and the one-call Prepare of a text run back to
	// back, so both see the same machine and collector state.
	for rep := 0; rep < reps; rep++ {
		for _, o := range texts {
			st, err := ref.stages(o.text, paramNames(o.params), nil)
			if err != nil {
				return fmt.Errorf("stages of %q: %w", o.text, err)
			}
			t0 := time.Now()
			if err := prepareOn(o); err != nil {
				return err
			}
			prep = append(prep, float64(time.Since(t0).Nanoseconds()))
			lex = append(lex, float64(st.lexNS))
			parse = append(parse, float64(st.parseNS))
			rewrite = append(rewrite, float64(st.rewriteNS))
			sema = append(sema, float64(st.semaNS))
			optimize = append(optimize, float64(st.optimizeNS))
			// Engine.Prepare = parse + rewrite + optimize (no sema by default).
			staged = append(staged, float64(st.parseNS+st.rewriteNS+st.optimizeNS))
			counts.tokens += st.tokens
			counts.astNodes += st.astNodes
			counts.coreNodes += st.coreNodes
			counts.notes += st.notes
		}
	}
	var perr error
	mallocs, bytes := memDelta(func() {
		for _, o := range texts {
			if perr = prepareOn(o); perr != nil {
				return
			}
		}
	})
	if perr != nil {
		return perr
	}
	q := float64(len(lex))
	m["lexer.ns_per_query"] = median(lex)
	m["lexer.tokens_per_query"] = float64(counts.tokens) / q
	// parser.Parse lexes internally; its self time is what is left.
	m["parser.self_ns_per_query"] = median(parse) - median(lex)
	m["parser.ast_nodes_per_query"] = float64(counts.astNodes) / q
	m["rewrite.ns_per_query"] = median(rewrite)
	m["rewrite.core_nodes_per_query"] = float64(counts.coreNodes) / q
	m["sema.ns_per_query"] = median(sema)
	m["plan.optimize_ns_per_query"] = median(optimize)
	m["plan.notes_per_query"] = float64(counts.notes) / q
	m["prepare.ns_per_query"] = median(prep)
	m["prepare.allocs_per_query"] = float64(mallocs) / float64(len(texts))
	m["prepare.bytes_per_query"] = float64(bytes) / float64(len(texts))
	m["prepare.stage_coverage"] = ratio(median(staged), median(prep))
	return nil
}

// probeExec runs the six analytic classes on the reference engine.
func probeExec(m metrics, ref *reference, d *dataset, sz sizes) error {
	ctx := context.Background()
	var plainNS, explainNS float64
	for _, o := range analyticOps(d, sz) {
		name := "plan.exec." + analyticClasses[o.class]
		prep, err := ref.engine.Prepare(o.text)
		if err != nil {
			return err
		}
		v, tree, err := prep.ExplainAnalyze(ctx)
		if err != nil {
			return err
		}
		if err := o.checkValue(v); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		examined := int64(0)
		tree.Walk(func(s *sqlpp.OpStats) {
			switch s.Op {
			case "scan":
				examined += s.RowsIn
			case "index_probe", "index_range": // the candidates the index handed over
				examined += s.RowsOut
			}
		})
		results, _ := value.Elements(v)
		var lat, elat []float64
		reps := 0
		start := time.Now()
		mallocs, bytes := memDelta(func() {
			for reps < 3 || (time.Since(start) < 300*time.Millisecond && reps < 200) {
				t0 := time.Now()
				if _, err = prep.ExecContext(ctx); err != nil {
					return
				}
				lat = append(lat, float64(time.Since(t0).Nanoseconds()))
				reps++
			}
		})
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, _, err := prep.ExplainAnalyze(ctx); err != nil {
				return err
			}
			elat = append(elat, float64(time.Since(t0).Nanoseconds()))
		}
		p50 := median(lat)
		plainNS += p50
		explainNS += median(elat)
		rows := float64(examined) * float64(reps)
		m[name+".p50_ms"] = p50 / 1e6
		m[name+".ns_per_row"] = ratio(p50, float64(examined))
		m[name+".allocs_per_row"] = ratio(float64(mallocs), rows)
		m[name+".bytes_per_row"] = ratio(float64(bytes), rows)
		m[name+".rows_examined_per_result"] = ratio(float64(examined), float64(len(results)))
	}
	m["plan.explain_overhead_share"] = ratio(explainNS, plainNS) - 1
	return nil
}

// probeValue times the value model's three hot primitives over emp rows.
func probeValue(m metrics, ref *reference) {
	v, _ := ref.engine.Lookup("emp")
	elems, _ := value.Elements(v)
	if len(elems) > 4096 {
		elems = elems[:4096]
	}
	var tuples []*value.Tuple
	var sal, dept []value.Value
	for _, e := range elems {
		t := e.(*value.Tuple)
		tuples = append(tuples, t)
		if s, ok := t.Get("salary"); ok {
			sal = append(sal, s)
		}
		d, _ := t.Get("deptno")
		dept = append(dept, d)
	}
	// Each primitive is timed over the sample 50 times; the median pass
	// is reported, so one collector cycle cannot move the figure.
	const reps = 50
	sink := 0
	perCall := func(calls int, pass func()) float64 {
		times := make([]float64, reps)
		for r := range times {
			t0 := time.Now()
			pass()
			times[r] = float64(time.Since(t0).Nanoseconds())
		}
		return ratio(median(times), float64(calls))
	}
	m["value.compare_ns"] = perCall(len(sal)-1, func() {
		for i := 1; i < len(sal); i++ {
			sink += value.Compare(sal[i-1], sal[i])
		}
	})
	var key []byte
	m["value.key_ns"] = perCall(len(dept), func() {
		for _, d := range dept {
			key = value.AppendKey(key[:0], d)
			sink += len(key)
		}
	})
	m["value.tuple_get_ns"] = perCall(len(tuples), func() {
		for _, t := range tuples {
			if _, ok := t.Get("hired"); ok { // the last attribute: a full scan of the tuple
				sink++
			}
		}
	})
	runtime.KeepAlive(sink) // the measured calls must not be optimised away
}

// probeWritePath reports what loading the reference catalog cost, then
// times incremental appends and index probes on an emp sample.
func probeWritePath(m metrics, ref *reference) error {
	b := ref.build
	m["stats.build_ns_per_row"] = ratio(float64(b.statsNS), float64(b.rows))
	// catalog.Register builds statistics inside; its self time is the rest.
	m["catalog.register_self_ns_per_row"] = ratio(float64(b.registerNS-b.statsNS), float64(b.rows))

	v, _ := ref.engine.Lookup("emp")
	elems, _ := value.Elements(v)
	if len(elems) > 20000 {
		elems = elems[:20000]
	}
	specs := []index.Spec{
		{Name: "p_id", Collection: "p", Path: []string{"id"}, Kind: index.Hash},
		{Name: "p_salary", Collection: "p", Path: []string{"salary"}, Kind: index.Ordered},
	}
	head := len(elems) * 9 / 10
	base := value.Bag(elems[:head])
	cat := catalog.New()
	if err := cat.Register("p", base); err != nil {
		return err
	}
	st, err := stats.Build(base, nil)
	if err != nil {
		return err
	}
	var idx []*index.Index
	var buildNS int64
	for _, spec := range specs {
		t0 := time.Now()
		ix, err := index.Build(spec, base, nil)
		buildNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		idx = append(idx, ix)
		if err := cat.CreateIndex(spec, nil); err != nil {
			return err
		}
	}
	m["index.build_ns_per_row"] = ratio(float64(buildNS), float64(len(specs)*head))

	// Appends go in batches of 250 rows, as ingest-mixed sends them; each
	// figure is the median over the batches.
	epoch := cat.Epoch()
	var statsNS, indexNS, selfNS []float64
	cur := elems[:head:head]
	for lo := head; lo < len(elems); lo += appendRows {
		hi := lo + appendRows
		if hi > len(elems) {
			hi = len(elems)
		}
		batch := elems[lo:hi]
		cur = append(cur, batch...)
		t0 := time.Now()
		if st, err = st.Extended(batch, nil); err != nil {
			return err
		}
		t1 := time.Now()
		for i := range idx {
			if idx[i], err = idx[i].Extended(value.Bag(cur), batch, nil); err != nil {
				return err
			}
		}
		t2 := time.Now()
		if err := cat.Append("p", batch, nil); err != nil {
			return err
		}
		n := float64(len(batch))
		stats, index, all := float64(t1.Sub(t0).Nanoseconds()), float64(t2.Sub(t1).Nanoseconds()), float64(time.Since(t2).Nanoseconds())
		statsNS = append(statsNS, stats/n)
		indexNS = append(indexNS, index/n/float64(len(idx)))
		// catalog.Append extends statistics and indexes inside; its self
		// time is what is left.
		selfNS = append(selfNS, (all-stats-index)/n)
	}
	m["stats.extend_ns_per_row"] = median(statsNS)
	m["index.extend_ns_per_row"] = median(indexNS)
	m["catalog.append_self_ns_per_row"] = median(selfNS)
	m["catalog.epoch_bumps"] = float64(b.epochBumps + cat.Epoch() - epoch)

	// Probes: one equality lookup per row id, and salary bands of 1%.
	const reps = 20
	hits := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < len(elems); i += 7 {
			hits += len(idx[0].Lookup(value.Int(int64(i))))
		}
	}
	m["index.lookup_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(reps*((len(elems)+6)/7)))
	hits = 0
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for lo := salaryLo; lo < salaryLo+salarySpan; lo += salarySpan / 100 {
			pos, err := idx[1].Range(value.Int(int64(lo)), value.Int(int64(lo+salarySpan/100)), true, false, nil)
			if err != nil {
				return err
			}
			hits += len(pos)
		}
	}
	m["index.range_ns_per_hit"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(hits))
	return nil
}

// probeFormats decodes the same 20,000 generated events from each ingest
// format and encodes a 2,000-row result as JSON.
func probeFormats(m metrics, ref *reference, seed int64, rows int) error {
	events := genEvents(seed, 0, rows)
	probes := []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"datafmt.decode_mb_per_s.json", eventsJSON(events), func(b []byte) error { _, err := datafmt.DecodeJSONBag(bytes.NewReader(b)); return err }},
		{"datafmt.decode_mb_per_s.jsonl", eventsJSONLines(events), func(b []byte) error { _, err := datafmt.DecodeJSONLines(bytes.NewReader(b)); return err }},
		{"datafmt.decode_mb_per_s.csv", eventsCSV(events), func(b []byte) error {
			_, err := datafmt.DecodeCSV(bytes.NewReader(b), datafmt.CSVOptions{})
			return err
		}},
		{"datafmt.decode_mb_per_s.cbor", eventsCBOR(events), func(b []byte) error { _, err := datafmt.DecodeCBOR(b); return err }},
		{"sion.parse_mb_per_s", eventsSION(events), func(b []byte) error { _, err := sion.Parse(string(b)); return err }},
	}
	for _, p := range probes {
		best, err := bestOf(3, func() error { return p.decode(p.body) })
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = mbPerS(len(p.body), best)
	}

	v, _ := ref.engine.Lookup("emp")
	elems, _ := value.Elements(v)
	if len(elems) > 2000 {
		elems = elems[:2000]
	}
	// A query result holds no MISSING; neither do stored emp rows, where
	// an absent attribute is simply not there.
	result := value.Array(elems)
	size := 0
	best, err := bestOf(5, func() error {
		s, err := datafmt.JSONString(result)
		size = len(s)
		return err
	})
	if err != nil {
		return err
	}
	m["datafmt.encode_json_ns_per_row"] = ratio(float64(best), float64(len(elems)))
	m["datafmt.encode_json_mb_per_s"] = mbPerS(size, best)
	return nil
}

// bestOf runs fn reps times and returns the shortest run in nanoseconds.
func bestOf(reps int, fn func() error) (int64, error) {
	best := int64(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0).Nanoseconds())
	}
	return best, nil
}

func mbPerS(bytes int, ns int64) float64 { return ratio(float64(bytes)/1e6, float64(ns)/1e9) }

// serverMetrics reduces traced ops that went through a plain (not
// coordinator) server to the server.* metrics.
func serverMetrics(m metrics, ops []tracedOp, shed uint64) {
	var tax, hit, miss []float64
	var elapsedUS, clientNS, req, resp float64
	n := 0
	for _, o := range ops {
		if o.info.status == 0 {
			continue
		}
		n++
		req += float64(o.info.reqBytes)
		resp += float64(o.info.respBytes)
		if o.ingest > 0 || o.exec == 0 {
			continue
		}
		tax = append(tax, float64(o.real-o.prepare-o.exec-o.encode)/1e3)
		if o.info.cached {
			hit = append(hit, float64(o.real)/1e3)
		} else {
			miss = append(miss, float64(o.real)/1e3)
		}
		elapsedUS += float64(o.info.elapsedUS)
		clientNS += float64(o.real)
	}
	m["server.http_tax_us"] = median(tax)
	m["server.plancache.hit_ratio"] = ratio(float64(len(hit)), float64(len(hit)+len(miss)))
	m["server.plancache.hit_p50_us"] = median(hit)
	m["server.plancache.miss_p50_us"] = median(miss)
	m["server.elapsed_share"] = ratio(elapsedUS*1e3, clientNS)
	m["server.req_bytes_per_op"] = ratio(req, float64(n))
	m["server.resp_bytes_per_op"] = ratio(resp, float64(n))
	m["server.shed_count"] = float64(shed)
}

// probeServer serves the reference engine on a loopback listener and
// replays the analytic cycle through it, for workloads whose own
// topology has no plain server (embedded, coordinator).
func probeServer(m metrics, ref *reference, d *dataset, sz sizes, dur time.Duration) error {
	tr := newTracer()
	front, err := startNode(ref.engine, server.Config{}, tr.hooks().front)
	if err != nil {
		return err
	}
	topo := &topology{engine: ref.engine, front: front}
	defer topo.stop()
	cycle := analyticOps(d, sz)
	encodeBodies(cycle)
	p := &opPlan{classes: analyticClasses, in: &inputs{}, streams: [][]*op{cycle}, unit: len(cycle), tracedMix: []int{1}}
	r, err := newRunner(p, topo)
	if err != nil {
		return err
	}
	defer r.close()
	ops, res := r.seqLoop(dur, 0, tr, ref)
	if res.failed > 0 {
		return fmt.Errorf("server probe: %w", res.firstErr)
	}
	attachSpans(ops, tr.spans)
	serverMetrics(m, ops, front.srv.Metrics().Shed.Load())
	return nil
}

// countingTransport counts the bytes of the coordinator's calls to its
// data nodes: request bodies out, response bodies back.
type countingTransport struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.bytes.Add(r.ContentLength)
	}
	resp, err := c.next.RoundTrip(r)
	if err == nil {
		resp.Body = &spanBody{ReadCloser: resp.Body, count: &c.bytes}
	}
	return resp, err
}

const shardProbeEmp, shardProbeHR = 20000, 4000

// probeShard measures the shard layer on its own: a sample of the
// workload's emp and hr behind 1-node and 2-node HTTP fleets, driven
// through Coordinator.ExecRequest, against an embedded engine over the
// same sample.
func probeShard(m metrics, d *dataset, sz sizes) error {
	sample := &dataset{emp: d.emp, hr: d.hr, dept: d.dept}
	if len(sample.emp) > shardProbeEmp {
		sample.emp = sample.emp[:shardProbeEmp]
	}
	if len(sample.hr) > shardProbeHR {
		sample.hr = sample.hr[:shardProbeHR]
	}
	in := analyticInputs(sample)
	in.sharded = map[string]string{"emp": "deptno", "hr": "deptno"}
	ops := shardOps(sample, sz)
	embedded, err := setupEmbedded(in)
	if err != nil {
		return err
	}
	empVal, _ := embedded.Lookup("emp")
	empRows, _ := value.Elements(empVal)
	t0 := time.Now()
	if _, err := shard.Partition(empVal, shard.Spec{Name: "emp", Kind: shard.Hash, Key: "deptno"}, 2); err != nil {
		return err
	}
	m["shard.partition_ns_per_row"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(empRows)))

	ctx := context.Background()
	// Each (class, topology) pair is repeated for half a second, at least
	// 5 and at most 25 times; the first call compiles and is checked
	// against the plain-Go expectation, not timed.
	p50 := func(run func(o *op) (value.Value, error)) ([]float64, error) {
		out := make([]float64, len(ops))
		for i, o := range ops {
			v, err := run(o)
			if err == nil {
				err = o.checkValue(v)
			}
			if err != nil {
				return nil, fmt.Errorf("class %s: %w", shardClasses[o.class], err)
			}
			var lat []float64
			for start := time.Now(); len(lat) < 5 || (time.Since(start) < 500*time.Millisecond && len(lat) < 25); {
				t0 := time.Now()
				if _, err := run(o); err != nil {
					return nil, fmt.Errorf("class %s: %w", shardClasses[o.class], err)
				}
				lat = append(lat, float64(time.Since(t0).Nanoseconds()))
			}
			out[i] = median(lat)
		}
		return out, nil
	}
	prepared := map[string]*sqlpp.Prepared{}
	base, err := p50(func(o *op) (value.Value, error) {
		p, ok := prepared[o.text]
		if !ok {
			var err error
			if p, err = embedded.Prepare(o.text); err != nil {
				return nil, err
			}
			prepared[o.text] = p
		}
		return p.ExecContext(ctx)
	})
	if err != nil {
		return err
	}
	var fleets [2][]float64
	for n := 1; n <= 2; n++ {
		var counter *countingTransport
		topo, err := setupSharded(in, n, hooks{wire: func(next http.RoundTripper) http.RoundTripper {
			counter = &countingTransport{next: next}
			return counter
		}})
		if err != nil {
			return err
		}
		sent := counter.bytes.Load() // distribution traffic, not query traffic
		queries := 0
		fleets[n-1], err = p50(func(o *op) (value.Value, error) {
			res, err := topo.coord.ExecRequest(ctx, shard.ExecRequest{Query: o.text})
			if err != nil {
				return nil, err
			}
			queries++
			if want := shardClasses[o.class]; res.Class != want {
				return nil, fmt.Errorf("ran as scatter class %q, want %q", res.Class, want)
			}
			return res.Value, nil
		})
		if n == 2 && err == nil {
			m["shard.wire_bytes_per_query"] = ratio(float64(counter.bytes.Load()-sent), float64(queries))
			var retries, hedges int64
			for _, t := range topo.coord.Telemetry() {
				retries += t.Retries
				hedges += t.Hedges
			}
			m["shard.retries"], m["shard.hedges"] = float64(retries), float64(hedges)
		}
		topo.stop()
		if err != nil {
			return err
		}
	}
	for i, o := range ops {
		c := shardClasses[o.class]
		m["shard.class."+c+".p50_ms"] = fleets[1][i] / 1e6
		if c == "group" || c == "topk" || c == "concat" {
			m["shard.tax_ratio."+c] = ratio(fleets[0][i], base[i])
			m["shard.scale_2_over_1."+c] = ratio(fleets[1][i], fleets[0][i])
		}
	}
	return nil
}
