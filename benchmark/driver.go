package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// runner drives one topology with one op plan.
type runner struct {
	plan *opPlan
	topo *topology
	// prepared holds the embedded topology's compiled queries, keyed by
	// text: embed-analytic measures Prepared.ExecContext, not Prepare.
	prepared map[string]*sqlpp.Prepared
	client   *http.Client
	tr       *http.Transport
	// cursor[i] is connection i's position in its stream; it persists
	// across loops so a stateful stream (ingest-mixed's writer) resumes
	// where the previous loop stopped.
	cursor []int
}

func newRunner(p *opPlan, t *topology) (*runner, error) {
	r := &runner{plan: p, topo: t, cursor: make([]int, len(p.streams))}
	if t.front == nil {
		r.prepared = map[string]*sqlpp.Prepared{}
		for _, s := range p.streams {
			for _, o := range s {
				if _, ok := r.prepared[o.text]; ok {
					continue
				}
				prep, err := t.engine.Prepare(o.text)
				if err != nil {
					return nil, fmt.Errorf("prepare %q: %w", o.text, err)
				}
				r.prepared[o.text] = prep
			}
		}
		return r, nil
	}
	r.client, r.tr = newClient(len(p.streams), nil)
	return r, nil
}

func (r *runner) close() {
	if r.tr != nil {
		r.tr.CloseIdleConnections()
	}
}

// opInfo is what one executed op reports besides its latency.
type opInfo struct {
	cached    bool
	elapsedUS int64 // server-reported plan+execute time
	reqBytes  int
	respBytes int
	status    int
	rows      int // rows ingested by a write
}

// conn is one driver goroutine's private state.
type conn struct {
	buf bytes.Buffer
}

// exec runs one op through the workload's production path, times it, and
// then (outside the timed interval) checks the answer.
func (r *runner) exec(c *conn, o *op) (time.Duration, opInfo, error) {
	if r.topo.front == nil {
		return r.execEmbedded(o)
	}
	url, ctype, body := r.topo.front.url+"/v1/query", "application/json", o.body
	if o.write != nil {
		url, ctype, body = r.topo.front.url+o.write.path, o.write.ctype, o.write.body
	}
	info := opInfo{reqBytes: len(body)}
	t0 := time.Now()
	resp, err := r.client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), info, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	info.status, info.respBytes = resp.StatusCode, c.buf.Len()
	if err != nil {
		return lat, info, err
	}
	if resp.StatusCode/100 != 2 {
		return lat, info, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if o.write != nil {
		info.rows = o.write.rows
		return lat, info, checkIngest(o.write, c.buf.Bytes())
	}
	raw, cached, elapsed, err := splitEnvelope(c.buf.Bytes())
	if err != nil {
		return lat, info, err
	}
	info.cached, info.elapsedUS = cached, elapsed
	return lat, info, o.check(raw)
}

func (r *runner) execEmbedded(o *op) (time.Duration, opInfo, error) {
	prep := r.prepared[o.text]
	t0 := time.Now()
	v, err := prep.ExecContext(context.Background())
	lat := time.Since(t0)
	if err != nil {
		return lat, opInfo{}, err
	}
	return lat, opInfo{}, o.checkValue(v)
}

// checkValue drains an embedded result into the expectation's shape.
func (o *op) checkValue(v value.Value) error {
	got, err := summarize(v, o.sumCol, o.keyCol, o.grouped)
	if err != nil {
		return err
	}
	return o.want.matches(got)
}

// check validates a served result. The first response is decoded and
// held against the plain-Go expectation; it then becomes the golden
// every later response must equal byte for byte, which costs the client
// one comparison instead of a JSON decode.
func (o *op) check(raw []byte) error {
	if o.golden != nil {
		if !bytes.Equal(raw, o.golden) {
			return fmt.Errorf("response differs from the verified one (%d vs %d bytes)", len(raw), len(o.golden))
		}
		return nil
	}
	v, err := datafmt.ParseJSON(string(raw))
	if err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if err := o.checkValue(v); err != nil {
		return err
	}
	o.golden = append([]byte(nil), raw...)
	return nil
}

func checkIngest(w *writeOp, body []byte) error {
	var resp struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode ingest response: %w", err)
	}
	if resp.Count != w.count {
		return fmt.Errorf("collection has %d rows after ingest, want %d", resp.Count, w.count)
	}
	return nil
}

// splitEnvelope cuts the raw result out of a /v1/query response without
// decoding it. The server writes {"result":…,"cached":…,"elapsed_us":…
// in that order; anything else takes the slow path.
func splitEnvelope(b []byte) (raw []byte, cached bool, elapsedUS int64, err error) {
	const pre, mid, el = `{"result":`, `,"cached":`, `,"elapsed_us":`
	if i := bytes.LastIndex(b, []byte(mid)); i > 0 && bytes.HasPrefix(b, []byte(pre)) {
		rest := b[i+len(mid):]
		if j := bytes.Index(rest, []byte(el)); j > 0 {
			digits := rest[j+len(el):]
			k := 0
			for k < len(digits) && digits[k] >= '0' && digits[k] <= '9' {
				k++
			}
			if us, perr := strconv.ParseInt(string(digits[:k]), 10, 64); perr == nil {
				return b[len(pre):i], bytes.HasPrefix(rest, []byte("true")), us, nil
			}
		}
	}
	var env struct {
		Result    json.RawMessage `json:"result"`
		Cached    bool            `json:"cached"`
		ElapsedUS int64           `json:"elapsed_us"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, false, 0, fmt.Errorf("decode response: %w", err)
	}
	return env.Result, env.Cached, env.ElapsedUS, nil
}

// sample is one completed op: its class, its latency, and when it was
// answered, in nanoseconds since the phase began.
type sample struct {
	class int
	ns    int64
	at    int64
}

// loopResult aggregates one closed-loop phase.
type loopResult struct {
	elapsed   time.Duration
	samples   []sample // successful ops only
	attempted int
	failed    int
	shed      int // 429 and 503 answers, a subset of failed
	firstErr  error
	allocs    uint64 // bytes allocated process-wide during the phase
	rows      int64  // rows ingested
	hits      int    // query answers served from the plan cache
	misses    int
	// marks are the times connection 0 completed each whole cycle of
	// plan.unit ops, in nanoseconds since the phase began.
	marks []int64
}

func (l *loopResult) add(o *op, lat time.Duration, at int64, info opInfo, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if info.status == http.StatusTooManyRequests || info.status == http.StatusServiceUnavailable {
			l.shed++
		}
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("class %d op %.80q: %w", o.class, o.text, err)
		}
		return
	}
	l.samples = append(l.samples, sample{o.class, lat.Nanoseconds(), at})
	l.rows += int64(info.rows)
	if o.write == nil && info.status != 0 {
		if info.cached {
			l.hits++
		} else {
			l.misses++
		}
	}
}

func (l *loopResult) merge(m *loopResult) {
	l.samples = append(l.samples, m.samples...)
	l.attempted += m.attempted
	l.failed += m.failed
	l.shed += m.shed
	if l.firstErr == nil {
		l.firstErr = m.firstErr
	}
	l.rows += m.rows
	l.hits += m.hits
	l.misses += m.misses
}

// closedLoop runs every connection's stream concurrently, each sending
// its next op only when the previous one has been answered. With dur > 0
// connection 0 paces the phase: it stops at the first multiple of
// plan.unit ops past dur and the others stop with it. With dur == 0
// every connection runs one full pass of its stream (the warm-up, which
// also verifies every distinct op once).
func (r *runner) closedLoop(dur time.Duration) *loopResult {
	parts := make([]*loopResult, len(r.plan.streams))
	var stop atomic.Bool
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range r.plan.streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stream, res, c := r.plan.streams[i], &loopResult{}, &conn{}
			parts[i] = res
			for n := 0; ; {
				o := stream[r.cursor[i]%len(stream)]
				lat, info, err := r.exec(c, o)
				at := time.Since(start).Nanoseconds()
				res.add(o, lat, at, info, err)
				r.cursor[i]++
				n++
				if i == 0 && n%r.plan.unit == 0 {
					res.marks = append(res.marks, at)
				}
				switch {
				case dur == 0:
					if n == len(stream) {
						return
					}
				case i == 0:
					if time.Since(start) >= dur && n%r.plan.unit == 0 {
						stop.Store(true)
						return
					}
				case stop.Load():
					return
				}
			}
		}(i)
	}
	wg.Wait()
	total := &loopResult{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	total.allocs = after.TotalAlloc - before.TotalAlloc
	for _, p := range parts {
		total.merge(p)
	}
	total.marks = parts[0].marks
	return total
}

// cycleQPS is the phase's throughput as the median over connection 0's
// whole cycles of the ops all connections completed during the cycle per
// second. Every cycle holds the same op mix, so the cycles are repeated
// measurements of one quantity, and the median of them does not move with
// a burst of interference that one mean over the whole phase would absorb.
func (l *loopResult) cycleQPS() float64 {
	ats := make([]int64, len(l.samples))
	for i, s := range l.samples {
		ats[i] = s.at
	}
	slices.Sort(ats)
	rates := make([]float64, 0, len(l.marks))
	prev, i := int64(0), 0
	for _, m := range l.marks {
		n := 0
		for ; i < len(ats) && ats[i] <= m; i++ {
			n++
		}
		if m > prev {
			rates = append(rates, float64(n)/(float64(m-prev)/1e9))
		}
		prev = m
	}
	return median(rates)
}

// latencyMetrics reduces a phase's samples to the latency figures every
// workload reports. All durations are milliseconds.
type latencyMetrics struct {
	p50       float64
	p95       float64
	p99       float64
	classP50  []float64 // by class index; 0 where a class has no sample
	classN    []int
	geomeanMS float64
}

func (l *loopResult) latencies(classes int) latencyMetrics {
	m := latencyMetrics{classP50: make([]float64, classes), classN: make([]int, classes)}
	all := make([]float64, 0, len(l.samples))
	by := make([][]float64, classes)
	for _, s := range l.samples {
		ms := float64(s.ns) / 1e6
		all = append(all, ms)
		by[s.class] = append(by[s.class], ms)
	}
	sort.Float64s(all)
	m.p50, m.p95, m.p99 = percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99)
	for c, xs := range by {
		sort.Float64s(xs)
		m.classP50[c], m.classN[c] = percentile(xs, 0.5), len(xs)
	}
	m.geomeanMS = geomean(m.classP50)
	return m
}

// openResult is one open-loop phase at a fixed offered rate.
type openResult struct {
	rate     float64
	offered  int
	failed   int
	shed     int
	firstErr error
	elapsed  time.Duration
	p50, p99 float64 // ms, from each request's due time
	lateP99  float64 // ms the generator sent after the due time
}

// ok reports whether the rate was sustained: the latency limit held at
// the 99th percentile, nothing failed, and the backlog did not grow (the
// phase finished about when its last request was due).
func (o *openResult) ok(limitMS float64) bool {
	due := time.Duration(float64(o.offered) / o.rate * float64(time.Second))
	return o.failed == 0 && o.p99 <= limitMS && o.elapsed <= due+due/20+time.Duration(limitMS*float64(time.Millisecond))
}

// openLoop offers ops at a fixed rate for dur, independent of how fast
// answers come back: request i is due at start + i/rate, whichever of
// the workload's connections is free sends it no earlier than that, and
// its latency is counted from the due time, so a stall shows up as
// waiting time in every request queued behind it.
func (r *runner) openLoop(rate float64, dur time.Duration) *openResult {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	conns := len(r.plan.streams)
	type part struct {
		lat, late []float64
		res       loopResult
	}
	parts := make([]part, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, c, stream := &parts[i], &conn{}, r.plan.streams[i]
			for {
				n := int(next.Add(1)) - 1
				if n >= total {
					return
				}
				due := start.Add(time.Duration(n) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := stream[r.cursor[i]%len(stream)]
				r.cursor[i]++
				sent := time.Now()
				lat, info, err := r.exec(c, o)
				p.res.add(o, lat, 0, info, err)
				if err == nil {
					p.lat = append(p.lat, float64(sent.Add(lat).Sub(due).Nanoseconds())/1e6)
				}
				p.late = append(p.late, float64(sent.Sub(due).Nanoseconds())/1e6)
			}
		}(i)
	}
	wg.Wait()
	out := &openResult{rate: rate, offered: total, elapsed: time.Since(start)}
	var lat, late []float64
	for i := range parts {
		lat, late = append(lat, parts[i].lat...), append(late, parts[i].late...)
		out.failed += parts[i].res.failed
		out.shed += parts[i].res.shed
		if out.firstErr == nil {
			out.firstErr = parts[i].res.firstErr
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	out.p50, out.p99, out.lateP99 = percentile(lat, 0.5), percentile(lat, 0.99), percentile(late, 0.99)
	return out
}
