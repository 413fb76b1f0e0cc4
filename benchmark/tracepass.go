package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// tracedOp is the account of one op of the traced pass. All times are
// nanoseconds.
type tracedOp struct {
	real    int64 // the production call: ExecContext, or the HTTP round trip
	handler int64 // front server.handle span
	nodes   int64 // wall time covered by data-node handlers
	wire    int64 // wall time covered by coordinator→node calls
	prepare int64 // replayed lexer+parser+rewrite+optimize, on a plan-cache miss
	exec    int64 // replayed (or, embedded, real) execution
	encode  int64 // replayed result encoding
	ingest  int64 // replayed decode + catalog call of a write
	info    opInfo
}

// seqLoop replays the workload's streams on one connection, interleaved
// by plan.tracedMix a round at a time, from the streams' current cursors.
// With rounds == 0 it runs for dur (short cycles end on a cycle boundary)
// and is the untraced baseline of the traced pass; the traced replay then
// starts from the same cursors and runs exactly as many rounds, so both
// loops execute the same ops. With tr it records spans and replays every
// op stage by stage on the reference.
func (r *runner) seqLoop(dur time.Duration, rounds int, tr *tracer, ref *reference) ([]tracedOp, *loopResult) {
	res := &loopResult{}
	var ops []tracedOp
	c := &conn{}
	wholeCycles := r.plan.unit > 1 && r.plan.unit <= 16
	start := time.Now()
	if tr != nil {
		tr.set(func() { tr.on = true })
		defer tr.set(func() { tr.on = false })
	}
	for done := 0; ; {
		for i, k := range r.plan.tracedMix {
			stream := r.plan.streams[i]
			for ; k > 0; k-- {
				o := stream[r.cursor[i]%len(stream)]
				r.cursor[i]++
				if tr == nil {
					lat, info, err := r.exec(c, o)
					res.add(o, lat, 0, info, err)
					ops = append(ops, tracedOp{real: lat.Nanoseconds(), info: info})
					continue
				}
				rec, err := r.tracedExec(c, o, tr, ref)
				res.add(o, time.Duration(rec.real), 0, rec.info, err)
				ops = append(ops, rec)
			}
		}
		done++
		if rounds > 0 {
			if done == rounds {
				break
			}
		} else if time.Since(start) >= dur && (!wholeCycles || r.cursor[0]%r.plan.unit == 0) {
			break
		}
	}
	res.elapsed = time.Since(start)
	return ops, res
}

// tracedExec runs one op under a root span: the production call first,
// then the same op replayed on the reference one layer at a time.
func (r *runner) tracedExec(c *conn, o *op, tr *tracer, ref *reference) (tracedOp, error) {
	var rec tracedOp
	tr.set(func() { tr.op++; tr.client, tr.handler = 0, 0 })
	root := tr.begin("op", 0)
	defer tr.end(root)

	if r.topo.front == nil {
		var err error
		tr.timed("plan.exec", root, func() {
			var lat time.Duration
			lat, rec.info, err = r.execEmbedded(o)
			rec.real, rec.exec = lat.Nanoseconds(), lat.Nanoseconds()
		})
		return rec, err
	}

	call := tr.begin("http.roundtrip", root)
	tr.set(func() { tr.client = call })
	lat, info, err := r.exec(c, o)
	tr.end(call)
	rec.real, rec.info = lat.Nanoseconds(), info
	if err != nil {
		return rec, err
	}
	raw := o.golden // exec verified the response equals it

	replay := tr.begin("replay", root)
	defer tr.end(replay)
	span := func(name string, fn func()) { tr.timed(name, replay, fn) }
	if o.write != nil {
		rec.ingest, err = ref.replayWrite(o.write, r.plan.in.indexes, span)
		return rec, err
	}
	if !info.cached {
		st, err := ref.stages(o.text, paramNames(o.params), span)
		if err != nil {
			return rec, fmt.Errorf("replay prepare: %w", err)
		}
		rec.prepare = st.lexNS + st.parseNS + st.rewriteNS + st.optimizeNS
	}
	var v value.Value
	t0 := time.Now()
	span("plan.exec", func() { v, err = ref.run(o) })
	rec.exec = time.Since(t0).Nanoseconds()
	if err != nil {
		return rec, fmt.Errorf("replay on the embedded reference: %w", err)
	}
	var encoded string
	t0 = time.Now()
	span("datafmt.encode", func() { encoded, err = datafmt.JSONString(v) })
	rec.encode = time.Since(t0).Nanoseconds()
	if err != nil {
		return rec, fmt.Errorf("encode the reference result: %w", err)
	}
	// The same text must give the same bytes embedded, served and sharded.
	if !bytes.Equal([]byte(encoded), raw) {
		return rec, fmt.Errorf("served result differs from the embedded engine's (%d vs %d bytes)", len(raw), len(encoded))
	}
	return rec, nil
}

// attachSpans fills each traced op's handler, node and wire times from
// the recorded spans (ops and trace ops are numbered alike, from 1).
func attachSpans(ops []tracedOp, spans []span) {
	nodes, wires := map[int][]interval{}, map[int][]interval{}
	for _, s := range spans {
		if s.Op < 1 || s.Op > len(ops) {
			continue
		}
		switch s.Name {
		case "server.handle":
			ops[s.Op-1].handler += s.End - s.Start
		case "node.handle":
			nodes[s.Op] = append(nodes[s.Op], interval{s.Start, s.End})
		case "shard.wire":
			wires[s.Op] = append(wires[s.Op], interval{s.Start, s.End})
		}
	}
	for op, xs := range nodes {
		ops[op-1].nodes = covered(xs, math.MinInt64, math.MaxInt64)
	}
	for op, xs := range wires {
		ops[op-1].wire = covered(xs, math.MinInt64, math.MaxInt64)
	}
}

// layerShares splits the traced ops' wall time between the layers, as
// shares of the total time of the production calls:
//
//	prepare  replayed lexer+parser+rewrite+optimize (plan-cache misses only)
//	exec     query execution: embedded directly, replayed for a server,
//	         the data nodes' handlers for a coordinator
//	encode   replayed JSON encoding of the result
//	ingest   replayed decode + catalog register/append of a write
//	shard    coordinator handler time not covered by its data nodes:
//	         classify, scatter, wire, parse, merge
//	server   what is left of the round trip: HTTP on both sides, request
//	         decoding, admission, plan-cache lookup, the response envelope
type layerShares struct{ prepare, exec, encode, ingest, shard, server float64 }

func shares(ops []tracedOp, sharded bool) layerShares {
	var s layerShares
	var total float64
	for _, o := range ops {
		real := float64(o.real)
		total += real
		if o.handler == 0 { // embedded: the call is the execution
			s.exec += real
			continue
		}
		http := real - float64(o.handler)
		if sharded {
			nodeWall := float64(o.nodes)
			if nodeWall == 0 { // the local class runs on the coordinator's engine
				nodeWall = min(float64(o.exec), float64(o.handler))
			}
			s.exec += nodeWall
			s.shard += float64(o.handler) - nodeWall
			s.server += http
			continue
		}
		// The replayed stages cannot have taken longer than the call they
		// explain; when noise says they did, scale them down to fit.
		sum := float64(o.prepare + o.exec + o.encode + o.ingest)
		inside, scale := sum, 1.0
		if sum > real {
			inside, scale = real, real/sum
		}
		s.prepare += scale * float64(o.prepare)
		s.exec += scale * float64(o.exec)
		s.encode += scale * float64(o.encode)
		s.ingest += scale * float64(o.ingest)
		s.server += real - inside
	}
	if total == 0 {
		return s
	}
	s.prepare /= total
	s.exec /= total
	s.encode /= total
	s.ingest /= total
	s.shard /= total
	s.server /= total
	return s
}

// staged is the time of the op's stages that were measured as calls of
// their own: the replayed prepare, execution, encoding and write path, or,
// for an op the coordinator scattered, its calls to the data nodes (the
// node handlers run inside them) and the replayed encoding. What a server
// or coordinator does around those stages is not in it.
func (o *tracedOp) staged() int64 {
	if o.wire > 0 {
		return o.wire + o.encode
	}
	return o.prepare + o.exec + o.encode + o.ingest
}
