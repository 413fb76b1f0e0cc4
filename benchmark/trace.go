package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the trace began; Parent is the ID of the span that
// caused this one (0 for an op's root); every span of one op shares Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part covered by child spans; it is
	// filled in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer records spans in memory; they are written out once the pass is
// over. All instrumentation lives in the benchmark: spans are taken
// around calls into the layers' public functions and around the HTTP
// handlers and transports the benchmark itself installs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// The traced pass runs one op at a time, so "the op in flight" and
	// "the client span waiting on the front server" are single values the
	// handler-side probes can read to find their parent.
	on      bool
	op      int
	client  int            // span of the front round trip in flight
	handler int            // span of the front handler in flight
	wire    map[string]int // data-node host → span of the coordinator→node call in flight
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), wire: map[string]int{}}
}

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed wraps fn in a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

func (t *tracer) set(f func()) {
	t.mu.Lock()
	f()
	t.mu.Unlock()
}

func (t *tracer) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// inFlight reads one of the in-flight span IDs.
func (t *tracer) inFlight(f func() int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return f()
}

// hooks returns the outside-in probes for a topology: a handler wrapper
// for the front server and each data node, and a transport wrapper for
// the coordinator's calls to the nodes.
func (t *tracer) hooks() hooks {
	return hooks{
		front: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !t.active() {
					next.ServeHTTP(w, r)
					return
				}
				id := t.begin("server.handle", t.inFlight(func() int { return t.client }))
				t.set(func() { t.handler = id })
				next.ServeHTTP(w, r)
				t.end(id)
			})
		},
		node: func(name string) func(http.Handler) http.Handler {
			return func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !t.active() {
						next.ServeHTTP(w, r)
						return
					}
					id := t.begin("node.handle", t.inFlight(func() int { return t.wire[r.Host] }))
					next.ServeHTTP(w, r)
					t.end(id)
				})
			}
		},
		wire: func(next http.RoundTripper) http.RoundTripper {
			return roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if !t.active() {
					return next.RoundTrip(r)
				}
				id := t.begin("shard.wire", t.inFlight(func() int { return t.handler }))
				t.set(func() { t.wire[r.URL.Host] = id })
				resp, err := next.RoundTrip(r)
				if err == nil {
					// The node's answer is only across the wire once its body
					// has been read; the span ends then.
					resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.end(id) }}
				} else {
					t.end(id)
				}
				return resp, err
			})
		},
	}
}

// spanBody reports the end of a response body (and optionally counts its
// bytes) to whoever wrapped the transport.
type spanBody struct {
	io.ReadCloser
	count *atomic.Int64
	done  func()
	once  sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.count != nil {
		b.count.Add(int64(n))
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		if b.done != nil {
			b.done()
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// write stores the spans as {"spans":[…]}, ordered by start time, each
// with its self time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	for i := range spans {
		spans[i].Self = self[spans[i].ID]
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of xs clipped to [lo, hi]; the
// coordinator's calls to its nodes overlap, so durations cannot simply be
// added.
func covered(xs []interval, lo, hi int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i].lo < xs[j].lo })
	total, edge := int64(0), lo
	for _, x := range xs {
		x.lo, x.hi = max(x.lo, edge), min(x.hi, hi)
		if x.hi > x.lo {
			total += x.hi - x.lo
			edge = x.hi
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// checkSpanTree verifies the trace is well formed: every span ends after
// it starts, every child lies inside its parent and belongs to the same
// op, and every op has exactly one root.
func checkSpanTree(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := map[int]int{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Op]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			return fmt.Errorf("span %d (%s) of op %d has parent in op %d", s.ID, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for _, s := range spans {
		if roots[s.Op] != 1 {
			return fmt.Errorf("op %d has %d root spans", s.Op, roots[s.Op])
		}
	}
	return nil
}
