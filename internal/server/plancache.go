package server

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sqlpp"
)

// Plan is one cached compilation: a plain prepared query or a
// parameterized one, depending on whether the request supplied params.
// Exactly one of the two fields is set, except in the cache's literal
// template entries, which hold neither. Both kinds are immutable after
// compilation and safe for concurrent execution, so a cache hit can be
// executed without copying.
type Plan struct {
	Prepared *sqlpp.Prepared
	Params   *sqlpp.PreparedParams

	// tmpl is the state of a template key (TemplateKey).
	tmpl *templateState
}

// templateState is where a literal template stands: seen once (neither
// field set), admitted, or literal-only — its texts always prepare
// cold. Each state is immutable; a transition Puts a new one.
type templateState struct {
	admitted    *sqlpp.Template
	literalOnly bool
}

// PlanCache is a concurrency-safe LRU cache of compiled plans with two
// levels of key. The first is (options fingerprint, parameter names,
// query text): a hit there skips lexing, parsing, rewriting to Core,
// name resolution and planning — the entire compile phase — which is
// the dominant per-request cost for the small repeated queries a
// programmatic API serves. The second, consulted on a first-level miss
// of a plain request, is the text's literal template (TemplateKey): a
// hit there skips the same phases for a text that differs from an
// earlier one only in its numeric literals, at the cost of one lexer
// pass for the key and the re-evaluation of the template's cost guards
// (see Server.plan).
//
// The cache must be purged whenever the catalog's name set changes:
// compiled plans bake in name resolution (dotted identifiers
// disambiguate against the registered names), so registering or
// dropping a collection can change what a query text means.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	index map[string]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	key  string
	plan Plan
}

// NewPlanCache returns a cache holding up to capacity plans. A
// capacity <= 0 disables caching: every Get misses and Put is a no-op.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		cap:   capacity,
		ll:    list.New(),
		index: make(map[string]*list.Element),
	}
}

// CacheKey fingerprints everything that feeds compilation: the engine
// options that change the rewrite (Compat alters the Core form, the
// rest alter execution), the declared parameter names, and the query
// text itself. Extras are additional request attributes folded into the
// key — the explain mode, which distinguishes instrumented requests'
// cache accounting.
func CacheKey(opts sqlpp.Options, paramNames []string, query string, extras ...string) string {
	var sb strings.Builder
	sb.Grow(len(query) + keyPrefixLen)
	writeKeyPrefix(&sb, opts, paramNames, extras)
	sb.WriteByte(0)
	sb.WriteString(query)
	return sb.String()
}

// TemplateKey is the cache key of a literal template: text is the
// template text sqlpp.TemplateText gives the query, and the options and
// extras are the query's. It differs from every CacheKey: where a
// CacheKey continues with a NUL and the query text, a TemplateKey
// continues with 'T'.
func TemplateKey(opts sqlpp.Options, text []byte, extras ...string) string {
	var sb strings.Builder
	sb.Grow(len(text) + keyPrefixLen)
	writeKeyPrefix(&sb, opts, nil, extras)
	sb.WriteByte('T')
	sb.Write(text)
	return sb.String()
}

// keyPrefixLen covers the prefix of a key with default options and the
// epoch extra, so building it costs one allocation.
const keyPrefixLen = 64

// writeKeyPrefix writes what a key fingerprints besides the text.
func writeKeyPrefix(sb *strings.Builder, opts sqlpp.Options, paramNames []string, extras []string) {
	sb.WriteByte('c')
	sb.WriteString(strconv.FormatBool(opts.Compat))
	sb.WriteByte('s')
	sb.WriteString(strconv.FormatBool(opts.StopOnError))
	sb.WriteByte('o')
	sb.WriteString(strconv.FormatBool(opts.DisableOptimizer))
	sb.WriteByte('w')
	sb.WriteString(strconv.Itoa(opts.Parallelism))
	// Vet changes Prepare's outcome (error-severity diagnostics reject
	// the query) and whether diagnostics are computed, so vetted and
	// unvetted compilations of the same text are distinct plans.
	sb.WriteByte('V')
	sb.WriteString(strconv.FormatBool(opts.Vet))
	// A Prepared bakes in its engine and therefore its Limits, so every
	// budget field must distinguish cache entries — a cached plan must
	// never execute under another request's budgets.
	sb.WriteByte('r')
	sb.WriteString(strconv.FormatInt(opts.Limits.MaxOutputRows, 10))
	sb.WriteByte('v')
	sb.WriteString(strconv.FormatInt(opts.Limits.MaxMaterializedValues, 10))
	sb.WriteByte('b')
	sb.WriteString(strconv.FormatInt(opts.Limits.MaxMaterializedBytes, 10))
	sb.WriteByte('d')
	sb.WriteString(strconv.Itoa(opts.Limits.MaxDepth))
	sb.WriteByte('t')
	sb.WriteString(strconv.FormatInt(int64(opts.Limits.MaxWallTime), 10))
	if len(paramNames) > 0 {
		names := append([]string(nil), paramNames...)
		sort.Strings(names)
		for _, n := range names {
			sb.WriteByte('p')
			sb.WriteString(n)
		}
	}
	for _, x := range extras {
		sb.WriteByte('x')
		sb.WriteString(x)
	}
}

// Get returns the cached plan for key, marking it most recently used,
// and counts the lookup as a hit or a miss.
func (c *PlanCache) Get(key string) (Plan, bool) {
	p, ok := c.peek(key)
	c.count(ok)
	return p, ok
}

// peek is Get without counting, for a lookup that is only one level of
// a request's.
func (c *PlanCache) peek(key string) (Plan, bool) {
	if c.cap <= 0 {
		return Plan{}, false
	}
	// The plan is read under the lock: Put refreshes an entry in place.
	var p Plan
	c.mu.Lock()
	el, ok := c.index[key]
	if ok {
		c.ll.MoveToFront(el)
		p = el.Value.(*cacheEntry).plan
	}
	c.mu.Unlock()
	return p, ok
}

// count records one request's lookup outcome.
func (c *PlanCache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Put inserts (or refreshes) a plan, evicting the least recently used
// entry when the cache is full.
func (c *PlanCache) Put(key string, p Plan) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		el.Value.(*cacheEntry).plan = p
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(&cacheEntry{key: key, plan: p})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*cacheEntry).key)
	}
}

// Purge drops every cached plan; counters are preserved. Call it after
// any catalog mutation.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.index)
}

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits reports the lifetime hit count.
func (c *PlanCache) Hits() uint64 { return c.hits.Load() }

// Misses reports the lifetime miss count.
func (c *PlanCache) Misses() uint64 { return c.misses.Load() }
