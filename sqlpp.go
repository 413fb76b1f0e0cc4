// Package sqlpp is a complete implementation of the SQL++ query language
// described in "SQL++: We Can Finally Relax!" (Carey et al., ICDE 2024):
// a backward-compatible extension of SQL for nested, heterogeneous,
// schema-optional data.
//
// The engine evaluates SQL++ over an in-memory catalog of named values.
// Data loads from JSON, CSV, CBOR, or the paper's object notation, and
// every query runs identically regardless of the source format.
//
// Quick start:
//
//	db := sqlpp.New(nil)
//	_ = db.RegisterSION("hr.emp", `{{ {'name':'Ada','salary':120} }}`)
//	v, _ := db.Query("SELECT e.name FROM hr.emp AS e WHERE e.salary > 100")
//	fmt.Println(v) // {{ {'name': 'Ada'} }}
package sqlpp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/funcs"
	"sqlpp/internal/index"
	"sqlpp/internal/parser"
	"sqlpp/internal/plan"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sema"
	"sqlpp/internal/sion"
	"sqlpp/internal/stats"
	"sqlpp/internal/types"
	"sqlpp/internal/value"
)

// Options configures an Engine. The zero value is the paper's flexible
// default: permissive typing and full composability (no SQL-compat
// coercions).
type Options struct {
	// Compat is the paper's SQL compatibility flag (§I): sugar SELECT
	// subqueries coerce by context, MISSING behaves like NULL wherever
	// SQL maps NULL to a non-null result, and IS NULL matches MISSING.
	Compat bool
	// StopOnError selects the stop-on-error typing mode (§IV): the first
	// dynamic type error aborts the query instead of yielding MISSING.
	StopOnError bool
	// DisableOptimizer selects the reference implementation the identity
	// batteries compare against: no physical plan, so every block runs the
	// naive clause pipeline and every expression the tree-walking
	// interpreter. Results are identical to the production path (planned,
	// statistics-informed, every expression closure-compiled so it never
	// enters the interpreter), which is everything else.
	DisableOptimizer bool
	// Parallelism bounds the worker pool of parallel outer scans. Zero
	// selects GOMAXPROCS; 1 restores fully sequential execution.
	Parallelism int
	// Limits is the per-query resource budget enforced by the governor:
	// output rows, materialized values/bytes, nesting depth, and wall
	// time. The zero value means unlimited and costs nothing per row; a
	// query exceeding any budget aborts with a *ResourceError.
	Limits Limits
	// Vet runs the static semantic analyzer at prepare time and rejects
	// queries carrying error-severity diagnostics with a *VetError. Off
	// by default per the paper's query-stability tenet: imposing a
	// schema never changes (or rejects) a working query unless asked.
	// When off, analysis costs nothing until Diagnostics() is called.
	Vet bool
}

// Diagnostic is one static-analyzer finding; see Prepared.Diagnostics.
type Diagnostic = sema.Diagnostic

// Severity grades a Diagnostic.
type Severity = sema.Severity

// Diagnostic severities.
const (
	SevWarning = sema.Warning
	SevError   = sema.Error
)

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool { return sema.HasErrors(diags) }

// VetError reports that Options.Vet rejected a query because the static
// analyzer found error-severity diagnostics. Match with errors.As to
// inspect the findings.
type VetError struct {
	Diagnostics []Diagnostic
}

// Error summarizes the error-severity findings.
func (e *VetError) Error() string {
	var sb strings.Builder
	sb.WriteString("sqlpp: query rejected by vet:")
	for _, d := range e.Diagnostics {
		if d.Severity == SevError {
			sb.WriteString(" [")
			sb.WriteString(d.String())
			sb.WriteString("]")
		}
	}
	return sb.String()
}

// Limits is a per-query resource budget; see eval.Limits for the field
// semantics. Zero fields are unlimited.
type Limits = eval.Limits

// ResourceError reports a query aborted by the governor for exceeding a
// resource budget. Match with errors.As to inspect Kind/Limit/Observed.
type ResourceError = eval.ResourceError

// PanicError reports a panic recovered during query execution and
// converted into an ordinary query error; the process and all other
// queries are unaffected. Match with errors.As.
type PanicError = eval.PanicError

// The resource kinds a ResourceError can report.
const (
	ResourceRows   = eval.ResourceRows
	ResourceValues = eval.ResourceValues
	ResourceBytes  = eval.ResourceBytes
	ResourceDepth  = eval.ResourceDepth
	ResourceTime   = eval.ResourceTime
)

// Engine is a SQL++ query processor over a catalog of named values. An
// Engine is safe for concurrent queries; catalog mutation requires
// external coordination with in-flight queries only in the sense that a
// query observes the values registered when it starts resolving.
type Engine struct {
	opts  Options
	cat   *catalog.Catalog
	funcs *funcs.Registry
	types *types.Schema
}

// New returns an Engine with the given options; nil selects the
// defaults.
func New(opts *Options) *Engine {
	var o Options
	if opts != nil {
		o = *opts
	}
	return &Engine{opts: o, cat: catalog.New(), funcs: funcs.NewRegistry()}
}

// schema lazily creates the engine's schema registry.
func (e *Engine) schema() *types.Schema {
	if e.types == nil {
		e.types = types.NewSchema()
	}
	return e.types
}

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// WithOptions returns a new Engine sharing this engine's catalog,
// schemas, and function registry but using different options — the
// paper's compatibility flag as a per-session toggle.
func (e *Engine) WithOptions(opts Options) *Engine {
	return &Engine{opts: opts, cat: e.cat, funcs: e.funcs, types: e.types}
}

// Fork returns a new Engine with opts over a copy of this engine's
// catalog as it is now — collections, statistics and indexes are shared
// snapshots, not rebuilt — and this engine's schemas and function
// registry. Registrations on either engine afterwards are invisible to
// the other: a scratch engine for one query.
func (e *Engine) Fork(opts Options) *Engine {
	return &Engine{opts: opts, cat: e.cat.Clone(), funcs: e.funcs, types: e.types}
}

// Register binds a named value (the name may be dotted, e.g. "hr.emp").
func (e *Engine) Register(name string, v value.Value) error {
	return e.cat.Register(name, v)
}

// RegisterSION parses src in the paper's object notation and registers it
// under name.
func (e *Engine) RegisterSION(name, src string) error {
	v, err := sion.Parse(src)
	if err != nil {
		return fmt.Errorf("sqlpp: register %s: %w", name, err)
	}
	return e.cat.Register(name, v)
}

// Append adds the elements of v (or v itself, when it is not a
// collection) to the collection registered under name, preserving its
// array/bag kind. The catalog writes the elements into its own growable
// tail of the collection and adds them to each secondary index as a new
// segment, merging segments logarithmically, so appending k elements
// onto n costs amortized O(k·log(n/k)) — what the append adds, not what
// the collection holds. Statistics are still cloned per append.
func (e *Engine) Append(name string, v value.Value) error {
	elems, ok := value.Elements(v)
	if !ok {
		elems = []value.Value{v}
	}
	if err := e.cat.Append(name, elems, eval.NewGovernor(e.opts.Limits)); err != nil {
		return fmt.Errorf("sqlpp: append %s: %w", name, err)
	}
	return nil
}

// AppendSION parses src in the paper's object notation and appends it
// under name; see Append.
func (e *Engine) AppendSION(name, src string) error {
	v, err := sion.Parse(src)
	if err != nil {
		return fmt.Errorf("sqlpp: append %s: %w", name, err)
	}
	return e.Append(name, v)
}

// Drop removes a named value (and any indexes declared over it).
func (e *Engine) Drop(name string) { e.cat.Drop(name) }

// IndexInfo describes one secondary index.
type IndexInfo struct {
	Name       string `json:"name"`
	Collection string `json:"collection"`
	Path       string `json:"path"`
	Kind       string `json:"kind"`
	// Entries is the number of elements the index covers; Keys, Missing,
	// and Null break it down into distinct probeable keys and the two
	// absent-key slots (rows an index probe can never return, because
	// equality/range against MISSING or NULL is never TRUE).
	Entries int `json:"entries"`
	Keys    int `json:"keys"`
	Missing int `json:"missing"`
	Null    int `json:"null"`
}

// CreateIndex declares a secondary index named name over the registered
// collection, keyed by the dotted path (which may step into nested
// tuples, e.g. "addr.zip"). kind is "hash" (equality probes, the
// default) or "ordered" (equality and range probes). The build charges
// the engine's resource limits; elements whose key path is MISSING,
// NULL, or a permissive navigation fault are filed in dedicated slots
// so indexed execution stays bit-identical to scanning.
func (e *Engine) CreateIndex(name, collection, path, kind string) error {
	k, err := index.ParseKind(kind)
	if err != nil {
		return fmt.Errorf("sqlpp: create index %s: %w", name, err)
	}
	spec := index.Spec{Name: name, Collection: collection, Path: strings.Split(path, "."), Kind: k}
	if err := e.cat.CreateIndex(spec, eval.NewGovernor(e.opts.Limits)); err != nil {
		return fmt.Errorf("sqlpp: create index %s: %w", name, err)
	}
	return nil
}

// DropIndex removes a secondary index, reporting whether it existed.
func (e *Engine) DropIndex(name string) bool { return e.cat.DropIndex(name) }

// Indexes lists the declared secondary indexes, sorted by name.
func (e *Engine) Indexes() []IndexInfo {
	ixs := e.cat.Indexes()
	out := make([]IndexInfo, len(ixs))
	for i, ix := range ixs {
		sp := ix.Spec()
		keys, missing, null := ix.Slots()
		out[i] = IndexInfo{
			Name:       sp.Name,
			Collection: sp.Collection,
			Path:       sp.PathString(),
			Kind:       sp.Kind.String(),
			Entries:    ix.Len(),
			Keys:       keys,
			Missing:    missing,
			Null:       null,
		}
	}
	return out
}

// IndexEpoch returns the catalog's mutation counter. It changes on
// every index create/drop, data registration, and shard-topology
// change, so callers caching compiled plans (the server and the shard
// coordinator do) can fold it into their cache keys.
func (e *Engine) IndexEpoch() int64 { return e.cat.Epoch() }

// ShardMeta records how a collection is partitioned across a
// coordinator's shard fleet (see internal/shard). It lives in the
// catalog so distributions bump the epoch like any other catalog
// mutation.
type ShardMeta = catalog.ShardMeta

// SetShardMeta records a collection's shard topology, bumping the
// catalog epoch.
func (e *Engine) SetShardMeta(name string, m ShardMeta) error {
	return e.cat.SetShardMeta(name, m)
}

// ShardMetaFor reports the shard topology recorded for name.
func (e *Engine) ShardMetaFor(name string) (ShardMeta, bool) {
	return e.cat.ShardMetaFor(name)
}

// ShardMetas returns all recorded shard topologies by collection name.
func (e *Engine) ShardMetas() map[string]ShardMeta { return e.cat.ShardMetas() }

// CollectionStats pairs a collection name with its statistics summary.
type CollectionStats struct {
	Collection string        `json:"collection"`
	Stats      stats.Summary `json:"stats"`
}

// Stats lists the per-collection statistics snapshots the planner's
// cost-based decisions draw from, sorted by collection name.
// Collections whose statistics build failed (resource budget, injected
// fault) are absent — the planner treats them heuristically.
func (e *Engine) Stats() []CollectionStats {
	var out []CollectionStats
	for _, name := range e.cat.Names() {
		st := e.cat.StatsFor(name)
		if st == nil {
			continue
		}
		out = append(out, CollectionStats{Collection: name, Stats: st.Summarize()})
	}
	return out
}

// Names lists the registered named values, sorted.
func (e *Engine) Names() []string { return e.cat.Names() }

// Lookup returns a registered named value.
func (e *Engine) Lookup(name string) (value.Value, bool) { return e.cat.LookupValue(name) }

// Prepared is a compiled query, reusable across executions.
type Prepared struct {
	engine *Engine
	core   ast.Expr
	// root evaluates core: compiled on the production path, interpreted on
	// the reference oracle.
	root      eval.CompiledExpr
	planNotes []string
	params    []string
	// slots, set on a bound literal template (Template.Bind), are the
	// values of its slots, whose names lead params.
	slots Literals

	// Diagnostics are computed lazily and cached: a Prepared that never
	// asks for them pays nothing, and concurrent callers share one
	// analysis (the analyzer reads the immutable core tree only).
	diagOnce sync.Once
	diags    []Diagnostic
}

// Prepare parses, rewrites to SQL++ Core, resolves a query against the
// engine's catalog, and runs the physical optimization pass. With
// Options.Vet set it additionally runs the static semantic analyzer and
// rejects the query when any finding is error-severity.
func (e *Engine) Prepare(query string) (*Prepared, error) { return e.prepare(query, nil) }

// prepare is Prepare with params left open. It writes the plan and makes
// the root evaluator (compiled, or interpreted on the oracle) once, before
// the Prepared is shared, so both are immutable during execution.
func (e *Engine) prepare(query string, params []string) (*Prepared, error) {
	core, err := e.Rewrite(query, params)
	if err != nil {
		return nil, err
	}
	p := &Prepared{engine: e, core: core, params: params}
	if e.opts.DisableOptimizer {
		p.root = eval.Interpret(core)
	} else {
		p.planNotes = plan.Optimize(core, e.optOptions())
		p.root = eval.Compile(core, eval.CompileOpts{Mode: e.mode(), Compat: e.opts.Compat, Funcs: e.funcs})
	}
	if err := e.vet(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Rewrite parses query and rewrites it to SQL++ Core under the engine's
// rewrite options: its catalog names, with names added to them, its
// schema, its compatibility flag, and params bound as variables. Every
// preparation goes through it; a shard coordinator adds the names of its
// sharded collections, which its own catalog does not hold.
func (e *Engine) Rewrite(query string, params []string, names ...string) (ast.Expr, error) {
	return e.rewrite(parser.Parse, query, params, names)
}

// rewrite is Rewrite with the parser chosen (a literal template parses
// its numbers as slots).
func (e *Engine) rewrite(parse func(string) (ast.Expr, error), query string, params, names []string) (ast.Expr, error) {
	tree, err := parse(query)
	if err != nil {
		return nil, err
	}
	ropts := rewrite.Options{Compat: e.opts.Compat, Names: e.cat, Params: params}
	if len(names) > 0 {
		ropts.Names = namesWith{e.cat, names}
	}
	if e.types != nil {
		ropts.Schema = e.types
	}
	return rewrite.Rewrite(tree, ropts)
}

// namesWith is a catalog's name set with more names.
type namesWith struct {
	rewrite.NameSet
	more []string
}

// HasName implements rewrite.NameSet.
func (n namesWith) HasName(name string) bool {
	return slices.Contains(n.more, name) || n.NameSet.HasName(name)
}

// optOptions configures the physical optimization pass for the engine.
func (e *Engine) optOptions() plan.OptOptions {
	return plan.OptOptions{
		Mode:        e.mode(),
		Indexes:     e.cat,
		Compat:      e.opts.Compat,
		Funcs:       e.funcs,
		Stats:       e.cat,
		Parallelism: e.parallelism(),
	}
}

// vet enforces Options.Vet on a freshly compiled query.
func (e *Engine) vet(p *Prepared) error {
	if !e.opts.Vet {
		return nil
	}
	if diags := p.Diagnostics(); HasErrors(diags) {
		return &VetError{Diagnostics: diags}
	}
	return nil
}

// Diagnostics runs the static semantic analyzer over the compiled query
// and returns its findings, sorted by position: scope hygiene (unused
// and shadowed bindings), schema-aware type faults, and expressions
// statically guaranteed to yield MISSING. In stop-on-error mode type
// faults are error-severity (the runtime would abort); in permissive
// mode they are warnings (the runtime yields MISSING). The analysis runs
// once, lazily, and is cached; executions never pay for it.
func (p *Prepared) Diagnostics() []Diagnostic {
	p.diagOnce.Do(func() {
		p.diags = sema.Analyze(p.core, sema.Options{
			StopOnError: p.engine.opts.StopOnError,
			Schema:      p.engine.types,
			Params:      p.params,
		})
	})
	out := make([]Diagnostic, len(p.diags))
	copy(out, p.diags)
	return out
}

// mode is the typing mode Options.StopOnError selects.
func (e *Engine) mode() eval.TypingMode {
	if e.opts.StopOnError {
		return eval.StopOnError
	}
	return eval.Permissive
}

// parallelism is the worker budget of parallel scans: Options.Parallelism,
// or GOMAXPROCS when unset.
func (e *Engine) parallelism() int {
	if e.opts.Parallelism > 0 {
		return e.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// PlanNotes describes the physical optimizations applied to the prepared
// query, one note per rewrite that fired, and a closing `compiled` note
// per planned block; empty on the reference oracle (DisableOptimizer)
// and for a query with no query block.
func (p *Prepared) PlanNotes() []string {
	notes := make([]string, len(p.planNotes))
	copy(notes, p.planNotes)
	return notes
}

// Core returns the SQL++ Core form of the prepared query as text — the
// paper's "syntactic sugar" rewritings made visible.
func (p *Prepared) Core() string { return ast.Format(p.tree()) }

// tree is the prepared query's Core tree: for a bound literal template,
// a copy with the slots' values substituted.
func (p *Prepared) tree() ast.Expr {
	if len(p.slots) == 0 {
		return p.core
	}
	return bindSlots(p.core, p.slots)
}

// Check statically checks the prepared query against the engine's
// declared schemas (§IV: the optional schema enables static type
// checking). Findings are advisory: the dynamic semantics would produce
// MISSING where the checker predicts a fault. Without declared schemas
// the checker knows nothing and reports nothing.
func (p *Prepared) Check() []types.Problem {
	return types.CheckQuery(p.core, p.engine.schema())
}

// Exec runs the prepared query and returns its result value. A Prepared
// is immutable after compilation and every execution gets a fresh
// evaluation context and environment, so one Prepared may be executed
// from many goroutines concurrently — the property the server's plan
// cache relies on.
func (p *Prepared) Exec() (value.Value, error) {
	return p.ExecContext(context.Background())
}

// ExecContext runs the prepared query under ctx: cancellation or
// deadline expiry cooperatively stops the plan's row-production loops,
// so even a runaway cross join terminates promptly. The returned error
// wraps ctx.Err() (match it with errors.Is).
func (p *Prepared) ExecContext(ctx context.Context) (value.Value, error) {
	ec := p.engine.newContext(ctx)
	return runProtected(ec, p.env(), p.root)
}

// env is the root environment of one execution: empty, or a bound
// template's slot bindings.
func (p *Prepared) env() *eval.Env {
	if len(p.slots) == 0 {
		return eval.NewEnv()
	}
	return eval.NewEnvOf(p.params[:len(p.slots)], p.slots)
}

// runProtected executes the plan with a panic barrier: a panic anywhere
// in evaluation (a broken builtin, a bug in an operator) becomes that
// query's *PanicError instead of killing the process. The recover sits
// at the outermost frame of the execution, so no partial state escapes —
// every execution's mutable state is context- and env-local.
func runProtected(ec *eval.Context, env *eval.Env, root eval.CompiledExpr) (v value.Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, ec.Recovered(p)
		}
	}()
	return root(ec, env)
}

// OpStats is one operator's runtime statistics in an EXPLAIN ANALYZE
// tree: rows in/out, wall time, operator-specific counters, and the
// operators it feeds from as children. Times are inclusive — the
// pipeline is push-style, so a FROM step's span covers the downstream
// clauses it drives. Render formats the tree as indented text; the
// struct marshals directly to JSON for the HTTP API.
type OpStats = eval.StatsSnapshot

// ExplainAnalyze executes the prepared query and returns the result
// alongside its operator tree. Every execution counts its operators'
// rows in the run states that execute them; ExplainAnalyze adds wall
// time, taken once per phase (a block, a scan, a hash build, a sort),
// and renders the plan over the counts after the run. The result is
// byte-identical to ExecContext's: counting never changes semantics.
func (p *Prepared) ExplainAnalyze(ctx context.Context) (value.Value, *OpStats, error) {
	ec := p.engine.newContext(ctx)
	ec.Analyze = true
	v, err := runProtected(ec, p.env(), p.root)
	if err != nil {
		return nil, nil, err
	}
	return v, plan.Explain(ec, p.core), nil
}

// newContext builds the per-execution evaluation context. Contexts are
// never shared between executions: all mutable evaluation state lives
// here or in the Env, which is what makes concurrent execution of a
// shared Prepared sound.
func (e *Engine) newContext(ctx context.Context) *eval.Context {
	ec := &eval.Context{
		Mode:        e.mode(),
		Compat:      e.opts.Compat,
		Names:       e.cat,
		Funcs:       e.funcs,
		Run:         plan.Run,
		Parallelism: e.parallelism(),
	}
	// Only install contexts that can actually fire, so queries run with
	// context.Background() skip the per-row poll entirely.
	if ctx != nil && ctx.Done() != nil {
		ec.Ctx = ctx
	}
	// NewGovernor returns nil for an all-zero budget, so unlimited
	// engines keep the nil fast path at every charge site.
	ec.Gov = eval.NewGovernor(e.opts.Limits)
	return ec
}

// Query parses, compiles, and executes a SQL++ query.
func (e *Engine) Query(query string) (value.Value, error) {
	return e.QueryContext(context.Background(), query)
}

// QueryContext parses, compiles, and executes a SQL++ query under ctx;
// see Prepared.ExecContext for the cancellation semantics.
func (e *Engine) QueryContext(ctx context.Context, query string) (value.Value, error) {
	p, err := e.Prepare(query)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx)
}

// MustQuery is Query but panics on error; intended for examples and
// tests.
func (e *Engine) MustQuery(query string) value.Value {
	v, err := e.Query(query)
	if err != nil {
		panic(err)
	}
	return v
}

// ParseValue parses a value in the paper's object notation.
func ParseValue(src string) (value.Value, error) { return sion.Parse(src) }

// MustParseValue is ParseValue but panics on error.
func MustParseValue(src string) value.Value { return sion.MustParse(src) }
