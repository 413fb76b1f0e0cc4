// Package eval implements SQL++ expression evaluation: environments,
// typing modes, MISSING/NULL propagation, and the operator semantics of
// the paper's Section IV. Query-block execution (the clause pipeline)
// lives in package plan, which plugs itself into the Context so that
// subqueries nested inside expressions evaluate through it.
package eval

import (
	"context"
	"fmt"
	"slices"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// TypingMode selects how dynamic type errors are handled (paper §I
// relaxation 2 and §IV).
type TypingMode uint8

const (
	// Permissive is the flexible default: a mistyped operation yields
	// MISSING and processing of healthy data continues.
	Permissive TypingMode = iota
	// StopOnError fails the query on the first dynamic type error, for
	// applications that want to catch type errors early.
	StopOnError
)

// String names the mode.
func (m TypingMode) String() string {
	if m == StopOnError {
		return "stop-on-error"
	}
	return "permissive"
}

// NameSource resolves catalog named values.
type NameSource interface {
	// LookupValue returns the named value, if registered.
	LookupValue(name string) (value.Value, bool)
}

// Func is a scalar or collection function implementation.
type Func func(ctx *Context, args []value.Value) (value.Value, error)

// FuncDef describes one registered function.
type FuncDef struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	Fn      Func
	// NewAcc, set on the COLL_* aggregates only, returns a fresh
	// accumulator whose fold over a collection's elements is Fn's result.
	// The plan's streaming GROUP BY folds rows into it directly instead of
	// materializing the collection first.
	NewAcc func() Accumulator
}

// Accumulator is the incremental form of a COLL_* aggregate.
type Accumulator interface {
	// Step folds one element in, applying the aggregate's own element
	// rules (absent-skipping, single-attribute tuple unwrapping, fault
	// latching). Elements must be stepped in collection order.
	Step(v value.Value)
	// Merge folds in an accumulator of the same aggregate whose elements
	// all follow this one's in collection order.
	Merge(other Accumulator)
	// Result is the aggregate of everything folded so far. A *TypeError
	// (position unset) is the aggregate's type fault, subject to the
	// typing mode like any function fault.
	Result() (value.Value, error)
}

// AggFault is what a streamed aggregate's slot binds when its fold
// failed: the error, deferred until (and unless) a post-group expression
// actually reads the slot through $AGG, so faults surface at the same
// evaluation point as the COLL_* call they replace. It never escapes the
// slot binding; consumers other than $AGG see MISSING.
type AggFault struct{ Err error }

// Kind reports KindMissing.
func (AggFault) Kind() value.Kind { return value.KindMissing }

// String renders the deferred error for diagnostics.
func (f AggFault) String() string { return "fault(" + f.Err.Error() + ")" }

// FuncSource resolves function names (upper-cased) to definitions.
type FuncSource interface {
	// LookupFunc returns the function definition, if registered.
	LookupFunc(name string) (*FuncDef, bool)
}

// QueryRunner executes a query expression (a query block, PIVOT
// included, a set operation or a WITH) in an environment; installed by
// package plan.
type QueryRunner func(ctx *Context, env *Env, q ast.Expr) (value.Value, error)

// Context carries per-query evaluation state: modes, catalog, functions,
// and the query-block runner.
type Context struct {
	// Mode selects permissive or stop-on-error typing.
	Mode TypingMode
	// Compat enables SQL compatibility semantics: MISSING is treated
	// like NULL wherever SQL assigns a non-null result to NULL inputs
	// (COALESCE, CASE arms, ...), and sugar subqueries coerce.
	Compat bool
	// Names resolves named values; may be nil.
	Names NameSource
	// Funcs resolves functions; must be set before evaluating calls.
	Funcs FuncSource
	// Run executes nested query blocks; installed by package plan.
	Run QueryRunner
	// MaxCollectionSize bounds materialized intermediate collections as
	// a resource guard; zero means unlimited.
	MaxCollectionSize int
	// Parallelism bounds the worker pool a parallel outer scan may use;
	// values below 2 keep execution fully sequential.
	Parallelism int
	// Ctx carries the query's deadline/cancellation signal for
	// cooperative interruption. Nil (or a context that can never be
	// cancelled) means the query runs to completion; the facade only
	// installs contexts that actually carry a Done channel, so the
	// uncancellable path pays nothing.
	Ctx context.Context
	// Stats, when non-nil, turns on EXPLAIN ANALYZE instrumentation:
	// physical operators record rows in/out, wall time, and per-operator
	// counters into its tree. Nil is the fast path — each site pays one
	// pointer test and nothing else.
	Stats *StatsSink
	// Gov, when non-nil, enforces per-query resource budgets: the plan's
	// materialization and output sites charge it, and an exceeded budget
	// aborts the query with a *ResourceError. Nil is the fast path —
	// one pointer test per site, exactly like Stats.
	Gov *Governor
	// Depth is the current query-block nesting depth, maintained by the
	// plan runner and checked against Gov's depth budget.
	Depth int
	// PlanPos is the source position of the innermost query block being
	// executed; panic recovery stamps it into the PanicError.
	PlanPos lexer.Pos
	// StatsParent is the tree node new operator nodes attach under; the
	// plan saves/restores it around nested query blocks so subquery
	// operators nest under the enclosing block.
	StatsParent *StatsNode
	// polls counts Interrupted calls so the cancellation signal is
	// checked once every pollInterval produced rows rather than on every
	// row. A Context is used by a single goroutine, so a plain counter
	// suffices.
	polls uint
}

// pollInterval is the number of produced rows between real checks of the
// cancellation signal — a power of two so the fast path is a mask, small
// enough that a runaway cross join stops within microseconds of its
// deadline.
const pollInterval = 64

// Interrupted reports a non-nil error once the query's context is
// cancelled or past its deadline, or once the governor's wall-time
// budget is spent. The plan row-production and materialization loops
// call it per row; the fast path is one increment and one mask.
func (c *Context) Interrupted() error {
	if c.Ctx == nil && c.Gov == nil {
		return nil
	}
	c.polls++
	if c.polls&(pollInterval-1) != 0 {
		return nil
	}
	return c.pollNow()
}

// InterruptedN is Interrupted for a batch of n rows: it advances the
// poll counter by n in one step and performs a real check only when the
// batch crossed a pollInterval boundary, so batched scan loops keep the
// cancellation cadence of the row-at-a-time path without a per-row call.
func (c *Context) InterruptedN(n int) error {
	if c.Ctx == nil && c.Gov == nil {
		return nil
	}
	before := c.polls
	c.polls += uint(n)
	if before&^(pollInterval-1) == c.polls&^(pollInterval-1) {
		return nil
	}
	return c.pollNow()
}

// pollNow is the real cancellation/time-budget check behind the
// Interrupted fast paths.
func (c *Context) pollNow() error {
	if c.Ctx != nil {
		if err := c.Ctx.Err(); err != nil {
			return fmt.Errorf("sqlpp: query interrupted: %w", err)
		}
	}
	if c.Gov != nil {
		if err := c.Gov.CheckTime(); err != nil {
			return err
		}
	}
	return nil
}

// Fork returns a copy of c for one worker of a parallel scan. All the
// shared fields (catalog, functions, runner, deadline context) are safe
// for concurrent reads; only the poll counter is per-goroutine state,
// and each fork gets its own.
func (c *Context) Fork() *Context {
	cp := *c
	cp.polls = 0
	return &cp
}

// TypeError is a dynamic typing error. In permissive mode it is converted
// to MISSING at the operation that raised it; in stop-on-error mode it
// aborts the query.
type TypeError struct {
	Pos    lexer.Pos
	Op     string
	Detail string
}

// Error implements the error interface.
func (e *TypeError) Error() string {
	return fmt.Sprintf("type error at %s in %s: %s", e.Pos, e.Op, e.Detail)
}

// NameError reports an unbound variable or unknown named value.
type NameError struct {
	Pos  lexer.Pos
	Name string
}

// Error implements the error interface.
func (e *NameError) Error() string {
	return fmt.Sprintf("unresolved name %q at %s", e.Name, e.Pos)
}

// mistyped applies the mode policy to a would-be type error: MISSING in
// permissive mode, the error in stop-on-error mode.
func (c *Context) mistyped(pos lexer.Pos, op, detail string) (value.Value, error) {
	if c.Mode == StopOnError {
		return nil, &TypeError{Pos: pos, Op: op, Detail: detail}
	}
	return value.Missing, nil
}

// Env is a chain of variable bindings. Each query-block clause extends
// the environment; subqueries see their enclosing bindings through the
// parent chain (correlation).
type Env struct {
	parent *Env
	names  []string
	vals   []value.Value
}

// NewEnv returns an empty root environment.
func NewEnv() *Env { return &Env{} }

// Child returns a new environment scope whose lookups fall back to e.
func (e *Env) Child() *Env { return &Env{parent: e} }

// Rebase nests this scope under a new parent, keeping its bindings so
// the caller can rebind them in place. The plan's hash probe moves its
// one reusable candidate scope from one left binding to the next with it;
// only safe when nothing retains the scope across rows.
func (e *Env) Rebase(parent *Env) { e.parent = parent }

// Bind adds or replaces a binding in this scope (not in parents).
func (e *Env) Bind(name string, v value.Value) {
	if v == nil {
		panic("eval: binding nil Value to " + name)
	}
	for i, n := range e.names {
		if n == name {
			e.vals[i] = v
			return
		}
	}
	e.names = append(e.names, name)
	e.vals = append(e.vals, v)
}

// Lookup finds the innermost binding of name.
func (e *Env) Lookup(name string) (value.Value, bool) {
	for s := e; s != nil; s = s.parent {
		for i := len(s.names) - 1; i >= 0; i-- {
			if s.names[i] == name {
				return s.vals[i], true
			}
		}
	}
	return nil, false
}

// Names returns the names bound in this scope only (not parents), in
// binding order.
func (e *Env) Names() []string { return e.names }

// Snapshot captures this scope's bindings (not parents') as a tuple, the
// group-content shape used by GROUP AS.
func (e *Env) Snapshot() *value.Tuple {
	return value.ShapeOf(e.names...).New(slices.Clone(e.vals))
}

// RechainBelow rebuilds the scope chain between e (inclusive) and stop
// (exclusive) in a new nesting order, returning the innermost scope of
// the rebuilt chain. order maps new nesting position (0 = outermost of
// the rebuilt scopes) to the scope's current position, also counted
// outermost-first. The scopes' binding storage is shared, not copied,
// so the caller must not rebind the originals afterwards. The plan's
// join-reorder buffer uses it to restore written nesting order over
// scopes that were produced in a cost-chosen execution order.
func (e *Env) RechainBelow(stop *Env, order []int) *Env {
	var scopes []*Env
	for s := e; s != nil && s != stop; s = s.parent {
		scopes = append(scopes, s)
	}
	n := len(scopes) // scopes is innermost-first
	cur := stop
	for _, pos := range order {
		s := scopes[n-1-pos]
		cur = &Env{parent: cur, names: s.names, vals: s.vals}
	}
	return cur
}

// SnapshotBelow captures every binding introduced between e (inclusive)
// and stop (exclusive) as a tuple: the FROM/LET variables of a query
// block, which is exactly the group content the paper's GROUP AS exposes
// (Listing 14). Inner bindings shadow outer ones of the same name;
// within the tuple, outermost bindings come first.
func (e *Env) SnapshotBelow(stop *Env) *value.Tuple {
	// Query blocks rarely nest more than a few FROM scopes; the stack
	// buffer keeps the scope list off the heap.
	var buf [8]*Env
	scopes := buf[:0]
	n := 0
	for s := e; s != nil && s != stop; s = s.parent {
		scopes = append(scopes, s)
		n += len(s.names)
	}
	// Names are not known up front (an inner binding replaces an outer
	// one), their number is: Set fills the one slice in place.
	t := value.ShapeOf().New(make([]value.Value, 0, n))
	for i := len(scopes) - 1; i >= 0; i-- {
		s := scopes[i]
		for j, n := range s.names {
			t.Set(n, s.vals[j])
		}
	}
	return t
}
