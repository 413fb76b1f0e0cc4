package sqlpp

import (
	"context"
	"fmt"
	"sort"

	"sqlpp/internal/eval"
	"sqlpp/internal/plan"
	"sqlpp/internal/value"
)

// Parameterized queries: external values referenced by name inside a
// query, supplied per execution. Parameter names conventionally start
// with '$' ($min_salary), which the lexer accepts as identifier text, so
// they can never collide with catalog names or SQL keywords; any
// identifier works, though, and parameters shadow catalog names.

// PreparedParams is a compiled parameterized query.
type PreparedParams struct {
	engine *Engine
	core   *Prepared
	names  []string
}

// PrepareParams compiles a query whose free references to the given
// parameter names are left open, to be supplied at execution.
func (e *Engine) PrepareParams(query string, params ...string) (*PreparedParams, error) {
	names := append([]string(nil), params...)
	sort.Strings(names)
	inner, err := e.prepare(query, names)
	if err != nil {
		return nil, err
	}
	return &PreparedParams{engine: e, core: inner, names: names}, nil
}

// Diagnostics runs the static semantic analyzer over the parameterized
// query; parameters are treated as bound variables of unknown type. See
// Prepared.Diagnostics.
func (p *PreparedParams) Diagnostics() []Diagnostic { return p.core.Diagnostics() }

// PlanNotes describes the physical optimizations applied to the
// parameterized query; see Prepared.PlanNotes.
func (p *PreparedParams) PlanNotes() []string { return p.core.PlanNotes() }

// Params returns the declared parameter names, sorted.
func (p *PreparedParams) Params() []string {
	return append([]string(nil), p.names...)
}

// Core returns the SQL++ Core form of the parameterized query.
func (p *PreparedParams) Core() string { return p.core.Core() }

// Exec runs the query with the given parameter values. Every declared
// parameter must be supplied (pass value.Null explicitly for an absent
// value); unknown names are rejected. Like Prepared, a PreparedParams is
// immutable after compilation and safe for concurrent Exec calls.
func (p *PreparedParams) Exec(params map[string]value.Value) (value.Value, error) {
	return p.ExecContext(context.Background(), params)
}

// ExecContext is Exec under a deadline/cancellation context; see
// Prepared.ExecContext for the semantics.
func (p *PreparedParams) ExecContext(ctx context.Context, params map[string]value.Value) (value.Value, error) {
	v, _, err := p.exec(ctx, params, false)
	return v, err
}

// ExplainAnalyze executes the parameterized query with per-operator
// instrumentation; see Prepared.ExplainAnalyze.
func (p *PreparedParams) ExplainAnalyze(ctx context.Context, params map[string]value.Value) (value.Value, *OpStats, error) {
	return p.exec(ctx, params, true)
}

func (p *PreparedParams) exec(ctx context.Context, params map[string]value.Value, explain bool) (value.Value, *OpStats, error) {
	env := eval.NewEnv()
	supplied := 0
	for name, v := range params {
		if !p.declared(name) {
			return nil, nil, fmt.Errorf("sqlpp: undeclared parameter %q", name)
		}
		if v == nil {
			return nil, nil, fmt.Errorf("sqlpp: nil value for parameter %q (use value.Null)", name)
		}
		env.Bind(name, v)
		supplied++
	}
	if supplied != len(p.names) {
		for _, name := range p.names {
			if _, ok := params[name]; !ok {
				return nil, nil, fmt.Errorf("sqlpp: missing parameter %q", name)
			}
		}
	}
	ec := p.engine.newContext(ctx)
	ec.Analyze = explain
	v, err := runProtected(ec, env, p.core.root)
	if err != nil {
		return nil, nil, err
	}
	if explain {
		return v, plan.Explain(ec, p.core.core), nil
	}
	return v, nil, nil
}

func (p *PreparedParams) declared(name string) bool {
	for _, n := range p.names {
		if n == name {
			return true
		}
	}
	return false
}
