// Package sema is the static semantic analyzer. It runs at prepare
// time, between the rewrite to SQL++ Core and planning, over the Core
// tree — after name resolution, so every VarRef references a block
// binding (or declared parameter) and every catalog reference is a
// NamedRef. Which binding a variable refers to is ast.Binder's answer,
// the one statement of the scoping rules; the scope pass only judges it.
//
// The analyzer produces diagnostics in two severities, mirroring the
// paper's two typing modes (§VI):
//
//   - Error: the finding is a fault the stop-on-error mode would abort
//     on at runtime (arithmetic over provably non-numeric operands,
//     ordering between incompatible types, navigation into a scalar,
//     indexing a bag, a COLL_* aggregate over a non-collection), or a
//     scope violation that faults in every mode (an undefined variable,
//     a post-GROUP BY reference to an ungrouped binding).
//   - Warning: the dynamic semantics absorb the finding — in permissive
//     mode type faults quietly yield MISSING, and navigation into an
//     attribute a closed schema proves absent yields MISSING in both
//     modes — or it is scope hygiene (unused bindings, shadowing) that
//     never changes a result.
//
// In permissive mode every type-fault finding is therefore downgraded
// to a warning: the query runs, the analyzer explains which expressions
// are statically guaranteed to produce MISSING. Analysis is advisory by
// default and enforcing only when a caller opts in (Options.Vet on the
// engine), per the paper's query-stability tenet: imposing a schema must
// never reject a working query unless the user asked for vetting.
package sema

import (
	"fmt"
	"sort"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/types"
)

// Severity grades a diagnostic.
type Severity int

// Severities, ordered so that the more severe compares greater.
const (
	Warning Severity = iota
	Error
)

// String renders the severity for diagnostics output.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalText implements encoding.TextMarshaler so diagnostics render
// as "error"/"warning" in the HTTP API's JSON.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText is MarshalText's inverse, so API clients can decode
// diagnostics back into the typed form.
func (s *Severity) UnmarshalText(text []byte) error {
	switch string(text) {
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("sema: unknown severity %q", text)
	}
	return nil
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      lexer.Pos `json:"-"`
	Line     int       `json:"line"`
	Column   int       `json:"column"`
	Severity Severity  `json:"severity"`
	Code     string    `json:"code"`
	Msg      string    `json:"message"`
}

// String renders the diagnostic in the conventional
// line:col: severity[code]: message shape.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// Diagnostic codes produced by the scope pass. Type-inference findings
// reuse the types.ProblemCode constants verbatim.
const (
	CodeUndefined = "undefined"      // reference to a variable no scope binds
	CodeUngrouped = "ungrouped"      // post-GROUP BY reference to a pre-group binding
	CodeUnused    = "unused-binding" // FROM/LET/WITH binding never referenced
	CodeShadow    = "shadowed"       // binding hides an outer binding of the same name
)

// Options configures an analysis run.
type Options struct {
	// StopOnError selects the strict typing mode: type-fault findings
	// become errors instead of warnings.
	StopOnError bool
	// Schema supplies declared types for catalog names; nil means no
	// schema is imposed, which disables schema-dependent findings but
	// keeps literal-driven type checks and all scope checks.
	Schema *types.Schema
	// Params are declared external parameter names, bound in the
	// outermost scope exactly as rewrite binds them.
	Params []string
}

// Analyze statically checks a Core-form query and returns its
// diagnostics sorted by position (then severity, code, message), with
// exact duplicates removed. The output is deterministic: the same tree
// and options always produce the same slice. A nil expression has no
// diagnostics.
func Analyze(core ast.Expr, opts Options) []Diagnostic {
	if core == nil {
		return nil
	}
	a := &analyzer{opts: opts}
	a.scopeCheck(core)
	a.typeCheck(core)
	return finish(a.diags)
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

type analyzer struct {
	opts  Options
	diags []Diagnostic
}

func (a *analyzer) report(pos lexer.Pos, sev Severity, code, format string, args ...any) {
	a.diags = append(a.diags, Diagnostic{
		Pos:      pos,
		Line:     pos.Line,
		Column:   pos.Column,
		Severity: sev,
		Code:     code,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// typeCheck runs the schema-aware abstract type inference of package
// types and maps each finding onto a severity: type faults are errors in
// stop-on-error mode and warnings in permissive mode; guaranteed-MISSING
// findings are warnings in both modes, because navigation into an absent
// attribute is not a fault under the paper's semantics.
func (a *analyzer) typeCheck(core ast.Expr) {
	schema := a.opts.Schema
	if schema == nil {
		schema = types.NewSchema()
	}
	for _, p := range types.CheckQuery(core, schema) {
		sev := Warning
		if a.opts.StopOnError && p.Code.IsTypeFault() {
			sev = Error
		}
		a.report(p.Pos, sev, string(p.Code), "%s", p.Msg)
	}
}

// finish sorts and deduplicates diagnostics for deterministic output.
func finish(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
