// Package compat is the Core SQL++ "compatibility kit" the paper's
// conclusion calls for: a vendor-neutral suite of declarative conformance
// cases — data, query, mode, expected result — that checks an
// implementation's compliance with Core SQL++ in both its composability
// mode and its SQL compatibility mode.
//
// The built-in suite covers every listing of the paper (the Paper cases),
// a plain-SQL battery for the SQL-compatibility tenet (the SQLCompat
// cases), the null/missing guarantee of §IV-B (the NullMissing cases),
// and targeted semantics cases for MISSING propagation, typing modes,
// and heterogeneous data.
package compat

import (
	"fmt"
	"runtime"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/funcs"
	"sqlpp/internal/parser"
	"sqlpp/internal/plan"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// Mode selects which engine modes a case runs under.
type Mode uint8

// Case modes. Core is the paper's flexible default (full composability);
// Compat is the SQL compatibility mode; Both runs the case in each and
// requires the same expectation to hold.
const (
	Both Mode = iota
	Core
	Compat
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Core:
		return "core"
	case Compat:
		return "compat"
	default:
		return "both"
	}
}

// Case is one conformance check.
type Case struct {
	// Name identifies the case, e.g. "paper/L02".
	Name string
	// Data maps named values to their object-notation source.
	Data map[string]string
	// Query is the SQL++ text under test.
	Query string
	// Mode selects the engine mode(s).
	Mode Mode
	// Strict runs the case under stop-on-error typing.
	Strict bool
	// Expect is the expected result in object notation; ignored when
	// ExpectError is set. Comparison uses data-model equivalence (bags
	// unordered, tuples attribute-order-insensitive).
	Expect string
	// ExpectError requires the query to fail (at compile or run time).
	ExpectError bool
	// Notes records provenance (paper listing numbers, deviations).
	Notes string
}

// Result is the outcome of running a case in one mode.
type Result struct {
	Case     *Case
	ModeName string
	Got      value.Value
	Err      error
	Pass     bool
	Detail   string
}

// Run executes the case in each of its modes and reports per-mode
// results.
func Run(c *Case) []Result {
	var out []Result
	modes := []bool{false, true} // compat flag values
	for _, compat := range modes {
		if c.Mode == Core && compat {
			continue
		}
		if c.Mode == Compat && !compat {
			continue
		}
		out = append(out, runIn(c, compat))
	}
	return out
}

func runIn(c *Case, compatMode bool) Result {
	name := "core"
	if compatMode {
		name = "compat"
	}
	res := Result{Case: c, ModeName: name}
	got, err := Execute(c.Data, c.Query, compatMode, c.Strict)
	res.Got, res.Err = got, err
	if c.ExpectError {
		res.Pass = err != nil
		if !res.Pass {
			res.Detail = fmt.Sprintf("expected an error, got %s", render(got))
		}
		return res
	}
	if err != nil {
		res.Detail = "query failed: " + err.Error()
		return res
	}
	want, perr := sion.Parse(c.Expect)
	if perr != nil {
		res.Detail = "bad expectation: " + perr.Error()
		return res
	}
	if value.Equivalent(got, want) {
		res.Pass = true
		return res
	}
	res.Detail = fmt.Sprintf("result mismatch:\n  got  %s\n  want %s", render(got), render(want))
	return res
}

func render(v value.Value) string {
	if v == nil {
		return "<nil>"
	}
	return v.String()
}

// Execute runs a query over object-notation data with a standalone
// engine wired from the internal packages; the kit must not depend on
// any particular vendor facade.
func Execute(data map[string]string, query string, compatMode, strict bool) (value.Value, error) {
	vals := make(map[string]value.Value, len(data))
	for name, src := range data {
		v, err := sion.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("compat: data %s: %w", name, err)
		}
		vals[name] = v
	}
	return ExecuteValues(vals, query, compatMode, strict)
}

// ExecuteValues is Execute over already-decoded values, used by the
// format-independence experiment where the data arrives from different
// codecs.
func ExecuteValues(data map[string]value.Value, query string, compatMode, strict bool) (value.Value, error) {
	cat := catalog.New()
	for name, v := range data {
		if err := cat.Register(name, v); err != nil {
			return nil, err
		}
	}
	tree, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Compat: compatMode, Names: cat})
	if err != nil {
		return nil, err
	}
	mode := eval.Permissive
	if strict {
		mode = eval.StopOnError
	}
	// The kit exercises the production path: listing results must be
	// identical with every rewrite enabled and every expression compiled.
	plan.Optimize(core, plan.OptOptions{Mode: mode, Compat: compatMode, Indexes: cat, Funcs: sharedFuncs, Stats: cat})
	root := eval.Compile(core, eval.CompileOpts{Mode: mode, Compat: compatMode, Funcs: sharedFuncs})
	ctx := &eval.Context{
		Mode:        mode,
		Compat:      compatMode,
		Names:       cat,
		Funcs:       sharedFuncs,
		Run:         plan.Run,
		Parallelism: runtime.GOMAXPROCS(0),
	}
	return root(ctx, eval.NewEnv())
}

// CoreForm returns the SQL++ Core rewriting of a query, for inspection.
func CoreForm(data map[string]string, query string, compatMode bool) (string, error) {
	cat := catalog.New()
	for name, src := range data {
		v, err := sion.Parse(src)
		if err != nil {
			return "", err
		}
		if err := cat.Register(name, v); err != nil {
			return "", err
		}
	}
	tree, err := parser.Parse(query)
	if err != nil {
		return "", err
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Compat: compatMode, Names: cat})
	if err != nil {
		return "", err
	}
	return ast.Format(core), nil
}

var sharedFuncs = funcs.NewRegistry()

// Suite returns the full built-in conformance suite.
func Suite() []*Case {
	var out []*Case
	out = append(out, PaperCases()...)
	out = append(out, SQLCompatCases()...)
	out = append(out, NullMissingCases()...)
	out = append(out, SemanticsCases()...)
	out = append(out, ExtensionCases()...)
	return out
}

// RunSuite runs every case and returns all results plus the failures.
func RunSuite(cases []*Case) (all, failures []Result) {
	for _, c := range cases {
		for _, r := range Run(c) {
			all = append(all, r)
			if !r.Pass {
				failures = append(failures, r)
			}
		}
	}
	return all, failures
}

// Report renders results as fixed-width text rows (the harness output).
func Report(all, failures []Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %-7s %s\n", "CASE", "MODE", "STATUS")
	for _, r := range all {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%-36s %-7s %s\n", r.Case.Name, r.ModeName, status)
	}
	fmt.Fprintf(&sb, "\n%d checks, %d failures\n", len(all), len(failures))
	for _, r := range failures {
		fmt.Fprintf(&sb, "\nFAIL %s [%s]\n  query: %s\n  %s\n", r.Case.Name, r.ModeName,
			strings.Join(strings.Fields(r.Case.Query), " "), r.Detail)
	}
	return sb.String()
}
