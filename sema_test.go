package sqlpp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/eval"
)

// The analyzer/runtime agreement battery (§VI): the static analyzer's
// verdicts must agree with what execution actually does, in both typing
// modes, over the whole conformance suite running on schema-conforming
// data (each named value's schema is inferred from the value itself, so
// the data conforms by construction).
//
// The agreement contract:
//
//   - Permissive mode: the analyzer never emits error-severity
//     diagnostics for a query that compiles — type faults yield MISSING
//     at runtime, so they are warnings.
//   - Stop-on-error mode, analyzer clean: execution must not fail with
//     a dynamic type error. The analyzer only reports provable faults,
//     so a clean bill means the runtime cannot trip over a typed
//     expression the analyzer saw.
//   - Stop-on-error mode, analyzer error: the flagged fault is provable
//     from the schema, so executing over conforming data must fail.

// semaEngine builds an engine for a compat case with schemas inferred
// from the case's data.
func semaEngine(t *testing.T, c *compat.Case, compatMode bool) *sqlpp.Engine {
	t.Helper()
	db := sqlpp.New(&sqlpp.Options{Compat: compatMode, StopOnError: c.Strict})
	for name, v := range c.Data {
		if err := db.Register(name, v); err != nil {
			t.Fatalf("%s: register %s: %v", c.Name, name, err)
		}
		if _, err := db.InferSchema(name); err != nil {
			t.Fatalf("%s: infer schema %s: %v", c.Name, name, err)
		}
	}
	return db
}

func TestSemaAgreesWithRuntime(t *testing.T) {
	for _, c := range compat.Suite() {
		for _, compatMode := range c.Modes() {
			db := semaEngine(t, c, compatMode)
			p, err := db.Prepare(c.Query)
			if err != nil {
				// Compile-time rejection (parse or resolution): the
				// analyzer never ran, so there is nothing to agree on.
				continue
			}
			diags := p.Diagnostics()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, execErr := p.ExecContext(ctx)
			cancel()

			var typeErr *eval.TypeError
			isTypeFault := errors.As(execErr, &typeErr)

			if !c.Strict && sqlpp.HasErrors(diags) {
				t.Errorf("%s [compat=%v]: permissive mode produced error-severity diagnostics: %v",
					c.Name, compatMode, diags)
			}
			if c.Strict && !sqlpp.HasErrors(diags) && isTypeFault {
				t.Errorf("%s [compat=%v]: analyzer clean but execution hit a type error: %v\nquery: %s",
					c.Name, compatMode, execErr, c.Query)
			}
			if c.Strict && sqlpp.HasErrors(diags) && execErr == nil {
				t.Errorf("%s [compat=%v]: analyzer reported errors but execution succeeded\ndiags: %v\nquery: %s",
					c.Name, compatMode, diags, c.Query)
			}
		}
	}
}

// TestPaperListingsVetClean is the acceptance gate: every paper listing
// passes the analyzer with zero error-severity diagnostics, in its
// case's modes, with the data's own inferred schema imposed — C2 made
// statically checkable.
func TestPaperListingsVetClean(t *testing.T) {
	for _, c := range compat.PaperCases() {
		if c.ExpectError {
			continue
		}
		for _, compatMode := range c.Modes() {
			db := semaEngine(t, c, compatMode)
			p, err := db.Prepare(c.Query)
			if err != nil {
				t.Errorf("%s [compat=%v]: prepare failed: %v", c.Name, compatMode, err)
				continue
			}
			if diags := p.Diagnostics(); sqlpp.HasErrors(diags) {
				t.Errorf("%s [compat=%v]: error-severity diagnostics on a paper listing: %v",
					c.Name, compatMode, diags)
			}
		}
	}
}

// TestVetOptionRejects exercises Options.Vet end to end: a provable
// strict-mode fault is rejected at prepare time with a *VetError, while
// the same query in permissive mode (fault downgraded to warning) and a
// clean query in strict mode both prepare fine.
func TestVetOptionRejects(t *testing.T) {
	const faulty = `SELECT VALUE 2 * e.name FROM emp AS e`
	mk := func(strict bool) *sqlpp.Engine {
		db := sqlpp.New(&sqlpp.Options{StopOnError: strict, Vet: true})
		if err := db.RegisterSION("emp", `{{ {'id':1,'name':'Ada'} }}`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DeclareSchema(`CREATE TABLE emp (id INT, name STRING);`); err != nil {
			t.Fatal(err)
		}
		return db
	}

	_, err := mk(true).Prepare(faulty)
	var vetErr *sqlpp.VetError
	if !errors.As(err, &vetErr) {
		t.Fatalf("strict vet: want *VetError, got %v", err)
	}
	if !sqlpp.HasErrors(vetErr.Diagnostics) {
		t.Fatalf("VetError should carry error diagnostics, got %v", vetErr.Diagnostics)
	}

	if _, err := mk(false).Prepare(faulty); err != nil {
		t.Fatalf("permissive vet must not reject (fault is a warning): %v", err)
	}
	if _, err := mk(true).Prepare(`SELECT VALUE e.id FROM emp AS e`); err != nil {
		t.Fatalf("clean strict query must prepare under vet: %v", err)
	}
}

// TestDiagnosticsLazyAndCached: diagnostics are computed once and the
// returned slice is the caller's to mutate.
func TestDiagnosticsCached(t *testing.T) {
	db := sqlpp.New(nil)
	if err := db.RegisterSION("t", `{{ {'v':1} }}`); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(`FROM t AS unused_row SELECT VALUE 1`)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Diagnostics()
	if len(a) == 0 {
		t.Fatal("want an unused-binding warning")
	}
	a[0].Msg = "mutated"
	b := p.Diagnostics()
	if b[0].Msg == "mutated" {
		t.Fatal("Diagnostics must return a copy")
	}
}

// TestPreparedParamsDiagnostics: parameters act as bound variables of
// unknown type.
func TestPreparedParamsDiagnostics(t *testing.T) {
	db := sqlpp.New(nil)
	if err := db.RegisterSION("t", `{{ {'v':1} }}`); err != nil {
		t.Fatal(err)
	}
	p, err := db.PrepareParams(`SELECT VALUE r.v + $min FROM t AS r`, "$min")
	if err != nil {
		t.Fatal(err)
	}
	if diags := p.Diagnostics(); len(diags) != 0 {
		t.Fatalf("parameterized query should be clean, got %v", diags)
	}
}
