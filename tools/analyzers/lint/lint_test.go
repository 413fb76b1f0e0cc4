package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	hostOnce sync.Once
	testHost *Host
	testRepo *Repo
	hostErr  error
	loadTime time.Duration // the one parse + type-check of the module
)

// lintBudget caps one full-repo analysis, load plus every pass. The suite
// runs on every push and every `go test`, so a pass that outgrows it needs
// memoization, not a bigger budget. Zero leaves it unchecked: only plain
// builds set it (budget_test.go), since the race detector slows the suite
// several-fold.
var lintBudget time.Duration

// getRepo parses and type-checks the real module once for every test in
// the package; the fixture tests type-check against the same host so
// module imports resolve without re-parsing.
func getRepo(t *testing.T) (*Host, *Repo) {
	t.Helper()
	hostOnce.Do(func() {
		start := time.Now()
		testHost, hostErr = NewHost(filepath.Join("..", "..", ".."))
		if hostErr == nil {
			testRepo, hostErr = testHost.LoadRepo()
		}
		loadTime = time.Since(start)
	})
	if hostErr != nil {
		t.Fatalf("loading module: %v", hostErr)
	}
	return testHost, testRepo
}

// TestRepoClean is the enforcement test: the repo's own tree must run
// clean under every analyzer in the suite. A finding here is a build
// break, exactly like a failing unit test, and so is a run over
// lintBudget.
func TestRepoClean(t *testing.T) {
	_, repo := getRepo(t)
	total := loadTime
	for _, a := range All {
		t.Run(a.Name, func(t *testing.T) {
			start := time.Now()
			findings := Dedup(a.Run(repo))
			total += time.Since(start)
			for _, f := range findings {
				t.Errorf("%s", f)
			}
		})
	}
	t.Logf("load %s, load + %d passes %s", loadTime, len(All), total)
	if lintBudget > 0 && total > lintBudget {
		t.Errorf("full analysis took %s, over its %s budget", total, lintBudget)
	}
}

func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestDedup(t *testing.T) {
	pos := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line, Column: 1}
	}
	in := []Finding{
		{Pos: pos("b.go", 2), Check: "x", Msg: "m2"},
		{Pos: pos("a.go", 9), Check: "x", Msg: "m1"},
		{Pos: pos("b.go", 2), Check: "x", Msg: "m2"}, // duplicate
		{Pos: pos("a.go", 9), Check: "w", Msg: "m0"},
	}
	out := Dedup(in)
	if len(out) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(out), out)
	}
	wantOrder := []string{"m0", "m1", "m2"}
	for i, f := range out {
		if f.Msg != wantOrder[i] {
			t.Errorf("position %d: got %q, want %q", i, f.Msg, wantOrder[i])
		}
	}
}

func TestBaseline(t *testing.T) {
	f1 := Finding{Pos: token.Position{Filename: "a.go", Line: 3}, Check: "noclock", Msg: "grandfathered"}
	f2 := Finding{Pos: token.Position{Filename: "b.go", Line: 7}, Check: "noclock", Msg: "new debt"}
	p := filepath.Join(t.TempDir(), "baseline.txt")
	content := "# grandfathered findings\n\n" + f1.Key() + "\n"
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	got := FilterBaseline([]Finding{f1, f2}, base)
	if len(got) != 1 || got[0].Msg != "new debt" {
		t.Fatalf("FilterBaseline kept %v, want only the new finding", got)
	}
	// Keys deliberately ignore line numbers so baselines survive drift.
	moved := f1
	moved.Pos.Line = 99
	if !base[moved.Key()] {
		t.Errorf("baseline did not match the same finding at a different line")
	}
}
