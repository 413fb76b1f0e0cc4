// Package lint is the repo's static-analysis framework: a stdlib-only
// (go/parser + go/types + go/importer — no external analysis framework)
// typed, package-at-a-time driver plus the eight invariant passes that
// run over it. The paper's §VI argument — static checking of a dynamic
// language's risky spots pays for itself — applied to the engine's own
// Go: the rules that keep the concurrent core honest (lock ordering,
// goroutine joining, cancellation polling, typed errors at API seams,
// fault-injection gating, governor charging, clock discipline, closure
// purity) are enforced by machines instead of reviewers.
//
// A Repo is loaded once: every non-test file is parsed in parallel
// (including files excluded by build constraints, so tag-gated
// declarations stay visible to the syntactic checks), then the
// default-build packages are type-checked in dependency order against a
// combined importer — module-internal imports resolve to the parsed
// tree, everything else to the source importer. Findings from every
// pass are deduplicated and position-sorted, exactly like
// internal/sema's diagnostics, and render as text or JSON with an
// optional baseline file for grandfathered findings.
package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one invariant violation.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the finding the way CI logs and tests print it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// Key identifies a finding independently of line drift, for baseline
// matching: file, check, and message, but no line number.
func (f Finding) Key() string {
	return f.Pos.Filename + ": [" + f.Check + "] " + f.Msg
}

// File is one parsed source file.
type File struct {
	// Path is slash-separated and repo-root-relative; the per-file checks
	// scope themselves by it. Positions inside Ast print this path.
	Path string
	Ast  *ast.File
}

// Package is one type-checked, default-build package.
type Package struct {
	// Dir is the slash-relative package directory ("." for the module
	// root); the package-scoped checks scope themselves by it.
	Dir string
	// PkgPath is the import path.
	PkgPath string
	// Files are the build-active, non-test files.
	Files []*File
	Types *types.Package
	Info  *types.Info
}

// Repo is a loaded source tree, the unit every analyzer runs over.
type Repo struct {
	Root string
	Fset *token.FileSet
	// Files is every parsed non-test file, sorted by path — including
	// files a build constraint excludes from the default build.
	Files []*File
	// Pkgs is every default-build package, sorted by directory and fully
	// type-checked.
	Pkgs []*Package

	mu       sync.Mutex
	comments map[*File]map[int]string
	decls    map[*types.Func]*declSite
}

// Analyzer is one invariant pass.
type Analyzer struct {
	// Name is the check tag findings carry ("lockorder", "goroleak", …)
	// and the fixture-directory name under testdata/src.
	Name string
	// Doc is the one-line invariant statement.
	Doc string
	// Run reports every violation in the repo.
	Run func(r *Repo) []Finding
}

// All is the suite: the four per-file syntactic lints the repo started
// with, ported onto the typed driver, plus the four whole-program
// concurrency-safety passes.
var All = []*Analyzer{
	Faultgate,
	Govcharge,
	Noclock,
	Compilepure,
	Lockorder,
	Goroleak,
	Ctxpoll,
	Errseam,
}

// RunAll runs the whole suite and returns the deduplicated,
// position-sorted findings.
func RunAll(r *Repo) []Finding { return Run(r, All) }

// Run runs the given analyzers and merges their findings.
func Run(r *Repo, as []*Analyzer) []Finding {
	var out []Finding
	for _, a := range as {
		out = append(out, a.Run(r)...)
	}
	return Dedup(out)
}

// Dedup sorts findings by position then check, dropping exact
// duplicates (two passes may flag the same site).
func Dedup(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// ReadBaseline parses a baseline file: one Finding.Key per line,
// '#'-prefixed comments and blank lines ignored. Findings whose key
// appears are suppressed — the escape hatch for grandfathered debt,
// kept out of this repo on purpose (the tree runs clean).
func ReadBaseline(p string) (map[string]bool, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out, sc.Err()
}

// FilterBaseline drops findings whose Key is baselined.
func FilterBaseline(fs []Finding, base map[string]bool) []Finding {
	if len(base) == 0 {
		return fs
	}
	out := fs[:0]
	for _, f := range fs {
		if !base[f.Key()] {
			out = append(out, f)
		}
	}
	return out
}

// Load parses and type-checks the repo rooted at root.
func Load(root string) (*Repo, error) {
	h, err := NewHost(root)
	if err != nil {
		return nil, err
	}
	return h.LoadRepo()
}

// Host caches a parsed module tree so several Repos (the real tree, the
// fixture packages) can type-check against it without re-parsing.
type Host struct {
	ld *loader
}

// NewHost parses the module at root (in parallel) without type-checking
// anything yet.
func NewHost(root string) (*Host, error) {
	ld, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	return &Host{ld: ld}, nil
}

// LoadRepo type-checks every default-build package and returns the full
// Repo.
func (h *Host) LoadRepo() (*Repo, error) {
	ld := h.ld
	var dirs []string
	for d := range ld.active {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, d := range dirs {
		p, err := ld.check(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if err := ld.typeErr(); err != nil {
		return nil, err
	}
	return &Repo{Root: ld.root, Fset: ld.fset, Files: ld.files, Pkgs: pkgs}, nil
}

// loader owns the parse products and the memoized type-checking.
type loader struct {
	root     string
	module   string
	fset     *token.FileSet
	files    []*File            // every non-test file, sorted by path
	active   map[string][]*File // dir → default-build files
	pkgs     map[string]*Package
	inFlight map[string]bool
	srcImp   types.Importer
	errs     []error
}

func newLoader(root string) (*loader, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	// Gather every non-test source path, then parse in parallel.
	var paths []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == ".git" || name == "testdata" || name == "examples" || name == ".github") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ld := &loader{
		root:     root,
		module:   module,
		fset:     token.NewFileSet(),
		active:   map[string][]*File{},
		pkgs:     map[string]*Package{},
		inFlight: map[string]bool{},
		srcImp:   importer.ForCompiler(token.NewFileSet(), "source", nil),
	}
	files, err := ld.parseAll(paths)
	if err != nil {
		return nil, err
	}
	ld.files = files
	for _, f := range files {
		if buildActive(f.Ast) {
			dir := path.Dir(f.Path)
			ld.active[dir] = append(ld.active[dir], f)
		}
	}
	return ld, nil
}

// parseAll parses every path concurrently. token.FileSet is safe for
// concurrent AddFile, so the workers share one; each file is parsed
// under its repo-relative slash path so positions print identically
// from any working directory.
func (ld *loader) parseAll(paths []string) ([]*File, error) {
	type slot struct {
		file *File
		err  error
	}
	slots := make([]slot, len(paths))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) {
		workers = len(paths)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				slots[i].file, slots[i].err = ld.parseOne(paths[i])
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	files := make([]*File, 0, len(slots))
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		files = append(files, s.file)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return files, nil
}

func (ld *loader) parseOne(p string) (*File, error) {
	rel, err := filepath.Rel(ld.root, p)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	src, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	tree, err := parser.ParseFile(ld.fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &File{Path: rel, Ast: tree}, nil
}

// buildActive evaluates the file's //go:build constraint (if any) for
// the default build: only GOOS/GOARCH tags hold, so tag-gated files
// like the armed fault-injection implementation are excluded from
// type-checking while staying visible to the syntactic checks.
// Filename-implied constraints (_linux.go) are not emulated; the repo
// has none.
func buildActive(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH
			})
		}
	}
	return true
}

// importPath maps a repo-relative dir to its import path.
func (ld *loader) importPath(dir string) string {
	if dir == "." {
		return ld.module
	}
	return ld.module + "/" + dir
}

// check type-checks the package in dir (memoized), resolving its
// module-internal imports recursively and everything else through the
// source importer.
func (ld *loader) check(dir string) (*Package, error) {
	if p, ok := ld.pkgs[dir]; ok {
		return p, nil
	}
	if ld.inFlight[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	files := ld.active[dir]
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable package in %s", dir)
	}
	ld.inFlight[dir] = true
	defer delete(ld.inFlight, dir)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: importerFunc(ld.importPkg),
		Error: func(err error) {
			if len(ld.errs) < 20 {
				ld.errs = append(ld.errs, err)
			}
		},
	}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.Ast
	}
	tp, _ := conf.Check(ld.importPath(dir), ld.fset, asts, info)
	p := &Package{Dir: dir, PkgPath: ld.importPath(dir), Files: files, Types: tp, Info: info}
	ld.pkgs[dir] = p
	return p, nil
}

// importPkg resolves one import for the type checker.
func (ld *loader) importPkg(ipath string) (*types.Package, error) {
	if ipath == ld.module {
		p, err := ld.check(".")
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if rest, ok := strings.CutPrefix(ipath, ld.module+"/"); ok {
		p, err := ld.check(rest)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.srcImp.Import(ipath)
}

// typeErr folds the collected type errors into one error.
func (ld *loader) typeErr() error {
	if len(ld.errs) == 0 {
		return nil
	}
	msgs := make([]string, len(ld.errs))
	for i, e := range ld.errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("lint: type checking failed:\n  %s", strings.Join(msgs, "\n  "))
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

// modulePath reads the module directive from root's go.mod.
func modulePath(root string) (string, error) {
	src, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: the analysis root must be a module root: %w", err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// ---- shared analyzer plumbing ----

// perFile lifts a per-file syntactic check over every parsed file,
// build-excluded files included.
func perFile(check func(r *Repo, f *File) []Finding) func(*Repo) []Finding {
	return func(r *Repo) []Finding {
		var out []Finding
		for _, f := range r.Files {
			out = append(out, check(r, f)...)
		}
		return out
	}
}

// perPkg lifts a package-at-a-time typed check over every default-build
// package.
func perPkg(check func(r *Repo, p *Package) []Finding) func(*Repo) []Finding {
	return func(r *Repo) []Finding {
		var out []Finding
		for _, p := range r.Pkgs {
			out = append(out, check(r, p)...)
		}
		return out
	}
}

// pos renders a node's position.
func (r *Repo) pos(n ast.Node) token.Position { return r.Fset.Position(n.Pos()) }

// pkgInDirs reports whether p's directory is one of dirs.
func pkgInDirs(p *Package, dirs []string) bool {
	for _, d := range dirs {
		if p.Dir == d {
			return true
		}
	}
	return false
}

// funcs calls fn for every function declaration in p, with its file.
func (p *Package) funcs(fn func(f *File, fd *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}

// enclosingFunc returns the function declaration lexically containing
// pos in f, or nil.
func enclosingFunc(f *File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}

// commentLines maps each source line of f to the comment text occupying
// it (cached per file).
func (r *Repo) commentLines(f *File) map[int]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.comments == nil {
		r.comments = map[*File]map[int]string{}
	}
	if m, ok := r.comments[f]; ok {
		return m
	}
	m := map[int]string{}
	for _, cg := range f.Ast.Comments {
		for _, c := range cg.List {
			start := r.Fset.Position(c.Pos()).Line
			end := r.Fset.Position(c.End()).Line
			lines := strings.Split(c.Text, "\n")
			for l := start; l <= end; l++ {
				i := l - start
				if i >= len(lines) {
					i = len(lines) - 1
				}
				m[l] += lines[i]
			}
		}
	}
	r.comments[f] = m
	return m
}

// markerNear reports whether a marker comment containing key is
// attached to the node at pos: on its own line, on the contiguous
// comment lines immediately above it, or in the enclosing function's
// doc comment. Markers are forced documentation, not escape hatches:
// the reviewer sees the claim next to the code it covers.
func (r *Repo) markerNear(f *File, pos token.Pos, key string) bool {
	if fd := enclosingFunc(f, pos); fd != nil && fd.Doc != nil &&
		strings.Contains(fd.Doc.Text(), key) {
		return true
	}
	lines := r.commentLines(f)
	l := r.Fset.Position(pos).Line
	if strings.Contains(lines[l], key) {
		return true
	}
	for k := l - 1; ; k-- {
		t, ok := lines[k]
		if !ok {
			return false
		}
		if strings.Contains(t, key) {
			return true
		}
	}
}

// span is a half-open position interval within a file.
type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return s.lo <= p && p < s.hi }

func inAny(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

// isPkgSel reports whether e is the selector pkg.name on a plain
// package identifier (purely syntactic; the per-file checks use it so
// they work on tag-excluded files that were never type-checked).
func isPkgSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// mentions reports whether the selector pkg.name occurs anywhere in n.
func mentions(n ast.Node, pkg, name string) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if e, ok := c.(ast.Expr); ok && isPkgSel(e, pkg, name) {
			found = true
			return false
		}
		return !found
	})
	return found
}
