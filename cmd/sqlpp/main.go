// Command sqlpp is an interactive SQL++ shell and script runner.
//
// Usage:
//
//	sqlpp [flags] [query]
//
// Flags:
//
//	-data name=path   register a data file as a named value (repeatable);
//	                  the format is inferred from the extension:
//	                  .json, .jsonl/.ndjson, .csv, .cbor, .sion (object notation)
//	-ddl path         declare schemas from a DDL file (CREATE TABLE ...)
//	-f path           execute the query in the file and exit
//	-compat           enable SQL compatibility mode
//	-strict           enable stop-on-error typing
//	-timeout d        abort a query after d (e.g. 500ms, 10s); 0 = no limit
//	-max-rows n       abort a query once it has produced n output rows (0 = no limit)
//	-max-bytes n      abort a query once its materialized state (hash-join
//	                  builds, GROUP BY groups, ORDER BY buffers) exceeds n
//	                  bytes (0 = no limit)
//	-out format       output format: sion (default), json, pretty
//	-core             print the SQL++ Core rewriting instead of executing
//	-vet              static analysis: print the semantic analyzer's
//	                  diagnostics for the query (or for each .sqlpp file
//	                  given as an argument) instead of executing.
//	                  Schemas are inferred for -data values without a
//	                  -ddl declaration, so vetting is schema-aware out of
//	                  the box. Exit codes follow the repo's analyzer
//	                  convention (tools/analyzers uses the same one):
//	                  0 when every query is clean, 1 when any query has
//	                  an error-severity diagnostic, 2 when the analysis
//	                  itself could not run (unreadable file, schema
//	                  inference failure, bad usage) — so CI can tell
//	                  "the queries are wrong" from "the vet is broken".
//	-explain          execute with EXPLAIN ANALYZE: print the per-operator
//	                  stats tree (rows in/out, wall time, counters) after
//	                  the result
//	-no-opt           run the reference implementation the identity tests
//	                  compare against (naive clause pipeline, interpreter)
//	-parallel n       parallel-scan workers: 0 = GOMAXPROCS, 1 = sequential
//
// With no query and no -f, sqlpp starts a REPL. REPL commands:
//
//	\names            list registered named values
//	\schema <name>    show the declared or inferred schema of a value
//	\core <query>     show the SQL++ Core form of a query
//	\vet <query>      show the static analyzer's diagnostics for a query
//	\plan <query>     show the physical optimizations a query would use
//	\stats [c [path]] show the optimizer statistics for one or all collections
//	\index create <name> <collection> <path> [hash|ordered]
//	                  build a secondary index over a key path
//	\index drop <name>
//	\index list       list secondary indexes with key/slot statistics
//	\explain analyze <query>
//	                  execute the query and show the per-operator stats tree
//	\mode             show the current modes
//	\q                quit
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/types"
	"sqlpp/internal/value"
)

type dataFlags []string

func (d *dataFlags) String() string { return strings.Join(*d, ",") }

func (d *dataFlags) Set(s string) error {
	*d = append(*d, s)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sqlpp:", err)
		os.Exit(exitCode(err))
	}
}

// exitError carries an explicit process exit code. -vet uses it to
// distinguish "the queries are wrong" (1) from "the analysis could not
// run" (2); everything else keeps the traditional exit 1.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func exitCode(err error) int {
	var xe *exitError
	if errors.As(err, &xe) {
		return xe.code
	}
	return 1
}

func run() error {
	var data dataFlags
	flag.Var(&data, "data", "name=path of a data file to register (repeatable)")
	ddlPath := flag.String("ddl", "", "path to a DDL file of CREATE TABLE schema declarations")
	queryFile := flag.String("f", "", "path to a query file to execute")
	compat := flag.Bool("compat", false, "enable SQL compatibility mode")
	strict := flag.Bool("strict", false, "enable stop-on-error typing")
	timeout := flag.Duration("timeout", 0, "abort a query after this duration (0 = no limit)")
	maxRows := flag.Int64("max-rows", 0, "abort a query after this many output rows (0 = no limit)")
	maxBytes := flag.Int64("max-bytes", 0, "abort a query once materialized state exceeds this many bytes (0 = no limit)")
	outFormat := flag.String("out", "sion", "output format: sion, json, or pretty")
	showCore := flag.Bool("core", false, "print the SQL++ Core rewriting instead of executing")
	vet := flag.Bool("vet", false, "print static-analysis diagnostics instead of executing; exit 1 on error-severity diagnostics, 2 if the analysis itself fails")
	explain := flag.Bool("explain", false, "execute with EXPLAIN ANALYZE and print the per-operator stats tree")
	noOpt := flag.Bool("no-opt", false, "run the reference implementation the identity tests compare against (naive clause pipeline, interpreter)")
	parallel := flag.Int("parallel", 0, "parallel-scan workers (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	db := sqlpp.New(&sqlpp.Options{
		Compat:           *compat,
		StopOnError:      *strict,
		DisableOptimizer: *noOpt,
		Parallelism:      *parallel,
		Limits: sqlpp.Limits{
			MaxOutputRows:        *maxRows,
			MaxMaterializedBytes: *maxBytes,
		},
	})
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-data wants name=path, got %q", spec)
		}
		if err := loadFile(db, name, path); err != nil {
			return err
		}
	}
	if *ddlPath != "" {
		src, err := os.ReadFile(*ddlPath)
		if err != nil {
			return err
		}
		for _, stmt := range splitStatements(string(src)) {
			if _, err := db.DeclareSchema(stmt); err != nil {
				return err
			}
		}
	}

	if *vet {
		return runVet(db, flag.Args(), *queryFile)
	}
	query := strings.Join(flag.Args(), " ")
	if *queryFile != "" {
		src, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		query = string(src)
	}
	if strings.TrimSpace(query) != "" {
		return runOne(db, query, *outFormat, *showCore, *explain, *timeout)
	}
	return repl(db, *outFormat, *timeout)
}

// runVet is the batch static-analysis mode. Arguments that name files
// are vetted file by file (splitting on ';'); otherwise the arguments
// are one query. Compile failures (parse and resolution errors) are
// reported as error-severity findings rather than aborting the batch.
// Infrastructure failures — an unreadable file, a schema inference
// error, no input at all — exit 2 instead of 1: they mean the analysis
// never ran, not that the queries are wrong.
func runVet(db *sqlpp.Engine, args []string, queryFile string) error {
	internal := func(err error) error {
		if err == nil {
			return nil
		}
		return &exitError{code: 2, err: err}
	}
	// Vetting wants maximum static knowledge: infer a schema for every
	// registered value that has no declared one.
	for _, name := range db.Names() {
		if _, ok := db.SchemaOf(name); !ok {
			if _, err := db.InferSchema(name); err != nil {
				return internal(err)
			}
		}
	}

	type unit struct {
		label string
		query string
	}
	var units []unit
	addFile := func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, stmt := range splitStatements(string(src)) {
			units = append(units, unit{label: path, query: strings.TrimSuffix(stmt, ";")})
		}
		return nil
	}
	if queryFile != "" {
		if err := addFile(queryFile); err != nil {
			return internal(err)
		}
	}
	allFiles := len(args) > 0
	for _, a := range args {
		if _, err := os.Stat(a); err != nil {
			allFiles = false
			break
		}
	}
	switch {
	case allFiles:
		for _, a := range args {
			if err := addFile(a); err != nil {
				return internal(err)
			}
		}
	case len(args) > 0:
		units = append(units, unit{label: "<query>", query: strings.Join(args, " ")})
	}
	if len(units) == 0 {
		return internal(fmt.Errorf("-vet wants a query, -f file, or .sqlpp file arguments"))
	}

	errs := 0
	for _, u := range units {
		diags, err := vetQuery(db, u.query)
		if err != nil {
			fmt.Printf("%s: error: %v\n", u.label, err)
			errs++
			continue
		}
		for _, d := range diags {
			fmt.Printf("%s: %s\n", u.label, d)
			if d.Severity == sqlpp.SevError {
				errs++
			}
		}
	}
	if errs > 0 {
		return &exitError{code: 1, err: fmt.Errorf("vet found %d error(s)", errs)}
	}
	return nil
}

// vetQuery compiles and analyzes one query, returning its diagnostics.
func vetQuery(db *sqlpp.Engine, query string) ([]sqlpp.Diagnostic, error) {
	p, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return p.Diagnostics(), nil
}

// loadFile registers path under name, inferring the format from the
// extension.
func loadFile(db *sqlpp.Engine, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		return db.RegisterJSON(name, f)
	case ".jsonl", ".ndjson":
		return db.RegisterJSONLines(name, f)
	case ".csv":
		return db.RegisterCSV(name, f)
	case ".cbor":
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return db.RegisterCBOR(name, data)
	case ".sion", ".sqlpp", ".txt":
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return db.RegisterSION(name, string(data))
	}
	return fmt.Errorf("unknown data format for %s (want .json, .jsonl, .csv, .cbor, or .sion)", path)
}

// splitStatements splits a script on ';' terminators, ignoring
// semicolons inside string literals, quoted identifiers, and comments.
// Pieces that hold only comments and whitespace are dropped.
func splitStatements(src string) []string {
	var out []string
	flush := func(part string) {
		if !onlyTrivia(part) {
			out = append(out, part+";")
		}
	}
	start := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case ';':
			flush(src[start:i])
			start = i + 1
		case '-':
			if i+1 < len(src) && src[i+1] == '-' {
				for i < len(src) && src[i] != '\n' {
					i++
				}
			}
		case '/':
			if i+1 < len(src) && src[i+1] == '*' {
				i += 2
				for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
					i++
				}
				i++
			}
		case '\'', '"', '`':
			q := src[i]
			for i++; i < len(src) && src[i] != q; i++ {
			}
		}
	}
	if !onlyTrivia(src[start:]) {
		out = append(out, src[start:])
	}
	return out
}

// onlyTrivia reports whether the piece contains nothing but whitespace
// and comments.
func onlyTrivia(part string) bool {
	for i := 0; i < len(part); i++ {
		switch c := part[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case c == '-' && i+1 < len(part) && part[i+1] == '-':
			for i < len(part) && part[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(part) && part[i+1] == '*':
			i += 2
			for i+1 < len(part) && !(part[i] == '*' && part[i+1] == '/') {
				i++
			}
			i++
		default:
			return false
		}
	}
	return true
}

func runOne(db *sqlpp.Engine, query, outFormat string, showCore, explain bool, timeout time.Duration) error {
	if showCore {
		p, err := db.Prepare(query)
		if err != nil {
			return err
		}
		fmt.Println(p.Core())
		return nil
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if explain {
		p, err := db.Prepare(query)
		if err != nil {
			return err
		}
		v, stats, err := p.ExplainAnalyze(ctx)
		if err != nil {
			return err
		}
		if err := emit(v, outFormat); err != nil {
			return err
		}
		fmt.Println("-- explain analyze --")
		fmt.Print(stats.Render(false))
		return nil
	}
	v, err := db.QueryContext(ctx, query)
	if err != nil {
		return err
	}
	return emit(v, outFormat)
}

func emit(v value.Value, format string) error {
	switch format {
	case "json":
		s, err := datafmt.JSONString(v)
		if err != nil {
			return err
		}
		fmt.Println(s)
	case "pretty":
		fmt.Println(value.Pretty(v))
	default:
		fmt.Println(v.String())
	}
	return nil
}

func repl(db *sqlpp.Engine, outFormat string, timeout time.Duration) error {
	fmt.Println("sqlpp shell — SQL++ per Carey et al., ICDE 2024. \\q quits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "sqlpp> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := sc.Text()
		if pending.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), "\\") {
			if done := command(db, strings.TrimSpace(line), outFormat); done {
				return nil
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		text := pending.String()
		// Execute on ';' or on a blank line.
		if !strings.Contains(text, ";") && strings.TrimSpace(line) != "" {
			prompt = "   ... "
			continue
		}
		pending.Reset()
		prompt = "sqlpp> "
		q := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), ";"))
		if q == "" {
			continue
		}
		if err := runOne(db, q, outFormat, false, false, timeout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// command handles a backslash REPL command; it reports whether the REPL
// should exit.
func command(db *sqlpp.Engine, line, outFormat string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "\\q", "\\quit":
		return true
	case "\\names":
		for _, n := range db.Names() {
			fmt.Println(n)
		}
	case "\\schema":
		if rest == "" {
			fmt.Fprintln(os.Stderr, "usage: \\schema <name>")
			return false
		}
		if t, ok := db.SchemaOf(rest); ok {
			fmt.Println(t)
			return false
		}
		if v, ok := db.Lookup(rest); ok {
			fmt.Println(types.Infer(v), "(inferred)")
			return false
		}
		fmt.Fprintf(os.Stderr, "no named value %q\n", rest)
	case "\\core":
		if err := runOne(db, rest, outFormat, true, false, 0); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	case "\\vet":
		if rest == "" {
			fmt.Fprintln(os.Stderr, "usage: \\vet <query>")
			return false
		}
		diags, err := vetQuery(db, rest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		if len(diags) == 0 {
			fmt.Println("no findings")
			return false
		}
		for _, d := range diags {
			fmt.Println(d)
		}
	case "\\explain":
		sub, q, _ := strings.Cut(rest, " ")
		if !strings.EqualFold(sub, "analyze") || strings.TrimSpace(q) == "" {
			fmt.Fprintln(os.Stderr, "usage: \\explain analyze <query>")
			return false
		}
		if err := runOne(db, strings.TrimSpace(q), outFormat, false, true, 0); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	case "\\plan":
		p, err := db.Prepare(rest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		notes := p.PlanNotes()
		if len(notes) == 0 {
			fmt.Println("naive pipeline (no physical rewrites)")
			return false
		}
		for _, n := range notes {
			fmt.Println(n)
		}
	case "\\index":
		indexCommand(db, rest)
	case "\\stats":
		statsCommand(db, rest)
	case "\\mode":
		o := db.Options()
		fmt.Printf("compat=%v strict=%v optimizer=%v parallel=%d\n",
			o.Compat, o.StopOnError, !o.DisableOptimizer, o.Parallelism)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s\n", cmd)
	}
	return false
}

// indexCommand handles the \index REPL subcommands.
func indexCommand(db *sqlpp.Engine, rest string) {
	args := strings.Fields(rest)
	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: \\index create <name> <collection> <path> [hash|ordered] | \\index drop <name> | \\index list")
	}
	if len(args) == 0 {
		usage()
		return
	}
	switch args[0] {
	case "create":
		if len(args) < 4 || len(args) > 5 {
			usage()
			return
		}
		kind := ""
		if len(args) == 5 {
			kind = args[4]
		}
		if err := db.CreateIndex(args[1], args[2], args[3], kind); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Printf("index %s created\n", args[1])
	case "drop":
		if len(args) != 2 {
			usage()
			return
		}
		if !db.DropIndex(args[1]) {
			fmt.Fprintf(os.Stderr, "no index %q\n", args[1])
			return
		}
		fmt.Printf("index %s dropped\n", args[1])
	case "list":
		infos := db.Indexes()
		if len(infos) == 0 {
			fmt.Println("no indexes")
			return
		}
		for _, info := range infos {
			fmt.Printf("%s\t%s(%s)\t%s\tentries=%d keys=%d missing=%d null=%d\n",
				info.Name, info.Collection, info.Path, info.Kind,
				info.Entries, info.Keys, info.Missing, info.Null)
		}
	default:
		usage()
	}
}

// statsCommand prints the optimizer statistics for one collection (or
// one path within it), or a one-line summary per collection when no
// name is given.
func statsCommand(db *sqlpp.Engine, rest string) {
	args := strings.Fields(rest)
	if len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: \\stats [collection [path]]")
		return
	}
	coll, path := "", ""
	if len(args) > 0 {
		coll = args[0]
	}
	if len(args) > 1 {
		path = args[1]
	}
	all := db.Stats()
	if len(all) == 0 {
		fmt.Println("no statistics (only registered collections are profiled)")
		return
	}
	pathSeen := false
	for _, cs := range all {
		if coll != "" && cs.Collection != coll {
			continue
		}
		s := cs.Stats
		fmt.Printf("%s\trows=%d paths=%d", cs.Collection, s.Rows, len(s.Paths))
		if s.Truncated {
			fmt.Print(" (path set truncated)")
		}
		fmt.Println()
		if coll == "" {
			continue
		}
		for _, p := range s.Paths {
			if path != "" && p.Path != path {
				continue
			}
			pathSeen = true
			exact := "~"
			if p.NDVExact {
				exact = "="
			}
			fmt.Printf("  %s\tpresent=%d null=%d missing=%d ndv%s%.0f\n",
				p.Path, p.Present, p.Null, p.Missing, exact, p.NDV)
			for _, c := range p.Classes {
				fmt.Printf("    %s\trows=%d min=%s max=%s buckets=%d\n",
					c.Class, c.Rows, c.Min, c.Max, len(c.Histogram))
			}
		}
	}
	if coll != "" {
		for _, cs := range all {
			if cs.Collection == coll {
				if path != "" && !pathSeen {
					fmt.Fprintf(os.Stderr, "no statistics for path %q in %q\n", path, coll)
				}
				return
			}
		}
		fmt.Fprintf(os.Stderr, "no statistics for %q\n", coll)
	}
}
