package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sqlpp"
	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/eval"
	"sqlpp/internal/funcs"
	"sqlpp/internal/index"
	"sqlpp/internal/lexer"
	"sqlpp/internal/parser"
	"sqlpp/internal/plan"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sema"
	"sqlpp/internal/sion"
	"sqlpp/internal/stats"
	"sqlpp/internal/value"
)

// reference is the traced pass's embedded mirror of a workload: an
// engine holding the same collections and indexes, against which every
// served or sharded answer must be byte-identical, plus a catalog the
// prepare stages (which Engine.Prepare runs in one call) can be replayed
// against one public function at a time.
type reference struct {
	engine *sqlpp.Engine
	cat    *catalog.Catalog
	funcs  *funcs.Registry
	plain  map[string]*sqlpp.Prepared
	params map[string]*sqlpp.PreparedParams
	// Shadow of the collection ingest ops write, so stats and index
	// maintenance can be replayed as calls of their own.
	shadow shadowColl
	// build holds what loading the catalog cost, layer by layer.
	build buildCost
}

type shadowColl struct {
	val   value.Value
	stats *stats.Collection
	idx   []*index.Index
}

// buildCost is the time spent in each write-path layer while the
// reference catalog was loaded, with the rows it covered.
type buildCost struct {
	rows       int64
	statsNS    int64
	registerNS int64 // catalog.Register, which builds statistics inside
	epochBumps int64
}

func specOf(ix indexSpec) (index.Spec, error) {
	k, err := index.ParseKind(ix.kind)
	return index.Spec{Name: ix.name, Collection: ix.collection, Path: strings.Split(ix.path, "."), Kind: k}, err
}

func newReference(in *inputs) (*reference, error) {
	db, err := setupEmbedded(in)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	ref := &reference{engine: db, cat: catalog.New(), funcs: funcs.NewRegistry(),
		plain: map[string]*sqlpp.Prepared{}, params: map[string]*sqlpp.PreparedParams{}}
	epoch := ref.cat.Epoch()
	for _, name := range in.names {
		v, _ := db.Lookup(name)
		elems, _ := value.Elements(v)
		// Statistics are built alone before and after the catalog call
		// that builds them inside, so the call's own share is not an
		// artefact of which of the two ran on a warm cache.
		t0 := time.Now()
		if _, err := stats.Build(v, nil); err != nil {
			return nil, fmt.Errorf("stats %s: %w", name, err)
		}
		t1 := time.Now()
		if err := ref.cat.Register(name, v); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := stats.Build(v, nil); err != nil {
			return nil, fmt.Errorf("stats %s: %w", name, err)
		}
		ref.build.rows += int64(len(elems))
		ref.build.statsNS += (t1.Sub(t0).Nanoseconds() + time.Since(t2).Nanoseconds()) / 2
		ref.build.registerNS += t2.Sub(t1).Nanoseconds()
	}
	for _, ix := range in.indexes {
		spec, err := specOf(ix)
		if err != nil {
			return nil, err
		}
		if err := ref.cat.CreateIndex(spec, nil); err != nil {
			return nil, err
		}
	}
	ref.build.epochBumps = ref.cat.Epoch() - epoch
	return ref, nil
}

// stageTimes is one query text taken through the prepare pipeline one
// public function at a time.
type stageTimes struct {
	lexNS, parseNS, rewriteNS, semaNS, optimizeNS int64
	tokens, astNodes, coreNodes, notes            int
}

func countNodes(e ast.Expr) int {
	n := 0
	ast.Inspect(e, func(x ast.Expr) bool {
		if x != nil {
			n++
		}
		return true
	})
	return n
}

func paramNames(params map[string]int) []string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	return names
}

// stages replays prepare. span, when non-nil, records each stage. The
// options mirror Engine.Prepare under default Options.
func (ref *reference) stages(text string, params []string, span func(name string, fn func())) (stageTimes, error) {
	if span == nil {
		span = func(_ string, fn func()) { fn() }
	}
	var st stageTimes
	var err error
	timed := func(name string, dst *int64, fn func()) {
		span(name, func() {
			t0 := time.Now()
			fn()
			*dst = time.Since(t0).Nanoseconds()
		})
	}
	timed("lexer", &st.lexNS, func() {
		var toks []lexer.Token
		toks, err = lexer.Tokenize(text)
		st.tokens = len(toks)
	})
	if err != nil {
		return st, err
	}
	var tree, core ast.Expr
	timed("parser", &st.parseNS, func() { tree, err = parser.Parse(text) })
	if err != nil {
		return st, err
	}
	st.astNodes = countNodes(tree)
	timed("rewrite", &st.rewriteNS, func() {
		core, err = rewrite.Rewrite(tree, rewrite.Options{Names: ref.cat, Params: params})
	})
	if err != nil {
		return st, err
	}
	st.coreNodes = countNodes(core)
	timed("sema", &st.semaNS, func() { sema.Analyze(core, sema.Options{Params: params}) })
	timed("plan.optimize", &st.optimizeNS, func() {
		st.notes = len(plan.Optimize(core, plan.OptOptions{
			Mode: eval.Permissive, Indexes: ref.cat, Compile: true, Funcs: ref.funcs,
			Stats: ref.cat, Parallelism: runtime.GOMAXPROCS(0),
		}))
	})
	return st, nil
}

// run executes a query op on the reference engine, compiling each text
// once.
func (ref *reference) run(o *op) (value.Value, error) {
	if o.params == nil {
		p, ok := ref.plain[o.text]
		if !ok {
			var err error
			if p, err = ref.engine.Prepare(o.text); err != nil {
				return nil, err
			}
			ref.plain[o.text] = p
		}
		return p.ExecContext(context.Background())
	}
	p, ok := ref.params[o.text]
	if !ok {
		var err error
		if p, err = ref.engine.PrepareParams(o.text, paramNames(o.params)...); err != nil {
			return nil, err
		}
		ref.params[o.text] = p
	}
	args := make(map[string]value.Value, len(o.params))
	for n, x := range o.params {
		args[n] = value.Int(int64(x))
	}
	return p.ExecContext(context.Background(), args)
}

// forget drops the compiled queries, as a server does after an ingest.
func (ref *reference) forget() {
	ref.plain = map[string]*sqlpp.Prepared{}
	ref.params = map[string]*sqlpp.PreparedParams{}
}

// decodeBody decodes an ingest body the way the server's handler would.
func decodeBody(w *writeOp) (value.Value, error) {
	switch {
	case strings.Contains(w.path, "format=json"):
		return datafmt.DecodeJSONBag(bytes.NewReader(w.body))
	case strings.Contains(w.path, "format=csv"):
		return datafmt.DecodeCSV(bytes.NewReader(w.body), datafmt.CSVOptions{})
	case strings.Contains(w.path, "format=cbor"):
		return datafmt.DecodeCBOR(w.body)
	}
	return sion.Parse(string(w.body))
}

// replayWrite applies an ingest op to the reference, one write-path
// layer per span: decode, statistics, each index, then the catalog call
// that does all of that at once inside the engine. It returns the time
// to charge to the write path (decode plus the catalog call).
func (ref *reference) replayWrite(w *writeOp, specs []indexSpec, span func(name string, fn func())) (int64, error) {
	const coll = "events"
	var v value.Value
	var err error
	t0 := time.Now()
	span("datafmt.decode", func() { v, err = decodeBody(w) })
	if err != nil {
		return 0, err
	}
	decodeNS := time.Since(t0).Nanoseconds()
	appendMode := strings.Contains(w.path, "mode=append")
	elems, _ := value.Elements(v)
	sh := &ref.shadow
	if appendMode && sh.val != nil {
		old, _ := value.Elements(sh.val)
		merged := value.Bag(append(append(make([]value.Value, 0, len(old)+len(elems)), old...), elems...))
		span("stats.extend", func() { sh.stats, err = sh.stats.Extended(elems, nil) })
		for i := range sh.idx {
			if err == nil {
				span("index.extend", func() { sh.idx[i], err = sh.idx[i].Extended(merged, elems, nil) })
			}
		}
		sh.val = merged
	} else {
		sh.val, sh.idx = v, sh.idx[:0]
		span("stats.build", func() { sh.stats, err = stats.Build(v, nil) })
		for _, ix := range specs {
			if err != nil {
				break
			}
			spec, serr := specOf(ix)
			if serr != nil {
				return 0, serr
			}
			span("index.build", func() {
				var built *index.Index
				if built, err = index.Build(spec, v, nil); err == nil {
					sh.idx = append(sh.idx, built)
				}
			})
		}
	}
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	if appendMode {
		span("catalog.append", func() { err = ref.engine.Append(coll, v) })
	} else {
		span("catalog.register", func() { err = ref.engine.Register(coll, v) })
	}
	ref.forget()
	return decodeNS + time.Since(t1).Nanoseconds(), err
}
