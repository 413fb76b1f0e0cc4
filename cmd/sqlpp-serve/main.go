// Command sqlpp-serve runs the SQL++ query service: an HTTP JSON API
// over an in-memory engine, with a prepared-plan cache, bounded
// concurrency, per-request deadlines, and plain-text metrics.
//
// Usage:
//
//	sqlpp-serve [flags]
//
// Flags:
//
//	-addr addr          listen address (default :8642)
//	-data name=path     preload a data file as a named collection (repeatable);
//	                    format inferred from the extension as in cmd/sqlpp
//	-compat             enable SQL compatibility mode
//	-strict             enable stop-on-error typing
//	-cache n            plan cache capacity (default 256; -1 disables)
//	-max-concurrent n   queries executing at once (default 4×GOMAXPROCS)
//	-timeout d          default per-query timeout (default 30s)
//	-max-timeout d      cap on client-requested timeouts (default 5m)
//	-no-opt             run the reference implementation the identity tests
//	                    compare against (naive clause pipeline, interpreter)
//	-parallel n         parallel-scan workers: 0 = GOMAXPROCS, 1 = sequential
//	-max-rows n         server-wide cap on per-query output rows (0 = unlimited)
//	-max-bytes n        server-wide cap on per-query materialized bytes (0 = unlimited)
//	-queue-wait d       max admission-queue wait before shedding with 429 (default 2s)
//	-drain d            graceful-shutdown drain window for in-flight queries (default 10s)
//	-pprof              expose net/http/pprof profiling under /debug/pprof/
//
// Coordinator mode (scatter-gather over a shard fleet):
//
//	-shards n           run a coordinator over n in-process shard engines
//	-shard-node url     add a remote sqlpp-serve data node (repeatable;
//	                    implies coordinator mode, combines with -shards)
//	-shard-coll spec    partitioning for a preloaded collection:
//	                    name=range or name=hash:keypath (repeatable);
//	                    unlisted collections shard by range, scalars broadcast
//	-on-failure mode    partial-failure policy: fail (default) or partial
//	-shard-attempts n   attempts per shard call (default 3)
//	-shard-backoff d    base retry backoff, doubling per retry (default 25ms)
//	-shard-hedge d      hedge a straggler shard call after d (default off)
//	-shard-breaker n    open a shard's circuit breaker after n consecutive
//	                    failures (default 5; -1 disables)
//	-shard-cooldown d   breaker cooldown before a half-open probe (default 1s)
//
// On SIGINT/SIGTERM the server flips /readyz to "draining", stops
// accepting new queries, and gives in-flight queries the -drain window
// to finish; a second signal exits immediately.
//
// Example session:
//
//	sqlpp-serve -addr :8642 &
//	curl -s -X POST localhost:8642/v1/collections/hr.emp --data-binary \
//	    "{{ {'name':'Ada','salary':120}, {'name':'Bob','salary':90} }}"
//	curl -s -X POST localhost:8642/v1/query \
//	    -d '{"query":"SELECT e.name FROM hr.emp AS e WHERE e.salary > 100"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/server"
	"sqlpp/internal/shard"
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
		fmt.Fprintln(os.Stderr, "sqlpp-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var data dataFlags
	addr := flag.String("addr", ":8642", "listen address")
	flag.Var(&data, "data", "name=path of a data file to preload (repeatable)")
	compat := flag.Bool("compat", false, "enable SQL compatibility mode")
	strict := flag.Bool("strict", false, "enable stop-on-error typing")
	cacheSize := flag.Int("cache", 256, "plan cache capacity (-1 disables)")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries executing at once (0 = 4×GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query timeout")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeouts")
	noOpt := flag.Bool("no-opt", false, "run the reference implementation the identity tests compare against (naive clause pipeline, interpreter)")
	parallel := flag.Int("parallel", 0, "parallel-scan workers (0 = GOMAXPROCS, 1 = sequential)")
	maxRows := flag.Int64("max-rows", 0, "server-wide cap on per-query output rows (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "server-wide cap on per-query materialized bytes (0 = unlimited)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max admission-queue wait before shedding with 429")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window for in-flight queries")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	var shardNodes, shardColls dataFlags
	shards := flag.Int("shards", 0, "run a coordinator over n in-process shard engines")
	flag.Var(&shardNodes, "shard-node", "remote sqlpp-serve data node URL (repeatable)")
	flag.Var(&shardColls, "shard-coll", "partitioning spec name=range or name=hash:keypath (repeatable)")
	onFailure := flag.String("on-failure", "fail", "partial-failure policy: fail or partial")
	shardAttempts := flag.Int("shard-attempts", 3, "attempts per shard call")
	shardBackoff := flag.Duration("shard-backoff", 25*time.Millisecond, "base retry backoff, doubling per retry")
	shardHedge := flag.Duration("shard-hedge", 0, "hedge a straggler shard call after this delay (0 = off)")
	shardBreaker := flag.Int("shard-breaker", 5, "open a shard's breaker after n consecutive failures (-1 disables)")
	shardCooldown := flag.Duration("shard-cooldown", time.Second, "breaker cooldown before a half-open probe")
	flag.Parse()

	opts := sqlpp.Options{
		Compat:           *compat,
		StopOnError:      *strict,
		DisableOptimizer: *noOpt,
		Parallelism:      *parallel,
	}
	db := sqlpp.New(&opts)
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-data wants name=path, got %q", spec)
		}
		if err := loadFile(db, name, path); err != nil {
			return err
		}
	}

	var co *shard.Coordinator
	if *shards > 0 || len(shardNodes) > 0 {
		var err error
		co, err = buildCoordinator(db, opts, coordinatorConfig{
			shards:    *shards,
			nodes:     shardNodes,
			colls:     shardColls,
			onFailure: *onFailure,
			attempts:  *shardAttempts,
			backoff:   *shardBackoff,
			hedge:     *shardHedge,
			breaker:   *shardBreaker,
			cooldown:  *shardCooldown,
		})
		if err != nil {
			return err
		}
	}

	svc := server.New(db, server.Config{
		MaxConcurrent:        *maxConcurrent,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		PlanCacheSize:        *cacheSize,
		MaxQueueWait:         *queueWait,
		MaxOutputRows:        *maxRows,
		MaxMaterializedBytes: *maxBytes,
		Coordinator:          co,
	})
	var handler http.Handler = svc
	if *enablePprof {
		// Profiling rides on the service mux only when asked for: the
		// endpoints expose stacks and heap contents, so they are opt-in
		// and should stay off internet-facing deployments.
		mux := http.NewServeMux()
		mux.Handle("/", svc)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		if co != nil {
			fmt.Fprintf(os.Stderr, "sqlpp-serve: coordinator listening on %s (%d shards, %d collections preloaded)\n",
				*addr, len(co.Shards()), len(db.Names()))
		} else {
			fmt.Fprintf(os.Stderr, "sqlpp-serve: listening on %s (%d collections preloaded)\n", *addr, len(db.Names()))
		}
		errc <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "sqlpp-serve: %s, draining for up to %s\n", sig, *drain)
		// Flip readiness first so load balancers stop routing here and
		// new queries get a clean 503, then let the HTTP server drain
		// in-flight requests inside the window.
		svc.BeginShutdown()
		// Hold the listener open briefly before Shutdown closes it, so
		// readiness probes on fresh connections can observe the draining
		// 503 instead of a connection refusal.
		grace := *drain / 4
		if grace > time.Second {
			grace = time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			time.Sleep(grace)
			done <- httpSrv.Shutdown(ctx)
		}()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
		case sig := <-stop:
			// A second signal means "now": skip the drain.
			fmt.Fprintf(os.Stderr, "sqlpp-serve: %s again, exiting immediately\n", sig)
			os.Exit(130)
		}
	}
	return nil
}

// coordinatorConfig gathers the coordinator-mode flag values.
type coordinatorConfig struct {
	shards    int
	nodes     []string
	colls     []string
	onFailure string
	attempts  int
	backoff   time.Duration
	hedge     time.Duration
	breaker   int
	cooldown  time.Duration
}

// buildCoordinator assembles the shard fleet (in-process engines first,
// then remote data nodes), wraps it in the fault-tolerance policy, and
// distributes the preloaded catalog: collections partition per their
// -shard-coll spec (range by default), scalars broadcast.
func buildCoordinator(db *sqlpp.Engine, opts sqlpp.Options, cfg coordinatorConfig) (*shard.Coordinator, error) {
	mode, ok := shard.ParseFailMode(cfg.onFailure)
	if !ok {
		return nil, fmt.Errorf("-on-failure wants fail or partial, got %q", cfg.onFailure)
	}
	var execs []shard.Executor
	for i := 0; i < cfg.shards; i++ {
		execs = append(execs, shard.NewLocal(fmt.Sprintf("s%d", i), sqlpp.New(&opts)))
	}
	for i, u := range cfg.nodes {
		execs = append(execs, shard.NewHTTP(fmt.Sprintf("n%d", i), u, nil))
	}
	co := shard.NewCoordinator(db, shard.Policy{
		MaxAttempts:      cfg.attempts,
		BaseBackoff:      cfg.backoff,
		HedgeAfter:       cfg.hedge,
		BreakerThreshold: cfg.breaker,
		BreakerCooldown:  cfg.cooldown,
		OnFailure:        mode,
	}, execs...)

	specs := map[string]shard.Spec{}
	for _, sc := range cfg.colls {
		name, val, ok := strings.Cut(sc, "=")
		if !ok {
			return nil, fmt.Errorf("-shard-coll wants name=range or name=hash:keypath, got %q", sc)
		}
		kindStr, key, _ := strings.Cut(val, ":")
		kind, err := shard.ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		if kind == shard.Hash && key == "" {
			return nil, fmt.Errorf("-shard-coll %q: hash partitioning needs a key path", sc)
		}
		specs[name] = shard.Spec{Kind: kind, Key: key}
	}
	for _, name := range db.Names() {
		v, found := db.Lookup(name)
		if !found {
			continue
		}
		spec, listed := specs[name]
		if _, isColl := value.Elements(v); isColl || listed {
			if err := co.Distribute(name, v, spec); err != nil {
				return nil, fmt.Errorf("distribute %s: %w", name, err)
			}
		} else if err := co.Broadcast(name, v); err != nil {
			return nil, fmt.Errorf("broadcast %s: %w", name, err)
		}
	}
	return co, nil
}

// loadFile registers path under name, in the format its extension names.
func loadFile(db *sqlpp.Engine, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	v, err := datafmt.Decode(filepath.Ext(path), f)
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	return db.Register(name, v)
}
