package shard

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"sqlpp"
	"sqlpp/internal/eval"
)

// TestScatterPlanKeyCoversEveryOption flips every field of sqlpp.Options
// (and of its Limits) in turn and requires a scatter plan no other
// setting produced: the plan holds a merge prepared under its options,
// so a field that did not reach the key would let one request merge
// under another's budgets or typing mode. The same options must find
// the same plan again.
func TestScatterPlanKeyCoversEveryOption(t *testing.T) {
	_, co := newIdentityPair(t, 2, nil)
	const q = "SELECT x.g AS g, COUNT(*) AS c FROM orders AS x GROUP BY x.g AS g"
	var opts sqlpp.Options
	seen := map[*scatterPlan]string{}
	record := func(what string) {
		sp := co.plan(q, opts, nil)
		if sp.class != "group" || sp.prepared == nil {
			t.Fatalf("%s: class %s, merge %v (%v)", what, sp.class, sp.prepared, sp.prepErr)
		}
		if other, dup := seen[sp]; dup {
			t.Errorf("the scatter plan key ignores %s: same plan as %s", what, other)
		}
		seen[sp] = what
		if co.plan(q, opts, nil) != sp {
			t.Errorf("%s: the same options planned again", what)
		}
	}
	record("the zero Options")
	var flip func(v reflect.Value, path string)
	flip = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				flip(f, name+".")
				continue
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(7)
			default:
				t.Fatalf("%s: kind %s is not handled; extend this test", name, f.Kind())
			}
			record("Options." + name)
			f.SetZero()
		}
	}
	flip(reflect.ValueOf(&opts).Elem(), "")
}

// TestScatterPlanOptionsAlternate sends one group text again and again
// under alternating options. Each request must run the merge prepared
// for its own options: a row budget below the merge's output trips
// there, with the budget's kind and limit, while the next request
// without one answers, and each typing mode answers as one engine in
// that mode does.
func TestScatterPlanOptionsAlternate(t *testing.T) {
	_, co := newIdentityPair(t, 2, nil)
	const q = "SELECT x.g AS g, COUNT(*) AS c, SUM(x.v) AS s, MAX(x.w * 2) AS w FROM orders AS x GROUP BY x.g AS g"
	single := func(opts sqlpp.Options) (string, error) {
		eng, _ := newIdentityPair(t, 1, &opts)
		v, err := eng.Query(q)
		if err != nil {
			return "", err
		}
		return v.String(), nil
	}
	permissive, perr := single(sqlpp.Options{})
	strict, serr := single(sqlpp.Options{StopOnError: true})
	if perr != nil {
		t.Fatal(perr)
	}
	run := func(eo *ExecOptions) (string, error) {
		res, err := co.ExecRequest(context.Background(), ExecRequest{Query: q, Options: eo})
		if err != nil {
			return "", err
		}
		if res.Class != "group" {
			t.Fatalf("class %s, want group", res.Class)
		}
		return res.Value.String(), nil
	}
	for round := 0; round < 3; round++ {
		_, err := run(&ExecOptions{MaxRows: 1})
		var re *eval.ResourceError
		if !errors.As(err, &re) || re.Kind != eval.ResourceRows || re.Limit != 1 {
			t.Fatalf("round %d: a 1-row budget answered %v, want an output-rows ResourceError at 1", round, err)
		}
		if got, err := run(nil); err != nil || got != permissive {
			t.Fatalf("round %d: unlimited: %s, %v; want %s", round, got, err, permissive)
		}
		got, err := run(&ExecOptions{Strict: true})
		if (err != nil) != (serr != nil) || got != strict {
			t.Fatalf("round %d: strict: %s, %v; one engine: %s, %v", round, got, err, strict, serr)
		}
		if got, err := run(&ExecOptions{}); err != nil || got != permissive {
			t.Fatalf("round %d: permissive: %s, %v; want %s", round, got, err, permissive)
		}
	}
}

// TestScatterPlanSharedConcurrently: 8 goroutines each send 50 group,
// topk and concat requests through one coordinator, so the cached scatter
// plans and the merges they hold run concurrently. Every answer must be
// byte-identical to one engine's. Meaningful under -race.
func TestScatterPlanSharedConcurrently(t *testing.T) {
	single, co := newIdentityPair(t, 2, nil)
	var queries, wants []string
	for _, tc := range identityQueries {
		if tc.class != "group" && tc.class != "topk" && tc.class != "concat" {
			continue
		}
		want, err := single.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, tc.query)
		wants = append(wants, want.String())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w*7 + i) % len(queries)
				res, err := co.Exec(context.Background(), queries[k])
				if err != nil {
					t.Errorf("%q: %v", queries[k], err)
					return
				}
				if got := res.Value.String(); got != wants[k] {
					t.Errorf("%q:\n got %s\nwant %s", queries[k], got, wants[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
