// Package compat is the Core SQL++ "compatibility kit" the paper's
// conclusion calls for: vendor-neutral conformance cases that check an
// implementation's compliance with Core SQL++ in its composability mode
// and its SQL compatibility mode. The cases are data, one file per suite
// under testdata/kit/ in the paper's object notation:
//
//	{ 'data': { <name>: <value>, … },
//	  'cases': [ { 'name': <string>, 'mode': 'both' | 'core' | 'compat',
//	               'strict': <bool>?, 'data': { … }?, 'query': <string>,
//	               'expect': <value> | 'expect_error': true }, … ] }
//
// A case runs its query over its own data, else its file's, with the
// compatibility flag off ('core'), on ('compat') or each ('both'), in
// stop-on-error typing when strict. Its answer must be equivalent to
// 'expect' (bags unordered, tuples unordered), or the query must fail.
package compat

import (
	"embed"
	"errors"
	"fmt"
	"slices"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

//go:embed testdata/kit/*.sion
var kit embed.FS

// suites are the kit's files, in the order Suite returns their cases.
var suites = []string{"paper", "sqlcompat", "nullmissing", "semantics", "ext"}

// modes maps a case's mode to the compatibility flags it runs under.
var modes = map[value.String][]bool{"both": {false, true}, "core": {false}, "compat": {true}}

// Case is one conformance check.
type Case struct {
	Name        string
	Data        map[string]value.Value
	Query       string
	modes       []bool
	Strict      bool
	Expect      value.Value // nil when ExpectError is set
	ExpectError bool
}

// Modes returns the values of the compatibility flag the case runs under.
func (c *Case) Modes() []bool { return slices.Clone(c.modes) }

// Suite returns every case of the kit, decoded afresh on each call.
func Suite() []*Case { return load(suites...) }

// PaperCases returns the cases of the paper's listings.
func PaperCases() []*Case { return load("paper") }

// load panics: the files are embedded, so one that fails to load is a bug.
func load(suites ...string) []*Case {
	var out []*Case
	for _, s := range suites {
		file := "testdata/kit/" + s + ".sion"
		src, err := kit.ReadFile(file)
		cases, perr := parse(file, src)
		if err = errors.Join(err, perr); err != nil {
			panic(err)
		}
		out = append(out, cases...)
	}
	return out
}

// parse reads the kit file named file. An attribute it does not know, a
// case without a name, query or mode, two cases of one name, and a case
// that gives both or neither of 'expect' and 'expect_error' are errors,
// so that no check drops out of the kit unseen.
func parse(file string, src []byte) ([]*Case, error) {
	doc, err := datafmt.DecodeSION(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	top, err := attrs(doc)
	data, derr := attrs(top["data"])
	list, ok := top["cases"].(value.Array)
	if err != nil || derr != nil || !ok || len(top) != 2 {
		return nil, fmt.Errorf("%s: want a 'data' tuple and a 'cases' array, and no more", file)
	}
	cases := make([]*Case, len(list))
	for i, v := range list {
		c, err := parseCase(v, data)
		if err == nil && slices.ContainsFunc(cases[:i], func(o *Case) bool { return o.Name == c.Name }) {
			err = errors.New("a second case of this name")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: case %d %q: %w", file, i+1, c.Name, err)
		}
		cases[i] = c
	}
	return cases, nil
}

// parseCase reads one case over its file's data.
func parseCase(v value.Value, data map[string]value.Value) (*Case, error) {
	a, err := attrs(v)
	name, nok := a["name"].(value.String)
	query, qok := a["query"].(value.String)
	mode, _ := a["mode"].(value.String)
	strict, sok := a["strict"].(value.Bool)
	c := &Case{Name: string(name), Data: data, Query: string(query), modes: modes[mode],
		Strict: bool(strict), Expect: a["expect"], ExpectError: a["expect_error"] != nil}
	for n := range a {
		if !slices.Contains([]string{"name", "mode", "strict", "data", "query", "expect", "expect_error"}, n) {
			return c, fmt.Errorf("unknown attribute %q", n)
		}
	}
	switch {
	case err != nil:
	case !nok:
		err = errors.New("no 'name' string")
	case !qok:
		err = errors.New("no 'query' string")
	case c.modes == nil:
		err = errors.New("'mode' is not 'both', 'core' or 'compat'")
	case !sok && a["strict"] != nil:
		err = errors.New("'strict' is not a boolean")
	case (c.Expect != nil) == c.ExpectError:
		err = errors.New("give exactly one of 'expect' and 'expect_error'")
	case c.ExpectError && a["expect_error"] != value.True:
		err = errors.New("'expect_error' is not true")
	case a["data"] != nil:
		c.Data, err = attrs(a["data"])
	}
	return c, err
}

// attrs reads the tuple v by attribute name; a name given twice is an
// error.
func attrs(v value.Value) (map[string]value.Value, error) {
	t, ok := v.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("want a tuple, got %v", v)
	}
	out := make(map[string]value.Value, t.Len())
	for i, n := range t.Names() {
		if _, dup := out[n]; dup {
			return nil, fmt.Errorf("attribute %q given twice", n)
		}
		out[n] = t.Values()[i]
	}
	return out, nil
}
