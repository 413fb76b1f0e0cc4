package compat

import (
	"strings"
	"testing"
)

// TestSuite: every kit file loads, holds cases, and names each case
// after its file.
func TestSuite(t *testing.T) {
	for _, s := range suites {
		cases := load(s)
		if len(cases) == 0 {
			t.Errorf("%s: no cases", s)
		}
		for _, c := range cases {
			if !strings.HasPrefix(c.Name, s+"/") {
				t.Errorf("%s: case %s is not named after its file", s, c.Name)
			}
		}
	}
}

// TestParseRejects: a kit file that would drop a check, or read as
// something it does not say, fails to load with the file and the case
// named.
func TestParseRejects(t *testing.T) {
	const ok = `'name': 'x/a', 'mode': 'both', 'query': 'SELECT VALUE 1'`
	for _, tc := range []struct{ doc, want string }{
		{`{'data': {}, 'cases': [{` + ok + `, 'expcet': {{1}}}]}`, `case 1 "x/a": unknown attribute "expcet"`},
		{`{'data': {}, 'cases': [{'mode': 'both', 'query': 'SELECT VALUE 1', 'expect': 1}]}`, `case 1 "": no 'name' string`},
		{`{'data': {}, 'cases': [{'name': 'x/a', 'mode': 'both', 'expect': 1}]}`, `case 1 "x/a": no 'query' string`},
		{`{'data': {}, 'cases': [{` + ok + `, 'expect': 1}, {` + ok + `, 'expect': 2}]}`, `case 2 "x/a": a second case of this name`},
		{`{'data': {}, 'cases': [{'name': 'x/a', 'mode': 'Both', 'query': 'q', 'expect': 1}]}`, `case 1 "x/a": 'mode' is not`},
		{`{'data': {}, 'cases': [{'name': 'x/a', 'query': 'q', 'expect': 1}]}`, `case 1 "x/a": 'mode' is not`},
		{`{'data': {}, 'cases': [{` + ok + `, 'expect': 1, 'expect_error': true}]}`, `case 1 "x/a": give exactly one`},
		{`{'data': {}, 'cases': [{` + ok + `}]}`, `case 1 "x/a": give exactly one`},
		{`{'data': {}, 'cases': [{` + ok + `, 'expect_error': false}]}`, `case 1 "x/a": 'expect_error' is not true`},
		{`{'data': {}, 'cases': [{` + ok + `, 'strict': 'yes', 'expect': 1}]}`, `case 1 "x/a": 'strict' is not a boolean`},
		{`{'data': {}, 'cases': [{` + ok + `, 'expect': 1, 'expect': 2}]}`, `case 1 "": attribute "expect" given twice`},
		{`{'data': {}, 'cases': [{` + ok + `, 'data': [1], 'expect': 1}]}`, `case 1 "x/a": want a tuple`},
		{`{'data': {}, 'cases': [1]}`, `case 1 "": want a tuple`},
		{`{'data': {}, 'cases': [], 'extra': 1}`, `want a 'data' tuple and a 'cases' array`},
		{`{'cases': []}`, `want a 'data' tuple and a 'cases' array`},
		{`{'data': {}, 'cases': {{}}}`, `want a 'data' tuple and a 'cases' array`},
		{`{'data': {}, 'cases': [`, `unexpected end of input`},
	} {
		_, err := parse("bad.sion", []byte(tc.doc))
		if err == nil || !strings.HasPrefix(err.Error(), "bad.sion: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.doc, err, tc.want)
		}
	}
}
