package parser

import (
	"math/rand"
	"strings"
	"testing"
)

// fragmentPool mixes keywords, symbols, literals, and junk; the parser
// must return an error or a tree for any arrangement — never panic.
var fragmentPool = []string{
	"SELECT", "VALUE", "FROM", "WHERE", "GROUP", "BY", "AS", "AT",
	"HAVING", "ORDER", "LIMIT", "OFFSET", "PIVOT", "UNPIVOT", "CASE",
	"WHEN", "THEN", "ELSE", "END", "AND", "OR", "NOT", "IN", "BETWEEN",
	"LIKE", "IS", "NULL", "MISSING", "UNION", "ALL", "JOIN", "LEFT",
	"ON", "EXISTS", "WITH", "OVER", "PARTITION", "DISTINCT",
	"(", ")", "[", "]", "{", "}", "{{", "}}", "<<", ">>", ",", ".", ";",
	"*", "/", "%", "+", "-", "=", "<>", "<", "<=", ">", ">=", "||", ":",
	"x", "y", "emp", "hr", "'str'", "''", "42", "1.5", "1e3",
	`"quoted id"`, "COUNT", "AVG", "COLL_SUM", "true", "false",
}

func TestParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		n := 1 + r.Intn(24)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = fragmentPool[r.Intn(len(fragmentPool))]
		}
		src := strings.Join(parts, " ")
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %q: %v", src, p)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestParserTruncations: every prefix of a complex valid query must fail
// cleanly or parse, never panic or hang.
func TestParserTruncations(t *testing.T) {
	src := `WITH c AS (SELECT VALUE x.a FROM t AS x)
	        SELECT e.name AS n,
	               RANK() OVER (PARTITION BY e.k ORDER BY e.v DESC) AS r,
	               (PIVOT p.v AT p.k FROM e.ps AS p) AS piv
	        FROM hr.emp AS e, c AS cc
	        WHERE e.v BETWEEN 1 AND 10 AND e.name LIKE 'a%' ESCAPE '!'
	        GROUP BY e.k AS k GROUP AS g
	        HAVING COUNT(*) > 1
	        ORDER BY k DESC NULLS LAST LIMIT 5 OFFSET 1`
	if _, err := Parse(src); err != nil {
		t.Fatalf("the full query should parse: %v", err)
	}
	for i := 0; i < len(src); i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on truncation at %d: %v", i, p)
				}
			}()
			_, _ = Parse(src[:i])
		}()
	}
}

// TestDeepNestingTerminates: heavily nested expressions parse (or error)
// without stack exhaustion at reasonable depths.
func TestDeepNestingTerminates(t *testing.T) {
	depth := 2000
	src := strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	if _, err := Parse(src); err != nil {
		t.Fatalf("deep parens should parse: %v", err)
	}
	arr := strings.Repeat("[", depth) + "1" + strings.Repeat("]", depth)
	if _, err := Parse(arr); err != nil {
		t.Fatalf("deep arrays should parse: %v", err)
	}
}

// nestings are the ways a query nests, each written n levels deep.
var nestings = map[string]func(n int) string{
	"parentheses": func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) },
	"arrays":      func(n int) string { return strings.Repeat("[", n) + "1" + strings.Repeat("]", n) },
	"bags":        func(n int) string { return strings.Repeat("{{", n) + "1" + strings.Repeat("}}", n) },
	"angle bags":  func(n int) string { return strings.Repeat("<<", n) + "1" + strings.Repeat(">>", n) },
	"unary minus": func(n int) string { return strings.Repeat("- ", n) + "1" },
	"NOT":         func(n int) string { return strings.Repeat("NOT ", n) + "true" },
	"sub-blocks":  func(n int) string { return strings.Repeat("(SELECT VALUE ", n) + "1" + strings.Repeat(")", n) },
	"tuples":      func(n int) string { return strings.Repeat("{'a': ", n) + "1" + strings.Repeat("}", n) },
	"WITH bodies": func(n int) string { return strings.Repeat("WITH a AS 1 ", n) + "a" },
	"operators":   func(n int) string { return "1" + strings.Repeat(" + 1", n) },
	"field steps": func(n int) string { return "x" + strings.Repeat(".a", n) },
	"index steps": func(n int) string { return "x" + strings.Repeat("[0]", n) },
	"set operations": func(n int) string {
		return "SELECT VALUE 1" + strings.Repeat(" UNION ALL SELECT VALUE 1", n)
	},
	"joins": func(n int) string {
		return "SELECT VALUE 1 FROM x AS x" + strings.Repeat(" JOIN x AS y ON true", n)
	},
}

// TestNestingBound: one level past MaxDepth is a *Error, whichever way
// the text nests, and a query nested to the bound still parses.
func TestNestingBound(t *testing.T) {
	for name, nest := range nestings {
		_, err := Parse(nest(MaxDepth + 1))
		if pe, ok := err.(*Error); !ok || !strings.Contains(pe.Msg, "nesting deeper") {
			t.Errorf("%s nested %d deep: %v, want a nesting *Error", name, MaxDepth+1, err)
		}
	}
	for _, n := range []int{MaxDepth - 1, MaxDepth} {
		_, err := Parse(nestings["parentheses"](n))
		if (err == nil) != (n < MaxDepth) {
			t.Errorf("%d parentheses: %v", n, err)
		}
	}
}
