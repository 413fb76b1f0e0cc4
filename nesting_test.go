package sqlpp

import (
	"strings"
	"testing"

	"sqlpp/internal/parser"
)

// TestPrepareAtTheNestingBound: a query nested as deeply as the parser
// admits goes through every stage after it — rewrite, binding, planning,
// compiling, running — which all recurse over the tree, and answers
// rather than overflowing the stack.
func TestPrepareAtTheNestingBound(t *testing.T) {
	n := parser.MaxDepth - 1
	for name, q := range map[string]string{
		"parentheses": strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"arrays":      strings.Repeat("[", n) + "1" + strings.Repeat("]", n),
		"bags":        strings.Repeat("{{", n) + "1" + strings.Repeat("}}", n),
		"unary minus": strings.Repeat("- ", n) + "1",
		"NOT":         strings.Repeat("NOT ", n) + "true",
		"sub-blocks":  strings.Repeat("(SELECT VALUE ", n) + "1" + strings.Repeat(")", n),
		"WITH bodies": strings.Repeat("WITH a AS 1 ", n) + "a",
		"operators":   "1" + strings.Repeat(" + 1", n-1),
	} {
		db := New(nil)
		p, err := db.Prepare(q)
		if err == nil {
			_, err = p.Exec()
		}
		if err != nil {
			t.Errorf("%s nested %d deep: %v", name, n, err)
		}
	}
}
