package lexer

import (
	"runtime"
	"strings"
	"testing"
)

func tok(t Type, text string) Token { return Token{Type: t, Text: text} }

func sameTokens(got, want []Token) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Type != want[i].Type || got[i].Text != want[i].Text {
			return false
		}
	}
	return true
}

func TestTokenizeBasics(t *testing.T) {
	cases := []struct {
		src  string
		want []Token
	}{
		{"SELECT e.name", []Token{tok(Keyword, "SELECT"), tok(Ident, "e"), tok(Symbol, "."), tok(Ident, "name")}},
		{"select From wHeRe", []Token{tok(Keyword, "SELECT"), tok(Keyword, "FROM"), tok(Keyword, "WHERE")}},
		{"'it''s'", []Token{tok(StringLit, "it's")}},
		{`"mixed Case"`, []Token{tok(QuotedIdent, "mixed Case")}},
		{"`tick`", []Token{tok(QuotedIdent, "tick")}},
		{`"with""quote"`, []Token{tok(QuotedIdent, `with"quote`)}},
		{"42 4.5 .5 1e3 2E-4", []Token{tok(IntLit, "42"), tok(FloatLit, "4.5"), tok(FloatLit, ".5"), tok(FloatLit, "1e3"), tok(FloatLit, "2E-4")}},
		{"<= >= <> != || << >>", []Token{tok(Symbol, "<="), tok(Symbol, ">="), tok(Symbol, "<>"), tok(Symbol, "!="), tok(Symbol, "||"), tok(Symbol, "<<"), tok(Symbol, ">>")}},
		{"{{ }}", []Token{tok(Symbol, "{"), tok(Symbol, "{"), tok(Symbol, "}"), tok(Symbol, "}")}},
		{"a_1 $var δelta", []Token{tok(Ident, "a_1"), tok(Ident, "$var"), tok(Ident, "δelta")}},
		{"-- comment\nx", []Token{tok(Ident, "x")}},
		{"/* multi \n line */ y", []Token{tok(Ident, "y")}},
		{"1.x", []Token{tok(IntLit, "1"), tok(Symbol, "."), tok(Ident, "x")}},
		{"a.b[0]", []Token{tok(Ident, "a"), tok(Symbol, "."), tok(Ident, "b"), tok(Symbol, "["), tok(IntLit, "0"), tok(Symbol, "]")}},
		{"e5 1e", []Token{tok(Ident, "e5"), tok(IntLit, "1"), tok(Ident, "e")}},
	}
	for _, c := range cases {
		got, err := Tokenize(c.src)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", c.src, err)
			continue
		}
		if !sameTokens(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("SELECT\n  x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Column != 1 {
		t.Errorf("SELECT pos = %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Column != 3 {
		t.Errorf("x pos = %v, want 2:3", toks[1].Pos)
	}
	if toks[1].Pos.Offset != 9 {
		t.Errorf("x offset = %d, want 9", toks[1].Pos.Offset)
	}
}

func TestLexErrors(t *testing.T) {
	// "ti\x84le" and "€" regress a lexer loop: bytes >= 0x80 enter the
	// identifier path, but when the decoded rune is not a letter (an
	// invalid UTF-8 sequence, a currency symbol) the lexer used to emit
	// an empty token forever instead of erroring.
	cases := []string{"'unterminated", `"open`, "/* open", "#", "ti\x84le", "\x84", "€"}
	for _, src := range cases {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		} else if !strings.Contains(err.Error(), "syntax error") {
			t.Errorf("Tokenize(%q) error = %v", src, err)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	if !IsKeyword("select") || !IsKeyword("GROUP") {
		t.Error("reserved words should be keywords in any case")
	}
	if IsKeyword("lower") || IsKeyword("coll_avg") {
		t.Error("function names are not reserved")
	}
}

func TestEOFIsSticky(t *testing.T) {
	lx := New("x")
	if tk, _ := lx.Next(); tk.Type != Ident {
		t.Fatal("first token should be x")
	}
	for i := 0; i < 3; i++ {
		tk, err := lx.Next()
		if err != nil || tk.Type != EOF {
			t.Fatalf("EOF should repeat, got %v, %v", tk, err)
		}
	}
}

func TestTokenIs(t *testing.T) {
	toks, _ := Tokenize("SELECT , name")
	if !toks[0].Is("SELECT") || !toks[1].Is(",") || !toks[2].Is("name") {
		t.Error("Token.Is failed")
	}
	if toks[2].Is("SELECT") {
		t.Error("Token.Is must match text")
	}
}

// adhocTexts are the four ad-hoc query shapes of the serve-adhoc
// workload with typical literals.
var adhocTexts = []string{
	`SELECT e.name AS name, d.dname AS dname, COLL_COUNT(SELECT VALUE h.id FROM hr AS h WHERE h.deptno = e.deptno) AS peers FROM emp AS e, dept AS d WHERE e.id = 1817 AND e.deptno = d.dno`,
	`SELECT e.id AS id, RANK() OVER (ORDER BY e.salary DESC) AS r FROM emp AS e WHERE e.salary >= 41234 AND e.salary < 42034`,
	`SELECT d.region AS region, COUNT(*) AS c FROM emp AS e, dept AS d, hr AS h WHERE e.id = 1817 AND e.deptno = d.dno AND h.deptno = d.dno GROUP BY d.region`,
	`SELECT h.id AS id, (SELECT VALUE p.name FROM h.projects AS p WHERE p.hours > 12) AS ps, COLL_COUNT(h.projects) AS np FROM hr AS h WHERE h.id = 123`,
}

// TestTokenizeAllocations pins what tokenizing costs on the ad-hoc
// shapes: one exactly-sized token slice of at most 3 KB. Symbols and
// unescaped quoted bodies are slices of the source, so nothing else
// allocates.
func TestTokenizeAllocations(t *testing.T) {
	for _, src := range adhocTexts {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = Tokenize(src) }); allocs > 1 {
			t.Errorf("%d tokens cost %.0f allocations, want 1", len(toks), allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for i := 0; i < runs; i++ {
			_, _ = Tokenize(src)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 3072 {
			t.Errorf("%d tokens cost %d bytes, want at most 3 KB", len(toks), per)
		}
	}
}

// TestTokenizeLong crosses the stack buffer: every token survives, in
// order.
func TestTokenizeLong(t *testing.T) {
	src := strings.Repeat("a + ", 100) + "'it''s' + \"q\""
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 203 || toks[200].Text != "it's" || toks[202].Text != "q" {
		t.Fatalf("got %d tokens, last %v", len(toks), toks[len(toks)-3:])
	}
	for i := 0; i < 200; i += 2 {
		if toks[i].Text != "a" || toks[i+1].Text != "+" {
			t.Fatalf("token %d = %v", i, toks[i])
		}
	}
}

func TestAppendMasked(t *testing.T) {
	src := "SELECT x.a[0] + 12.5e3 FROM t AS x WHERE x.b = 'v 7' -- 9\n AND x.c > 1817 /* 3 */ AND 1.x"
	got, lits, err := AppendMasked([]byte("prefix"), nil, src)
	if err != nil {
		t.Fatal(err)
	}
	want := "prefix" + strings.NewReplacer("[0]", "[\x00]", "12.5e3", "\x00\x00\x00\x00\x00\x00", "1817", "\x00\x00\x00\x00", "AND 1.x", "AND \x00.x").Replace(src)
	if string(got) != want {
		t.Errorf("masked %q\nwant   %q", got, want)
	}
	wantLits := []NumLit{{"0", false}, {"12.5e3", true}, {"1817", false}, {"1", false}}
	if len(lits) != len(wantLits) {
		t.Fatalf("lits %v, want %v", lits, wantLits)
	}
	for i := range lits {
		if lits[i] != wantLits[i] {
			t.Errorf("lit %d = %v, want %v", i, lits[i], wantLits[i])
		}
	}
	if _, _, err := AppendMasked(nil, nil, "SELECT 'open"); err == nil {
		t.Error("a text that does not lex must fail")
	}
	// The mask byte cannot stand where a number does in a text that lexes.
	if _, err := Tokenize("SELECT \x00"); err == nil {
		t.Error("the mask byte lexed")
	}
}

// TestKeywordCaseMapping: keyword recognition is strings.ToUpper's,
// non-ASCII case mappings included.
func TestKeywordCaseMapping(t *testing.T) {
	for _, w := range []string{"select", "SeLeCt", "partition", "ſelect", "ſelectſ", "selection", "δelta", "x", "DISTINCTS"} {
		toks, err := Tokenize(w)
		if err != nil {
			t.Fatal(err)
		}
		upper := strings.ToUpper(w)
		if wantKW := keywords[upper]; (toks[0].Type == Keyword) != wantKW || wantKW && toks[0].Text != upper {
			t.Errorf("%q lexed as %v %q", w, toks[0].Type, toks[0].Text)
		}
	}
}
