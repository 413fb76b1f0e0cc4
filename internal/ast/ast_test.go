package ast

import (
	"testing"

	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

func lit(v value.Value) *Literal { return &Literal{Val: v} }

func TestFormatQuoting(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&VarRef{Name: "plain"}, "plain"},
		{&VarRef{Name: "select"}, `"select"`}, // reserved word
		{&VarRef{Name: "with space"}, `"with space"`},
		{&VarRef{Name: `has"quote`}, `"has""quote"`},
		{&VarRef{Name: "_ok1"}, "_ok1"},
		{&VarRef{Name: "1bad"}, `"1bad"`}, // leading digit
		{&VarRef{Name: ""}, `""`},
		{&FieldAccess{Base: &VarRef{Name: "e"}, Name: "date"}, "e.date"},
		{&NamedRef{Name: "hr.emp"}, "hr.emp"},
		{&NamedRef{Name: "hr.sales table"}, `hr."sales table"`},
	}
	for _, c := range cases {
		if got := Format(c.e); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

func TestFormatLiterals(t *testing.T) {
	if got := Format(lit(value.String("o'clock"))); got != "'o''clock'" {
		t.Errorf("string literal = %q", got)
	}
	if got := Format(lit(value.Missing)); got != "MISSING" {
		t.Errorf("missing literal = %q", got)
	}
}

func TestSetPos(t *testing.T) {
	v := &VarRef{Name: "x"}
	p := lexer.Pos{Offset: 3, Line: 2, Column: 1}
	v.SetPos(p)
	if v.Pos() != p {
		t.Errorf("Pos = %v", v.Pos())
	}
}

func TestInspectVisitsSubqueries(t *testing.T) {
	inner := &SFW{Select: SelectClause{Value: &Call{Name: "AVG", Args: []Expr{lit(value.Int(1))}}}}
	outer := &Binary{Op: "+", L: inner, R: lit(value.Int(2))}
	found := false
	Inspect(outer, func(e Expr) bool {
		if c, ok := e.(*Call); ok && c.Name == "AVG" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("Inspect should descend into nested query blocks")
	}
	// Early cutoff.
	count := 0
	Inspect(outer, func(e Expr) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("returning false should stop descent, visited %d", count)
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := &Binary{
		Op: "AND",
		L:  &FieldAccess{Base: &VarRef{Name: "e"}, Name: "a"},
		R: &In{
			Target: &VarRef{Name: "x"},
			List:   []Expr{lit(value.Int(1)), lit(value.Int(2))},
		},
	}
	cl := CloneExpr(orig).(*Binary)
	if Format(orig) != Format(cl) {
		t.Fatal("clone should format identically")
	}
	cl.L.(*FieldAccess).Name = "changed"
	cl.R.(*In).List[0] = lit(value.Int(99))
	if Format(orig) == Format(cl) {
		t.Error("mutating the clone must not affect the original")
	}
	if orig.L.(*FieldAccess).Name != "a" {
		t.Error("original mutated through clone")
	}
}

func TestCloneNil(t *testing.T) {
	if CloneExpr(nil) != nil {
		t.Error("clone of nil is nil")
	}
}

func TestCloneFullQuery(t *testing.T) {
	yes := true
	q := &SFW{
		Select: SelectClause{Items: []SelectItem{{Expr: &VarRef{Name: "a"}, Alias: "a", HasAlias: true}}},
		From: []FromItem{
			&FromJoin{
				Kind:  JoinLeft,
				Left:  &FromExpr{Expr: &NamedRef{Name: "t"}, As: "x"},
				Right: &FromUnpivot{Expr: &VarRef{Name: "x"}, ValueVar: "v", NameVar: "n"},
				On:    lit(value.True),
			},
		},
		Lets:    []LetBinding{{Name: "l", Expr: lit(value.Int(1))}},
		Where:   lit(value.True),
		GroupBy: &GroupBy{Keys: []GroupKey{{Expr: &VarRef{Name: "a"}, Alias: "a"}}, GroupAs: "g"},
		Having:  lit(value.True),
		OrderBy: []OrderItem{{Expr: &VarRef{Name: "a"}, Desc: true, NullsFirst: &yes}},
		Limit:   lit(value.Int(5)),
		Offset:  lit(value.Int(1)),
	}
	cl := CloneExpr(q)
	if Format(q) != Format(cl) {
		t.Errorf("full query clone mismatch:\n%s\n%s", Format(q), Format(cl))
	}
	pivot := &SFW{
		Select: SelectClause{Value: &VarRef{Name: "v"}, PivotAt: &VarRef{Name: "n"}},
		From:   []FromItem{&FromExpr{Expr: &NamedRef{Name: "t"}, As: "r"}},
	}
	if Format(CloneExpr(pivot)) != Format(pivot) {
		t.Error("pivot clone mismatch")
	}
	setop := &SetOp{Op: "UNION", All: true, L: q, R: pivot}
	if Format(CloneExpr(setop)) != Format(setop) {
		t.Error("set-op clone mismatch")
	}
}
