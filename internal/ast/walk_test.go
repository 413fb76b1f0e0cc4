package ast

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"sqlpp/internal/value"
)

// slotTableNodes lists every expression node type; TestSlotTableNodeList
// keeps it in step with the package's exprNode implementations.
var slotTableNodes = []Expr{
	&Literal{}, &VarRef{}, &NamedRef{}, &FieldAccess{}, &IndexAccess{},
	&Unary{}, &Binary{}, &Like{}, &Between{}, &In{}, &Is{}, &Quantified{},
	&Case{}, &Call{}, &TupleCtor{}, &ArrayCtor{}, &BagCtor{}, &Exists{},
	&SFW{}, &With{}, &Window{}, &SetOp{},
}

func TestSlotTableNodeList(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, f := range pkgs["ast"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*goast.FuncDecl)
			if !ok || fn.Name.Name != "exprNode" || fn.Recv == nil {
				continue
			}
			declared = append(declared, fn.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name)
		}
	}
	var listed []string
	for _, n := range slotTableNodes {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Errorf("slotTableNodes lists %v; the package declares %v", listed, declared)
	}
}

var (
	exprType     = reflect.TypeOf((*Expr)(nil)).Elem()
	fromItemType = reflect.TypeOf((*FromItem)(nil)).Elem()
)

// markerFiller fills every Expr-typed place of a node — fields, slice
// elements, and those of struct-held values, pointed-to structs and FROM
// items — with a distinct marker variable.
type markerFiller struct{ n int }

func (m *markerFiller) marker() Expr {
	m.n++
	return &VarRef{Name: "m" + strconv.Itoa(m.n)}
}

func (m *markerFiller) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface:
		switch v.Type() {
		case exprType:
			v.Set(reflect.ValueOf(m.marker()))
		case fromItemType:
			if v.IsNil() {
				v.Set(reflect.ValueOf(FromItem(&FromExpr{})))
			}
			m.fill(v.Elem())
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf([]FromItem(nil)) {
			v.Set(reflect.ValueOf([]FromItem{&FromExpr{}, &FromUnpivot{}, &FromJoin{}}))
		} else {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			m.fill(v.Index(i))
		}
	case reflect.Pointer:
		if v.Type().Elem().Kind() != reflect.Struct {
			return
		}
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		m.fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				m.fill(f)
			}
		}
	}
}

// TestSlotTableIsComplete: for every node type with every Expr place
// filled, Children yields each marker exactly once, and so do Inspect and
// the binder, which read the table. A node kind or field the table does
// not list fails here.
func TestSlotTableIsComplete(t *testing.T) {
	for _, proto := range slotTableNodes {
		node := reflect.New(reflect.TypeOf(proto).Elem())
		m := &markerFiller{}
		m.fill(node)
		e := node.Interface().(Expr)
		name := reflect.TypeOf(proto).Elem().Name()

		count := func(walker string, seen map[string]int) {
			t.Helper()
			for i := 1; i <= m.n; i++ {
				if c := seen["m"+strconv.Itoa(i)]; c != 1 {
					t.Errorf("%s: %s reaches marker m%d %d times", name, walker, i, c)
				}
			}
			if len(seen) != m.n {
				t.Errorf("%s: %s reaches %d names, want the %d markers: %v", name, walker, len(seen), m.n, seen)
			}
		}

		seen := map[string]int{}
		Children(e, func(c *Expr) { seen[(*c).(*VarRef).Name]++ })
		count("Children", seen)

		seen = map[string]int{}
		Inspect(e, func(n Expr) bool {
			if v, ok := n.(*VarRef); ok && n != e {
				seen[v.Name]++
			}
			return true
		})
		count("Inspect", seen)

		seen = map[string]int{}
		b := Binder{Ref: func(r Ref) {
			if Expr(r.Var) != e {
				seen[r.Var.Name]++
			}
		}}
		b.Walk(&e)
		count("Binder", seen)
	}
}

// TestChildrenReplacesInPlace: assigning through a yielded slot rewrites
// the node, a window's function arguments included.
func TestChildrenReplacesInPlace(t *testing.T) {
	w := &Window{Fn: &Call{Name: "SUM", Args: []Expr{&VarRef{Name: "a"}}},
		Spec: WindowSpec{OrderBy: []OrderItem{{Expr: &VarRef{Name: "b"}}}}}
	Children(w, func(c *Expr) { *c = &VarRef{Name: (*c).(*VarRef).Name + "2"} })
	if got := Format(w); got != "SUM(a2) OVER (ORDER BY b2)" {
		t.Errorf("Format after replacement = %q", got)
	}
}

// TestReplaceKeys: the largest subtree equal to a key is replaced, a
// later key wins over an earlier equal one, 1.0 is not the key 1, and a
// node other takes is neither matched below nor descended into.
func TestReplaceKeys(t *testing.T) {
	xa := func() Expr { return &FieldAccess{Base: &VarRef{Name: "x"}, Name: "a"} }
	lit := func(v value.Value) Expr { return &Literal{Val: v} }
	keys := []Expr{
		&Binary{Op: "+", L: xa(), R: lit(value.Int(1))},
		xa(),
		lit(value.Int(1)),
		xa(),
	}
	e := &Binary{Op: "-",
		L: &Binary{Op: "+", L: xa(), R: lit(value.Int(1))},
		R: &Binary{Op: "*",
			L: &Binary{Op: "*", L: xa(), R: lit(value.Float(1))},
			R: &Call{Name: "F", Args: []Expr{xa()}}}}
	got := ReplaceKeys(e, keys, func(i int, _ Expr) Expr {
		return &VarRef{Name: "k" + strconv.Itoa(i)}
	}, func(n Expr) (Expr, bool) {
		if c, ok := n.(*Call); ok {
			return &VarRef{Name: "f" + strconv.Itoa(len(c.Args))}, true
		}
		return nil, false
	})
	if got, want := Format(got), "k0 - k3 * 1.0 * f1"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
