// Package types implements the optional-schema side of SQL++ (§IV):
// a logical type system with union types (heterogeneity can be declared,
// as in Hive's UNIONTYPE example of Listing 5), schema inference from
// self-describing data, value validation, and an attribute oracle that
// lets the rewriter disambiguate unqualified names when schemas are
// present — without ever being required for a query to run.
package types

import (
	"fmt"
	"sort"
	"strings"

	"sqlpp/internal/value"
)

// Type is a logical SQL++ type.
type Type interface {
	// String renders the type in DDL-like syntax.
	String() string
	// Matches reports whether v conforms to the type.
	Matches(v value.Value) bool
}

// Primitive is a scalar (or absent-value) type.
type Primitive uint8

// Primitive types. Null types a NULL value; there is deliberately no
// MISSING type: absence is a property of an attribute (Optional), not of
// a value.
const (
	Any Primitive = iota
	BoolType
	IntType
	FloatType
	StringType
	BytesType
	NullType
)

// String implements Type.
func (p Primitive) String() string {
	switch p {
	case BoolType:
		return "BOOLEAN"
	case IntType:
		return "INT"
	case FloatType:
		return "DOUBLE"
	case StringType:
		return "STRING"
	case BytesType:
		return "BINARY"
	case NullType:
		return "NULL"
	default:
		return "ANY"
	}
}

// Matches implements Type.
func (p Primitive) Matches(v value.Value) bool {
	switch p {
	case Any:
		return true
	case BoolType:
		return v.Kind() == value.KindBool
	case IntType:
		return v.Kind() == value.KindInt
	case FloatType:
		return v.Kind() == value.KindFloat || v.Kind() == value.KindInt
	case StringType:
		return v.Kind() == value.KindString
	case BytesType:
		return v.Kind() == value.KindBytes
	case NullType:
		return v.Kind() == value.KindNull
	}
	return false
}

// Union is a choice among member types (Hive UNIONTYPE).
type Union struct {
	Members []Type
}

// String implements Type.
func (u *Union) String() string {
	parts := make([]string, len(u.Members))
	for i, m := range u.Members {
		parts[i] = m.String()
	}
	return "UNIONTYPE<" + strings.Join(parts, ", ") + ">"
}

// Matches implements Type.
func (u *Union) Matches(v value.Value) bool {
	for _, m := range u.Members {
		if m.Matches(v) {
			return true
		}
	}
	return false
}

// ArrayOf is an ordered collection type.
type ArrayOf struct {
	Elem Type
}

// String implements Type.
func (a *ArrayOf) String() string { return "ARRAY<" + a.Elem.String() + ">" }

// Matches implements Type.
func (a *ArrayOf) Matches(v value.Value) bool {
	arr, ok := v.(value.Array)
	if !ok {
		return false
	}
	for _, e := range arr {
		if !a.Elem.Matches(e) {
			return false
		}
	}
	return true
}

// BagOf is an unordered collection type.
type BagOf struct {
	Elem Type
}

// String implements Type.
func (b *BagOf) String() string { return "BAG<" + b.Elem.String() + ">" }

// Matches implements Type.
func (b *BagOf) Matches(v value.Value) bool {
	bag, ok := v.(value.Bag)
	if !ok {
		return false
	}
	for _, e := range bag {
		if !b.Elem.Matches(e) {
			return false
		}
	}
	return true
}

// Field is one attribute of a Struct type.
type Field struct {
	Name string
	Type Type
	// Optional marks the attribute as allowed to be absent or null —
	// the typed form of §IV-A's two styles of absence. One schema with
	// optional attributes therefore validates both the null-style and
	// the missing-style form of the same data.
	Optional bool
}

// Struct is a tuple type. Open structs tolerate attributes beyond the
// declared fields (self-describing data with a partial schema); closed
// structs do not.
type Struct struct {
	Fields []Field
	Open   bool
}

// String implements Type.
func (s *Struct) String() string {
	parts := make([]string, 0, len(s.Fields)+1)
	for _, f := range s.Fields {
		opt := ""
		if f.Optional {
			opt = "?"
		}
		parts = append(parts, f.Name+opt+": "+f.Type.String())
	}
	if s.Open {
		parts = append(parts, "...")
	}
	return "STRUCT<" + strings.Join(parts, ", ") + ">"
}

// Matches implements Type.
func (s *Struct) Matches(v value.Value) bool {
	t, ok := v.(*value.Tuple)
	if !ok {
		return false
	}
	declared := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		declared[f.Name] = true
		av, present := t.Get(f.Name)
		if !present {
			if !f.Optional {
				return false
			}
			continue
		}
		if f.Optional && av.Kind() == value.KindNull {
			continue
		}
		if !f.Type.Matches(av) {
			return false
		}
	}
	if !s.Open {
		for _, name := range t.Names() {
			if !declared[name] {
				return false
			}
		}
	}
	return true
}

// Attr returns the declared field, if any.
func (s *Struct) Attr(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Validate checks v against t and returns a descriptive error on the
// first mismatch (a path into the value).
func Validate(v value.Value, t Type) error {
	return validateAt(v, t, "$")
}

func validateAt(v value.Value, t Type, path string) error {
	switch x := t.(type) {
	case Primitive:
		if !x.Matches(v) {
			return fmt.Errorf("types: %s: expected %s, found %s", path, x, v.Kind())
		}
		return nil
	case *Union:
		for _, m := range x.Members {
			if m.Matches(v) {
				return nil
			}
		}
		return fmt.Errorf("types: %s: value of kind %s matches no member of %s", path, v.Kind(), x)
	case *ArrayOf:
		arr, ok := v.(value.Array)
		if !ok {
			return fmt.Errorf("types: %s: expected array, found %s", path, v.Kind())
		}
		for i, e := range arr {
			if err := validateAt(e, x.Elem, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case *BagOf:
		bag, ok := v.(value.Bag)
		if !ok {
			return fmt.Errorf("types: %s: expected bag, found %s", path, v.Kind())
		}
		for i, e := range bag {
			if err := validateAt(e, x.Elem, fmt.Sprintf("%s{{%d}}", path, i)); err != nil {
				return err
			}
		}
		return nil
	case *Struct:
		tup, ok := v.(*value.Tuple)
		if !ok {
			return fmt.Errorf("types: %s: expected tuple, found %s", path, v.Kind())
		}
		declared := make(map[string]bool, len(x.Fields))
		for _, f := range x.Fields {
			declared[f.Name] = true
			av, present := tup.Get(f.Name)
			if !present {
				if f.Optional {
					continue
				}
				return fmt.Errorf("types: %s: required attribute %q is missing", path, f.Name)
			}
			if f.Optional && av.Kind() == value.KindNull {
				continue
			}
			if err := validateAt(av, f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
		if !x.Open {
			for _, name := range tup.Names() {
				if !declared[name] {
					return fmt.Errorf("types: %s: undeclared attribute %q in closed struct", path, name)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("types: %s: unknown type %T", path, t)
}

// Infer derives a type from a value: the self-describing data's own
// schema. Collections unify their element types; attributes present in
// only some tuples come out Optional; conflicting attribute types come
// out as unions.
func Infer(v value.Value) Type {
	switch x := v.(type) {
	case value.Bool:
		return BoolType
	case value.Int:
		return IntType
	case value.Float:
		return FloatType
	case value.String:
		return StringType
	case value.Bytes:
		return BytesType
	case value.Array:
		return &ArrayOf{Elem: inferElems(x)}
	case value.Bag:
		return &BagOf{Elem: inferElems(x)}
	case *value.Tuple:
		s := &Struct{}
		vals := x.Values()
		for i, name := range x.Names() {
			s.Fields = append(s.Fields, Field{Name: name, Type: Infer(vals[i])})
		}
		return s
	default:
		if v.Kind() == value.KindNull {
			return NullType
		}
		return Any
	}
}

func inferElems(elems []value.Value) Type {
	if len(elems) == 0 {
		return Any
	}
	t := Infer(elems[0])
	for _, e := range elems[1:] {
		t = Unify(t, Infer(e))
	}
	return t
}

// Unify computes the least common type of a and b: equal types unify to
// themselves, structs merge field-wise (missing fields become Optional,
// conflicting field types become unions), collections unify element
// types, and anything else becomes a union.
func Unify(a, b Type) Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.String() == b.String() {
		return a
	}
	if pa, ok := a.(Primitive); ok && pa == Any {
		return b
	}
	if pb, ok := b.(Primitive); ok && pb == Any {
		return a
	}
	if sa, ok := a.(*Struct); ok {
		if sb, ok := b.(*Struct); ok {
			return unifyStructs(sa, sb)
		}
	}
	if aa, ok := a.(*ArrayOf); ok {
		if ab, ok := b.(*ArrayOf); ok {
			return &ArrayOf{Elem: Unify(aa.Elem, ab.Elem)}
		}
	}
	if ba, ok := a.(*BagOf); ok {
		if bb, ok := b.(*BagOf); ok {
			return &BagOf{Elem: Unify(ba.Elem, bb.Elem)}
		}
	}
	// Numeric widening keeps INT ∪ DOUBLE as DOUBLE rather than a union.
	if isNumeric(a) && isNumeric(b) {
		return FloatType
	}
	return mkUnion(a, b)
}

func isNumeric(t Type) bool {
	p, ok := t.(Primitive)
	return ok && (p == IntType || p == FloatType)
}

func unifyStructs(a, b *Struct) *Struct {
	out := &Struct{Open: a.Open || b.Open}
	seen := map[string]bool{}
	for _, f := range a.Fields {
		seen[f.Name] = true
		if g, ok := b.Attr(f.Name); ok {
			out.Fields = append(out.Fields, Field{
				Name:     f.Name,
				Type:     Unify(f.Type, g.Type),
				Optional: f.Optional || g.Optional,
			})
		} else {
			out.Fields = append(out.Fields, Field{Name: f.Name, Type: f.Type, Optional: true})
		}
	}
	for _, g := range b.Fields {
		if !seen[g.Name] {
			out.Fields = append(out.Fields, Field{Name: g.Name, Type: g.Type, Optional: true})
		}
	}
	return out
}

// mkUnion builds a flattened, deduplicated union.
func mkUnion(ts ...Type) Type {
	var members []Type
	var add func(t Type)
	seen := map[string]bool{}
	add = func(t Type) {
		if u, ok := t.(*Union); ok {
			for _, m := range u.Members {
				add(m)
			}
			return
		}
		key := t.String()
		if !seen[key] {
			seen[key] = true
			members = append(members, t)
		}
	}
	for _, t := range ts {
		add(t)
	}
	if len(members) == 1 {
		return members[0]
	}
	sort.Slice(members, func(i, j int) bool { return members[i].String() < members[j].String() })
	return &Union{Members: members}
}
