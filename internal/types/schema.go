package types

import (
	"fmt"
	"sort"
	"sync"

	"sqlpp/internal/value"
)

// Schema maps catalog names to declared (or inferred) types. A schema is
// always optional in SQL++: registering one enables validation, static
// navigation checking, and unqualified-name disambiguation, but queries
// over undeclared names keep working — and, per the paper's query
// stability tenet, imposing a schema on existing data never changes a
// working query's result.
type Schema struct {
	mu    sync.RWMutex
	types map[string]Type
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{types: make(map[string]Type)}
}

// Declare records the type of a named value.
func (s *Schema) Declare(name string, t Type) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.types[name] = t
}

// DeclareDDL parses a CREATE TABLE statement and declares the resulting
// collection type, returning the table name.
func (s *Schema) DeclareDDL(ddl string) (string, error) {
	name, t, err := ParseCreateTable(ddl)
	if err != nil {
		return "", err
	}
	s.Declare(name, t)
	return name, nil
}

// TypeOf returns the declared type of name.
func (s *Schema) TypeOf(name string) (Type, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.types[name]
	return t, ok
}

// Names returns the declared names, sorted.
func (s *Schema) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.types))
	for n := range s.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Check validates v against the declared type of name; an undeclared
// name passes (schema is optional).
func (s *Schema) Check(name string, v value.Value) error {
	t, ok := s.TypeOf(name)
	if !ok {
		return nil
	}
	if err := Validate(v, t); err != nil {
		return fmt.Errorf("types: %s does not conform to its schema: %w", name, err)
	}
	return nil
}

// VarHasAttr implements the rewriter's AttrOracle: it reports whether
// the collection named by source (the catalog name a FROM item ranges
// over, e.g. "hr.emp") is declared to carry the attribute on its
// elements.
func (s *Schema) VarHasAttr(source, attr string) (has, known bool) {
	t, ok := s.TypeOf(source)
	if !ok {
		return false, false
	}
	elem := elementType(t)
	st, ok := elem.(*Struct)
	if !ok {
		return false, false
	}
	if _, found := st.Attr(attr); found {
		return true, true
	}
	// A closed struct definitively lacks the attribute; an open one
	// might still have it at runtime.
	if st.Open {
		return false, false
	}
	return false, true
}

func elementType(t Type) Type {
	switch x := t.(type) {
	case *ArrayOf:
		return x.Elem
	case *BagOf:
		return x.Elem
	default:
		return t
	}
}
