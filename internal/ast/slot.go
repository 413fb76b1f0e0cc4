package ast

import "strconv"

// A slot stands for a numeric literal of a literal template: the
// template parser (parser.ParseTemplate) reads the i-th numeric literal
// of a text as a reference to the variable SlotName(i), which the
// template binds per execution like a query parameter. The name starts
// with '#', which no identifier can; only a quoted identifier spells
// it, and a template whose text does is never admitted, because its
// bound Core differs from the literal text's.

// SlotName is the variable name of slot i.
func SlotName(i int) string { return "#" + strconv.Itoa(i) }

// SlotIndex reports the slot a variable name refers to.
func SlotIndex(name string) (int, bool) {
	if len(name) < 2 || name[0] != '#' {
		return 0, false
	}
	i := 0
	for _, c := range []byte(name[1:]) {
		if c < '0' || c > '9' || i > 1<<20 {
			return 0, false
		}
		i = i*10 + int(c-'0')
	}
	if name[1] == '0' && len(name) > 2 { // one name per slot
		return 0, false
	}
	return i, true
}
