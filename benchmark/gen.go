package main

import (
	"math/rand"
	"strconv"
)

// The generators are pure functions of (sizes, seed): the same seed
// yields byte-identical inputs, and the engine only ever receives the
// encoded bytes. The Go rows stay behind so expect.go can compute every
// query's answer without the engine.

// Salary kinds: one emp row in ten is heterogeneous (the paper's
// schema-optional case), split evenly between an absent title, a salary
// spelled as a string, a NULL salary and a MISSING salary.
const (
	salInt = iota
	salString
	salNull
	salMissing
)

type empRow struct {
	ID      int
	Name    string
	Deptno  int
	Title   string // "" = attribute absent
	SalKind uint8
	Salary  int
	Hired   int
}

type project struct {
	Name  string
	Hours int
}

type hrRow struct {
	ID       int
	Name     string
	Deptno   int
	Projects []project
}

type deptRow struct {
	Dno    int
	Dname  string
	Region string
	Budget int
}

// eventRow is the flat, homogeneous shape ingest-mixed writes: every
// attribute is present and an int or a plain string, so JSON, CSV and
// CBOR decode to the same logical rows (claim C5).
type eventRow struct {
	ID     int
	Usr    int
	Kind   string
	Amount int
}

type sizes struct {
	Emp, HR, Dept, Events int
}

type dataset struct {
	emp    []empRow
	hr     []hrRow
	dept   []deptRow
	events []eventRow
}

var (
	titles    = []string{"Engineer", "Manager", "Analyst", "Architect"}
	regions   = []string{"amer", "apac", "emea", "latam"}
	kinds     = []string{"click", "view", "order", "refund", "login"}
	nameFirst = []string{"Bob", "Susan", "Jane", "Ada", "Grace", "Alan", "Edgar", "Barbara"}
	nameLast  = []string{"Smith", "Codd", "Hopper", "Turing", "Liskov", "Gray"}
	// Half the project names contain "Security", so the paper's
	// LIKE '%Security%' predicate keeps a meaningful share.
	projectPool = []string{
		"Serverless Query", "OLAP Security", "OLTP Security",
		"Query Compiler", "Index Security", "Storage Engine",
		"Network Security", "Cloud Console", "Data Security",
		"Stream Runtime",
	}
)

const (
	salaryLo   = 50000
	salarySpan = 150000
	hiredLo    = 2000
	hiredSpan  = 24
	maxFanout  = 8
	maxHours   = 40
	maxAmount  = 1000
	eventUsers = 500
)

// subRand gives each collection its own stream, so changing one size
// never perturbs another collection's rows.
func subRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func personName(r *rand.Rand, id int) string {
	return nameFirst[r.Intn(len(nameFirst))] + " " + nameLast[r.Intn(len(nameLast))] + " " + strconv.Itoa(id)
}

func generate(sz sizes, seed int64) *dataset {
	d := &dataset{}
	r := subRand(seed, 1)
	d.emp = make([]empRow, sz.Emp)
	for i := range d.emp {
		e := empRow{
			ID:     i,
			Name:   personName(r, i),
			Deptno: 1 + r.Intn(sz.Dept),
			Title:  titles[r.Intn(len(titles))],
			Salary: salaryLo + r.Intn(salarySpan),
			Hired:  hiredLo + r.Intn(hiredSpan),
		}
		if r.Intn(10) == 0 {
			switch r.Intn(4) {
			case 0:
				e.Title = ""
			case 1:
				e.SalKind = salString
			case 2:
				e.SalKind = salNull
			case 3:
				e.SalKind = salMissing
			}
		}
		d.emp[i] = e
	}
	r = subRand(seed, 2)
	d.hr = make([]hrRow, sz.HR)
	for i := range d.hr {
		h := hrRow{ID: i, Name: personName(r, i), Deptno: 1 + r.Intn(sz.Dept)}
		h.Projects = make([]project, r.Intn(maxFanout+1))
		for j := range h.Projects {
			h.Projects[j] = project{Name: projectPool[r.Intn(len(projectPool))], Hours: 1 + r.Intn(maxHours)}
		}
		d.hr[i] = h
	}
	r = subRand(seed, 3)
	d.dept = make([]deptRow, sz.Dept)
	for i := range d.dept {
		d.dept[i] = deptRow{
			Dno:    i + 1,
			Dname:  "Dept " + strconv.Itoa(i+1),
			Region: regions[r.Intn(len(regions))],
			Budget: 100000 + r.Intn(900000),
		}
	}
	d.events = genEvents(seed, 0, sz.Events)
	return d
}

// mix is splitmix64: a stateless hash, so an event's content depends only
// on (seed, id) and an append batch is reproducible whatever was
// generated before it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// genEvents generates events with ids [from, from+n).
func genEvents(seed int64, from, n int) []eventRow {
	out := make([]eventRow, n)
	for i := range out {
		id := from + i
		h := mix(uint64(seed)<<32 ^ uint64(id))
		out[i] = eventRow{
			ID:     id,
			Usr:    int(h % eventUsers),
			Kind:   kinds[(h>>20)%uint64(len(kinds))],
			Amount: 1 + int((h>>40)%maxAmount),
		}
	}
	return out
}

// ---- encoders: compact JSON (the input format every workload sets up
// from), plus the event encodings ingest-mixed rotates through ----

func appendField(b []byte, first bool, name string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

func appendStr(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...) // generated strings are plain ASCII without quotes
	return append(b, '"')
}

func appendEmpJSON(b []byte, e *empRow) []byte {
	b = append(b, '{')
	b = strconv.AppendInt(appendField(b, true, "id"), int64(e.ID), 10)
	b = appendStr(appendField(b, false, "name"), e.Name)
	b = strconv.AppendInt(appendField(b, false, "deptno"), int64(e.Deptno), 10)
	if e.Title != "" {
		b = appendStr(appendField(b, false, "title"), e.Title)
	}
	switch e.SalKind {
	case salInt:
		b = strconv.AppendInt(appendField(b, false, "salary"), int64(e.Salary), 10)
	case salString:
		b = appendStr(appendField(b, false, "salary"), strconv.Itoa(e.Salary))
	case salNull:
		b = append(appendField(b, false, "salary"), "null"...)
	}
	b = strconv.AppendInt(appendField(b, false, "hired"), int64(e.Hired), 10)
	return append(b, '}')
}

func appendHRJSON(b []byte, h *hrRow) []byte {
	b = append(b, '{')
	b = strconv.AppendInt(appendField(b, true, "id"), int64(h.ID), 10)
	b = appendStr(appendField(b, false, "name"), h.Name)
	b = strconv.AppendInt(appendField(b, false, "deptno"), int64(h.Deptno), 10)
	b = append(appendField(b, false, "projects"), '[')
	for i := range h.Projects {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		b = appendStr(appendField(b, true, "name"), h.Projects[i].Name)
		b = strconv.AppendInt(appendField(b, false, "hours"), int64(h.Projects[i].Hours), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

func appendDeptJSON(b []byte, d *deptRow) []byte {
	b = append(b, '{')
	b = strconv.AppendInt(appendField(b, true, "dno"), int64(d.Dno), 10)
	b = appendStr(appendField(b, false, "dname"), d.Dname)
	b = appendStr(appendField(b, false, "region"), d.Region)
	b = strconv.AppendInt(appendField(b, false, "budget"), int64(d.Budget), 10)
	return append(b, '}')
}

func appendEventJSON(b []byte, e *eventRow) []byte {
	b = append(b, '{')
	b = strconv.AppendInt(appendField(b, true, "id"), int64(e.ID), 10)
	b = strconv.AppendInt(appendField(b, false, "usr"), int64(e.Usr), 10)
	b = appendStr(appendField(b, false, "kind"), e.Kind)
	b = strconv.AppendInt(appendField(b, false, "amount"), int64(e.Amount), 10)
	return append(b, '}')
}

// jsonArray renders n rows as one compact JSON array.
func jsonArray(n int, row func(b []byte, i int) []byte) []byte {
	b := make([]byte, 0, 64*n+2)
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = row(b, i)
	}
	return append(b, ']')
}

func empJSON(rows []empRow) []byte {
	return jsonArray(len(rows), func(b []byte, i int) []byte { return appendEmpJSON(b, &rows[i]) })
}

func hrJSON(rows []hrRow) []byte {
	return jsonArray(len(rows), func(b []byte, i int) []byte { return appendHRJSON(b, &rows[i]) })
}

func deptJSON(rows []deptRow) []byte {
	return jsonArray(len(rows), func(b []byte, i int) []byte { return appendDeptJSON(b, &rows[i]) })
}

func eventsJSON(rows []eventRow) []byte {
	return jsonArray(len(rows), func(b []byte, i int) []byte { return appendEventJSON(b, &rows[i]) })
}

func eventsJSONLines(rows []eventRow) []byte {
	b := make([]byte, 0, 64*len(rows))
	for i := range rows {
		b = append(appendEventJSON(b, &rows[i]), '\n')
	}
	return b
}

func eventsCSV(rows []eventRow) []byte {
	b := make([]byte, 0, 32*len(rows)+32)
	b = append(b, "id,usr,kind,amount\n"...)
	for i := range rows {
		e := &rows[i]
		b = strconv.AppendInt(b, int64(e.ID), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.Usr), 10)
		b = append(b, ',')
		b = append(b, e.Kind...)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.Amount), 10)
		b = append(b, '\n')
	}
	return b
}

// eventsSION renders rows in the paper's object notation as a bag, the
// only format the server's ?mode=append accepts.
func eventsSION(rows []eventRow) []byte {
	b := make([]byte, 0, 64*len(rows)+8)
	b = append(b, "{{"...)
	for i := range rows {
		e := &rows[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "{'id':"...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
		b = append(b, ",'usr':"...)
		b = strconv.AppendInt(b, int64(e.Usr), 10)
		b = append(b, ",'kind':'"...)
		b = append(b, e.Kind...)
		b = append(b, "','amount':"...)
		b = strconv.AppendInt(b, int64(e.Amount), 10)
		b = append(b, '}')
	}
	return append(b, "}}"...)
}

// CBOR (RFC 8949) encoding of the events as an array of maps; only the
// major types the rows need: unsigned ints, text strings, arrays, maps.
func cborHead(b []byte, major byte, n uint64) []byte {
	major <<= 5
	switch {
	case n < 24:
		return append(b, major|byte(n))
	case n < 1<<8:
		return append(b, major|24, byte(n))
	case n < 1<<16:
		return append(b, major|25, byte(n>>8), byte(n))
	default:
		return append(b, major|26, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

func cborText(b []byte, s string) []byte {
	return append(cborHead(b, 3, uint64(len(s))), s...)
}

func eventsCBOR(rows []eventRow) []byte {
	b := make([]byte, 0, 40*len(rows)+8)
	b = cborHead(b, 4, uint64(len(rows)))
	for i := range rows {
		e := &rows[i]
		b = cborHead(b, 5, 4)
		b = cborHead(cborText(b, "id"), 0, uint64(e.ID))
		b = cborHead(cborText(b, "usr"), 0, uint64(e.Usr))
		b = cborText(cborText(b, "kind"), e.Kind)
		b = cborHead(cborText(b, "amount"), 0, uint64(e.Amount))
	}
	return b
}
