// Package bench generates the deterministic synthetic workloads behind
// the benchmark harness: scalable versions of the paper's HR and stock
// datasets in their nested, flat, null-style, missing-style, and dirty
// (heterogeneous) shapes. All generators are pure functions of their
// arguments — the same inputs always produce the same data, so benchmark
// runs are reproducible.
package bench

import (
	"fmt"
	"math/rand"

	"sqlpp/internal/value"
)

// projectPool is the project-name vocabulary; about half the names
// contain "Security" so the paper's LIKE '%Security%' queries select a
// meaningful fraction.
var projectPool = []string{
	"Serverless Query", "OLAP Security", "OLTP Security",
	"Query Compiler", "Index Security", "Storage Engine",
	"Network Security", "Cloud Console", "Data Security",
	"Stream Runtime",
}

var titles = []string{"Engineer", "Manager", "Analyst", "Chief Architect"}

var nameFirst = []string{"Bob", "Susan", "Jane", "Ada", "Grace", "Alan", "Edgar", "Barbara"}
var nameLast = []string{"Smith", "Codd", "Hopper", "Turing", "Liskov", "Gray"}

func personName(r *rand.Rand, id int) string {
	return fmt.Sprintf("%s %s %d", nameFirst[r.Intn(len(nameFirst))], nameLast[r.Intn(len(nameLast))], id)
}

// HROptions shapes the generated employee collection.
type HROptions struct {
	// N is the number of employees.
	N int
	// ScalarProjects nests projects as arrays of strings (Listing 3)
	// instead of arrays of {'name': ...} tuples (Listing 1).
	ScalarProjects bool
	// MissingStyle drops absent titles entirely (Listing 7 style)
	// instead of writing null (Listing 6 style).
	MissingStyle bool
	// AbsentTitleRate is the fraction of employees without a title,
	// in percent (0..100).
	AbsentTitleRate int
	// MaxProjects bounds the nested project count per employee; 0 means
	// the default of 4.
	MaxProjects int
	// Seed varies the data; the same seed reproduces it.
	Seed int64
}

// HR generates a nested employee bag in the shape of the paper's
// hr.emp_nest_tuples / hr.emp_nest_scalars collections.
func HR(opts HROptions) value.Bag {
	r := rand.New(rand.NewSource(opts.Seed + 1))
	maxProjects := opts.MaxProjects
	if maxProjects == 0 {
		maxProjects = 4
	}
	projectShape := value.ShapeOf("name")
	out := make(value.Bag, 0, opts.N)
	for i := 0; i < opts.N; i++ {
		t := value.EmptyTuple()
		t.Put("id", value.Int(int64(i+1)))
		t.Put("name", value.String(personName(r, i+1)))
		if r.Intn(100) < opts.AbsentTitleRate {
			if !opts.MissingStyle {
				t.Put("title", value.Null)
			}
		} else {
			t.Put("title", value.String(titles[r.Intn(len(titles))]))
		}
		nProj := r.Intn(maxProjects + 1)
		projects := make(value.Array, 0, nProj)
		for p := 0; p < nProj; p++ {
			name := projectPool[r.Intn(len(projectPool))]
			if opts.ScalarProjects {
				projects = append(projects, value.String(name))
			} else {
				projects = append(projects, projectShape.New([]value.Value{value.String(name)}))
			}
		}
		t.Put("projects", projects)
		out = append(out, t)
	}
	return out
}

// FlatEmp generates the flat hr.emp table of §V-C: name, deptno, title,
// salary over the requested number of departments.
func FlatEmp(n, depts int, seed int64) value.Bag {
	r := rand.New(rand.NewSource(seed + 2))
	if depts < 1 {
		depts = 1
	}
	shape := value.ShapeOf("name", "deptno", "title", "salary")
	out := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, shape.New([]value.Value{
			value.String(personName(r, i+1)),
			value.Int(int64(r.Intn(depts) + 1)),
			value.String(titles[r.Intn(len(titles))]),
			value.Int(int64(50000 + r.Intn(150000))),
		}))
	}
	return out
}

// Departments generates a dept table {dno, name, budget} with one row
// per department number, pairing with FlatEmp's deptno for equi-joins.
func Departments(n int, seed int64) value.Bag {
	r := rand.New(rand.NewSource(seed + 3))
	shape := value.ShapeOf("dno", "name", "budget")
	out := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, shape.New([]value.Value{
			value.Int(int64(i + 1)),
			value.String(fmt.Sprintf("Dept %d", i+1)),
			value.Int(int64(100000 + r.Intn(900000))),
		}))
	}
	return out
}

// FlatEmpProjects flattens the nested HR data into the join-table shape
// a SQL database would use: one (emp_id, project) row per membership.
// It pairs with HR for the unnest-versus-join comparison.
func FlatEmpProjects(nested value.Bag) (emps, memberships value.Bag) {
	memberShape := value.ShapeOf("emp_id", "project")
	emps = make(value.Bag, 0, len(nested))
	for _, e := range nested {
		t := e.(*value.Tuple)
		flat := value.EmptyTuple()
		vals := t.Values()
		for i, name := range t.Names() {
			if name != "projects" {
				flat.Put(name, vals[i])
			}
		}
		emps = append(emps, flat)
		id, _ := t.Get("id")
		projects, _ := t.Get("projects")
		if elems, ok := value.Elements(projects); ok {
			for _, p := range elems {
				if pt, ok := p.(*value.Tuple); ok {
					p, _ = pt.Get("name")
				}
				memberships = append(memberships, memberShape.New([]value.Value{id, p}))
			}
		}
	}
	return emps, memberships
}

// StockSymbols returns n deterministic ticker symbols.
func StockSymbols(n int) []string {
	base := []string{"amzn", "goog", "fb", "aapl", "msft", "nflx", "ibm", "orcl"}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i < len(base) {
			out = append(out, base[i])
			continue
		}
		out = append(out, fmt.Sprintf("t%03d", i))
	}
	return out
}

// ClosingPrices generates the wide (pivoted) format of Listing 19: one
// tuple per day whose attribute names are ticker symbols.
func ClosingPrices(days, symbols int, seed int64) value.Bag {
	r := rand.New(rand.NewSource(seed + 3))
	syms := StockSymbols(symbols)
	out := make(value.Bag, 0, days)
	for d := 0; d < days; d++ {
		t := value.EmptyTuple()
		t.Put("date", value.String(dateString(d)))
		for _, s := range syms {
			t.Put(s, value.Int(int64(100+r.Intn(2000))))
		}
		out = append(out, t)
	}
	return out
}

// StockPrices generates the tall (unpivoted) format of Listing 27: one
// (date, symbol, price) tuple per observation.
func StockPrices(days, symbols int, seed int64) value.Bag {
	r := rand.New(rand.NewSource(seed + 4))
	syms := StockSymbols(symbols)
	shape := value.ShapeOf("date", "symbol", "price")
	out := make(value.Bag, 0, days*symbols)
	for d := 0; d < days; d++ {
		date := value.String(dateString(d))
		for _, s := range syms {
			out = append(out, shape.New([]value.Value{date, value.String(s), value.Int(int64(100 + r.Intn(2000)))}))
		}
	}
	return out
}

func dateString(day int) string {
	// A simple synthetic calendar: 30-day months, 12-month years.
	y := 2019 + day/360
	m := (day/30)%12 + 1
	d := day%30 + 1
	return fmt.Sprintf("%d/%d/%d", m, d, y)
}

// Dirty generates a heterogeneous collection for the typing-mode
// experiments: each tuple has an id and an x attribute whose type varies
// — integer (healthy), string, array, null, or absent — with dirtyRate
// percent of rows non-integer.
func Dirty(n, dirtyRate int, seed int64) value.Bag {
	r := rand.New(rand.NewSource(seed + 5))
	out := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		t := value.EmptyTuple()
		t.Put("id", value.Int(int64(i+1)))
		if r.Intn(100) >= dirtyRate {
			t.Put("x", value.Int(int64(r.Intn(1000))))
		} else {
			switch r.Intn(4) {
			case 0:
				t.Put("x", value.String("not a number"))
			case 1:
				t.Put("x", value.Array{value.Int(1), value.Int(2)})
			case 2:
				t.Put("x", value.Null)
			case 3:
				// absent entirely
			}
		}
		out = append(out, t)
	}
	return out
}
