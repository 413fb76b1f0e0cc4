package sqlpp_test

// Deterministic synthetic data for the root tests: scalable versions of
// the paper's HR and department datasets. Each generator is a pure
// function of its arguments, and the EXPLAIN goldens depend on the exact
// random sequence, so change none of them without regenerating those.

import (
	"fmt"
	"math/rand"
	"testing"

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

func TestGeneratorsDeterministic(t *testing.T) {
	opts := HROptions{N: 50, ScalarProjects: true, AbsentTitleRate: 30, Seed: 1}
	if !value.Equivalent(HR(opts), HR(opts)) ||
		!value.Equivalent(FlatEmp(20, 3, 7), FlatEmp(20, 3, 7)) ||
		!value.Equivalent(Departments(5, 7), Departments(5, 7)) {
		t.Error("generators must be deterministic for a fixed seed")
	}
	other := opts
	other.Seed = 2
	if value.Equivalent(HR(opts), HR(other)) {
		t.Error("different seeds should differ")
	}
}

func TestHRShapes(t *testing.T) {
	tuples := HR(HROptions{N: 30, Seed: 3, AbsentTitleRate: 100})
	if len(tuples) != 30 {
		t.Fatalf("N = %d", len(tuples))
	}
	for _, e := range tuples {
		tup := e.(*value.Tuple)
		// Null-style: absent titles are nulls.
		title, present := tup.Get("title")
		if !present || title.Kind() != value.KindNull {
			t.Fatalf("null-style title = %v (present=%v)", title, present)
		}
		projects, _ := tup.Get("projects")
		elems, ok := value.Elements(projects)
		if !ok {
			t.Fatal("projects should be a collection")
		}
		for _, p := range elems {
			if _, ok := p.(*value.Tuple); !ok {
				t.Fatal("tuple-style projects expected")
			}
		}
	}
	missing := HR(HROptions{N: 30, Seed: 3, AbsentTitleRate: 100, MissingStyle: true, ScalarProjects: true})
	for _, e := range missing {
		tup := e.(*value.Tuple)
		if _, present := tup.Get("title"); present {
			t.Fatal("missing-style should omit the title attribute")
		}
	}
}
