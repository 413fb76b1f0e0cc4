package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sqlpp/internal/value"
)

// Expected answers, computed in plain Go from the generated rows. They
// share no code with the engine: a query is checked by its row count, an
// order-independent checksum of one numeric column, the exact per-group
// sums of grouped queries, and the first and last key of ordered ones.
type expect struct {
	rows  int
	sum   int64
	first string // "" when the query has no defined order
	last  string
	// groups is key → summed column for grouped queries, nil otherwise.
	groups map[string]int64
}

func intKey(i int) string    { return strconv.Itoa(i) }
func strKey(s string) string { return "'" + s + "'" } // value.String renders strings quoted

func expectGroups(groups map[string]int64, numericKeys bool) expect {
	e := expect{rows: len(groups), groups: groups}
	keys := make([]string, 0, len(groups))
	for k, s := range groups {
		keys = append(keys, k)
		e.sum += s
	}
	if len(keys) == 0 {
		return e
	}
	if numericKeys {
		sort.Slice(keys, func(i, j int) bool {
			a, _ := strconv.Atoi(keys[i])
			b, _ := strconv.Atoi(keys[j])
			return a < b
		})
	} else {
		sort.Strings(keys)
	}
	e.first, e.last = keys[0], keys[len(keys)-1]
	return e
}

const (
	scanMinSalary = 180000
	scanTitle     = "Engineer"
	joinMinSalary = 100000
	topK          = 10
	likeNeedle    = "Security"
)

// wantScanFilter: ids of int-salaried Engineers at or above the floor. A
// string, NULL or MISSING salary never satisfies the comparison.
func wantScanFilter(emp []empRow) expect {
	var e expect
	for i := range emp {
		r := &emp[i]
		if r.SalKind == salInt && r.Salary >= scanMinSalary && r.Title == scanTitle {
			e.rows++
			e.sum += int64(r.ID)
		}
	}
	return e
}

// wantGroupAgg: per-department sum of the int salaries.
func wantGroupAgg(emp []empRow) expect {
	g := map[string]int64{}
	for i := range emp {
		if r := &emp[i]; r.SalKind == salInt {
			g[intKey(r.Deptno)] += int64(r.Salary)
		}
	}
	return expectGroups(g, true)
}

// wantHashJoin: per-region sum of the int salaries at or above the floor.
func wantHashJoin(emp []empRow, dept []deptRow) expect {
	g := map[string]int64{}
	for i := range emp {
		if r := &emp[i]; r.SalKind == salInt && r.Salary >= joinMinSalary {
			g[strKey(dept[r.Deptno-1].Region)] += int64(r.Salary)
		}
	}
	return expectGroups(g, false)
}

// wantUnnestGroupAs: per-project membership count over the unnested
// projects whose name contains the needle.
func wantUnnestGroupAs(hr []hrRow) expect {
	g := map[string]int64{}
	for i := range hr {
		for _, p := range hr[i].Projects {
			if strings.Contains(p.Name, likeNeedle) {
				g[strKey(p.Name)]++
			}
		}
	}
	return expectGroups(g, false)
}

// wantNestedSubquery: the hr rows of the first maxDept departments.
func wantNestedSubquery(hr []hrRow, maxDept int) expect {
	var e expect
	for i := range hr {
		if hr[i].Deptno <= maxDept {
			e.rows++
			e.sum += int64(hr[i].ID)
		}
	}
	return e
}

// wantOrderTopK: the k highest int salaries, ties broken by id.
func wantOrderTopK(emp []empRow) expect {
	idx := make([]int, 0, len(emp))
	for i := range emp {
		if emp[i].SalKind == salInt {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := &emp[idx[a]], &emp[idx[b]]
		if x.Salary != y.Salary {
			return x.Salary > y.Salary
		}
		return x.ID < y.ID
	})
	if len(idx) > topK {
		idx = idx[:topK]
	}
	var e expect
	for _, i := range idx {
		e.rows++
		e.sum += int64(emp[i].Salary)
	}
	if len(idx) > 0 {
		e.first, e.last = intKey(emp[idx[0]].ID), intKey(emp[idx[len(idx)-1]].ID)
	}
	return e
}

// wantDeptByRegion: per-region budget sum (the sharded workload's local
// class, which touches only the broadcast collection).
func wantDeptByRegion(dept []deptRow) expect {
	g := map[string]int64{}
	for i := range dept {
		g[strKey(dept[i].Region)] += int64(dept[i].Budget)
	}
	return expectGroups(g, false)
}

// salaryRange lists the int-salaried rows with lo <= salary < hi in
// (salary, id) order.
func salaryRange(emp []empRow, lo, hi int) []int {
	var idx []int
	for i := range emp {
		if r := &emp[i]; r.SalKind == salInt && r.Salary >= lo && r.Salary < hi {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := &emp[idx[a]], &emp[idx[b]]
		if x.Salary != y.Salary {
			return x.Salary < y.Salary
		}
		return x.ID < y.ID
	})
	return idx
}

// wantSalaryRows: the ordered salary-range listing (range and rows200).
func wantSalaryRows(emp []empRow, lo, hi int) expect {
	idx := salaryRange(emp, lo, hi)
	var e expect
	for _, i := range idx {
		e.rows++
		e.sum += int64(emp[i].Salary)
	}
	if len(idx) > 0 {
		e.first, e.last = intKey(emp[idx[0]].ID), intKey(emp[idx[len(idx)-1]].ID)
	}
	return e
}

// wantPoint: one row by id; the checksum is its department.
func wantPoint(emp []empRow, id int) expect {
	return expect{rows: 1, sum: int64(emp[id].Deptno)}
}

// wantAdhocJoin: the employee's department head count in hr.
func wantAdhocJoin(d *dataset, id int) expect {
	n := int64(0)
	for i := range d.hr {
		if d.hr[i].Deptno == d.emp[id].Deptno {
			n++
		}
	}
	return expect{rows: 1, sum: n}
}

// wantAdhocWindow: RANK() by salary descending over a salary band; the
// checksum is the sum of ranks, ties sharing the lower rank.
func wantAdhocWindow(emp []empRow, lo, hi int) expect {
	idx := salaryRange(emp, lo, hi)
	var e expect
	for _, i := range idx {
		rank := int64(1)
		for _, j := range idx {
			if emp[j].Salary > emp[i].Salary {
				rank++
			}
		}
		e.rows++
		e.sum += rank
	}
	return e
}

// wantAdhoc3Way: hr rows in the employee's department, counted under
// that department's region; no hr row there means no group at all.
func wantAdhoc3Way(d *dataset, id int) expect {
	n := wantAdhocJoin(d, id).sum
	if n == 0 {
		return expect{}
	}
	return expect{rows: 1, sum: n}
}

// wantAdhocNested: one hr row; the checksum is its project count.
func wantAdhocNested(hr []hrRow, id int) expect {
	return expect{rows: 1, sum: int64(len(hr[id].Projects))}
}

// ---- events (ingest-mixed) ----

func wantEventPoint(e eventRow) expect { return expect{rows: 1, sum: int64(e.Amount)} }

// wantEventRange: base-event ids whose amount lies in [lo, hi).
func wantEventRange(base []eventRow, lo, hi int) expect {
	var e expect
	for i := range base {
		if base[i].Amount >= lo && base[i].Amount < hi {
			e.rows++
			e.sum += int64(base[i].ID)
		}
	}
	return e
}

// wantEventGroup: per-kind amount sum over the base events.
func wantEventGroup(base []eventRow) expect {
	g := map[string]int64{}
	for i := range base {
		g[strKey(base[i].Kind)] += int64(base[i].Amount)
	}
	return expectGroups(g, false)
}

// summarize reduces an engine result to the same shape as an expect.
// sumCol == "" sums the elements themselves (SELECT VALUE of ints).
func summarize(v value.Value, sumCol, keyCol string, grouped bool) (expect, error) {
	var got expect
	elems, ok := value.Elements(v)
	if !ok {
		return got, fmt.Errorf("result is %s, not a collection", v.Kind())
	}
	got.rows = len(elems)
	if grouped {
		got.groups = make(map[string]int64, len(elems))
	}
	for i, el := range elems {
		num, key := el, value.Value(nil)
		if t, isTuple := el.(*value.Tuple); isTuple {
			if sumCol != "" {
				if num, ok = t.Get(sumCol); !ok {
					return got, fmt.Errorf("row %d has no %q", i, sumCol)
				}
			}
			if keyCol != "" {
				if key, ok = t.Get(keyCol); !ok {
					return got, fmt.Errorf("row %d has no %q", i, keyCol)
				}
			}
		}
		n, ok := value.AsInt(num)
		if !ok {
			return got, fmt.Errorf("row %d: %q is %s, not an int", i, sumCol, num.Kind())
		}
		got.sum += n
		if key == nil {
			continue
		}
		k := key.String()
		if grouped {
			got.groups[k] += n
		}
		if i == 0 {
			got.first = k
		}
		got.last = k
	}
	return got, nil
}

// matches reports how got differs from the expectation, nil when it
// does not.
func (want expect) matches(got expect) error {
	if got.rows != want.rows || got.sum != want.sum {
		return fmt.Errorf("got %d rows / checksum %d, want %d / %d", got.rows, got.sum, want.rows, want.sum)
	}
	if want.first != "" && (got.first != want.first || got.last != want.last) {
		return fmt.Errorf("got first/last key %s/%s, want %s/%s", got.first, got.last, want.first, want.last)
	}
	for k, s := range want.groups {
		if got.groups[k] != s {
			return fmt.Errorf("group %s sums to %d, want %d", k, got.groups[k], s)
		}
	}
	return nil
}
