package main

import (
	"encoding/json"
	"fmt"
)

type topoKind int

const (
	topoEmbedded topoKind = iota
	topoServed
	topoSharded
)

// op is one operation of a workload's deterministic sequence: a query
// (literal or parameterised) or an ingest, with its expected answer.
type op struct {
	class   int
	text    string
	params  map[string]int
	sumCol  string
	keyCol  string
	grouped bool
	want    expect
	write   *writeOp
	// body is the pre-encoded POST /v1/query request, so the client adds
	// as little work as possible next to the server it shares cores with.
	body []byte
	// golden is the first response that passed the expectation check;
	// later responses to the same op must equal it byte for byte.
	golden []byte
}

type writeOp struct {
	path  string // request path and query
	ctype string
	body  []byte
	count int // collection size the server must report afterwards
	rows  int // rows this request carries
}

// opPlan is everything one run of a workload needs.
type opPlan struct {
	classes []string
	in      *inputs
	// streams[i] is connection i's cyclic op sequence. No op is shared
	// between streams, so goldens are written without synchronisation.
	streams [][]*op
	// unit: connection 0 ends the measured window only at a multiple of
	// unit ops, so every window holds whole cycles and the op mix does
	// not depend on speed; the other connections stop when it does.
	unit int
	// tracedMix[i] is how many ops connection i contributes per round of
	// the single-connection sequence the traced pass replays.
	tracedMix []int
	// refIn is what the traced pass's embedded reference engine loads.
	refIn *inputs
}

// roundLen is the number of ops in one round of the traced sequence.
func (p *opPlan) roundLen() int {
	n := 0
	for _, k := range p.tracedMix {
		n += k
	}
	return n
}

type workload struct {
	name  string
	topo  topoKind
	full  sizes
	quick sizes
	build func(d *dataset, sz sizes, seed int64) *opPlan
	// openRates are the fixed offered rates (requests/s) of the open-loop
	// phase, frozen at about 0.3x, 0.6x and 1.2x of the closed-loop
	// throughput measured when the benchmark was defined; openLimitMS is
	// the frozen latency limit (10x the closed-loop median then) a rate's
	// 99th percentile must meet to count as sustained. Only a workload
	// that models independent clients has them.
	openRates   []float64
	openLimitMS float64
}

var workloads = []workload{
	{name: "embed-analytic", topo: topoEmbedded,
		full:  sizes{Emp: 100000, HR: 20000, Dept: 1000},
		quick: sizes{Emp: 1000, HR: 200, Dept: 20},
		build: buildEmbedAnalytic},
	{name: "serve-adhoc", topo: topoServed,
		full:  sizes{Emp: 2000, HR: 400, Dept: 50},
		quick: sizes{Emp: 1000, HR: 200, Dept: 20},
		build: buildServeAdhoc, openRates: []float64{1500, 3000, 6000}, openLimitMS: 3.2},
	{name: "shard-scatter", topo: topoSharded,
		full:  sizes{Emp: 100000, HR: 4000, Dept: 1000},
		quick: sizes{Emp: 1000, HR: 200, Dept: 20},
		build: buildShardScatter},
	{name: "ingest-mixed", topo: topoServed,
		full:  sizes{Emp: 20000, HR: 4000, Dept: 200, Events: 20000},
		quick: sizes{Emp: 1000, HR: 200, Dept: 20, Events: 1000},
		build: buildIngestMixed},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- the six analytic query classes, shared by embed-analytic, the
// scatter classes of shard-scatter and the exec probes of every traced
// pass, so that ratios between topologies compare like with like ----

var analyticClasses = []string{"scan_filter", "group_agg", "hash_join", "unnest_group_as", "nested_subquery", "order_topk"}

const (
	clScan = iota
	clGroup
	clJoin
	clUnnest
	clNested
	clTopK
)

func analyticOps(d *dataset, sz sizes) []*op {
	maxDept := sz.Dept / 4
	if maxDept < 1 {
		maxDept = 1
	}
	return []*op{
		clScan: {class: clScan,
			text: fmt.Sprintf(`SELECT VALUE e.id FROM emp AS e WHERE e.salary >= %d AND e.title = '%s'`, scanMinSalary, scanTitle),
			want: wantScanFilter(d.emp)},
		clGroup: {class: clGroup,
			text:   `SELECT e.deptno AS dno, COUNT(*) AS c, SUM(e.salary) AS s FROM emp AS e WHERE e.salary >= 0 GROUP BY e.deptno ORDER BY dno`,
			sumCol: "s", keyCol: "dno", grouped: true, want: wantGroupAgg(d.emp)},
		clJoin: {class: clJoin,
			text:   fmt.Sprintf(`SELECT d.region AS region, COUNT(*) AS c, SUM(e.salary) AS s FROM emp AS e, dept AS d WHERE e.deptno = d.dno AND e.salary >= %d GROUP BY d.region ORDER BY region`, joinMinSalary),
			sumCol: "s", keyCol: "region", grouped: true, want: wantHashJoin(d.emp, d.dept)},
		// Listing 12's shape: unnest, filter, GROUP BY … GROUP AS, and a
		// subquery over the group.
		clUnnest: {class: clUnnest,
			text: fmt.Sprintf(`FROM hr AS h, h.projects AS p WHERE p.name LIKE '%%%s%%' GROUP BY p.name AS pname GROUP AS g `+
				`SELECT pname AS proj, COUNT(*) AS n, COLL_MAX(FROM g AS v SELECT VALUE v.p.hours) AS mx ORDER BY proj`, likeNeedle),
			sumCol: "n", keyCol: "proj", grouped: true, want: wantUnnestGroupAs(d.hr)},
		// Listing 10's shape: a correlated SELECT VALUE subquery per row.
		clNested: {class: clNested,
			text: fmt.Sprintf(`SELECT h.id AS id, (SELECT VALUE p.name FROM h.projects AS p WHERE p.name LIKE '%%%s%%') AS sec `+
				`FROM hr AS h WHERE h.deptno <= %d`, likeNeedle, maxDept),
			sumCol: "id", want: wantNestedSubquery(d.hr, maxDept)},
		clTopK: {class: clTopK,
			text:   fmt.Sprintf(`SELECT e.id AS id, e.salary AS salary FROM emp AS e WHERE e.salary >= 0 ORDER BY e.salary DESC, e.id LIMIT %d`, topK),
			sumCol: "salary", keyCol: "id", want: wantOrderTopK(d.emp)},
	}
}

func (o *op) clone(class int) *op {
	c := *o
	c.class = class
	c.golden = nil
	return &c
}

func analyticInputs(d *dataset) *inputs {
	return &inputs{
		names: []string{"emp", "hr", "dept"},
		json:  map[string][]byte{"emp": empJSON(d.emp), "hr": hrJSON(d.hr), "dept": deptJSON(d.dept)},
	}
}

// encodeBodies fills in the HTTP request body of every query op.
func encodeBodies(ops []*op) {
	for _, o := range ops {
		if o.write != nil {
			continue
		}
		req := struct {
			Query  string         `json:"query"`
			Params map[string]int `json:"params,omitempty"`
		}{o.text, o.params}
		o.body, _ = json.Marshal(req) // strings and ints cannot fail to encode
	}
}

// ---- embed-analytic ----

// By cost the six classes fall into three pairs (nested_subquery and
// scan_filter, order_topk and unnest_group_as, group_agg and hash_join).
// The cycle runs the middle pair twice, so the median of the mixed
// latency distribution lies in the middle of that pair's samples and the
// 95th percentile inside the top pair's, instead of on a gap between
// classes where a single outlier decides a percentile.
func buildEmbedAnalytic(d *dataset, sz sizes, seed int64) *opPlan {
	a := analyticOps(d, sz)
	cycle := []*op{a[clScan], a[clTopK], a[clGroup], a[clUnnest], a[clNested], a[clTopK], a[clJoin], a[clUnnest]}
	in := analyticInputs(d)
	return &opPlan{classes: analyticClasses, in: in, streams: [][]*op{cycle}, unit: len(cycle), tracedMix: []int{1}, refIn: in}
}

// ---- serve-adhoc ----

var serveClasses = []string{"adhoc_join", "adhoc_window", "adhoc_3way", "adhoc_nested", "point", "range", "rows200"}

const (
	adhocTexts    = 4096 // distinct ad-hoc texts, against a plan cache of 256
	lookupParams  = 256  // parameter instances per repeated lookup text
	windowBand    = 800  // salary band of the window query: ~10 of 2,000 rows
	rangeBand     = 750
	rows200Band   = 15000 // ≈200 of 2,000 rows
	serveBlockLen = 20    // 10 ad-hoc, 3 point, 3 range, 4 rows200
	// Every block holds the same class mix, so any whole number of blocks
	// is a cycle; ten of them are long enough to time.
	serveCycleLen = 10 * serveBlockLen
)

func buildServeAdhoc(d *dataset, sz sizes, seed int64) *opPlan {
	r := subRand(seed, 11)
	// Every text is distinct: the emp-keyed templates draw ids from a
	// seeded permutation, the window template steps its salary band, and
	// the hr-keyed template pairs each id with as many hour thresholds as
	// it takes.
	perTemplate := adhocTexts / 4
	if perTemplate > sz.Emp {
		perTemplate = sz.Emp
	}
	empIDs, hrIDs := r.Perm(sz.Emp), r.Perm(sz.HR)
	salaryAt := func(band int) int { return salaryLo + r.Intn(salarySpan-band) }
	var adhoc []*op
	for i := 0; i < perTemplate; i++ {
		id, hid, hours := empIDs[i], hrIDs[i%sz.HR], 5+7*(i/sz.HR)
		lo := salaryLo + (i*(salarySpan-windowBand))/perTemplate
		adhoc = append(adhoc,
			&op{class: 0, sumCol: "peers", want: wantAdhocJoin(d, id),
				text: fmt.Sprintf(`SELECT e.name AS name, d.dname AS dname, COLL_COUNT(SELECT VALUE h.id FROM hr AS h WHERE h.deptno = e.deptno) AS peers `+
					`FROM emp AS e, dept AS d WHERE e.id = %d AND e.deptno = d.dno`, id)},
			&op{class: 1, sumCol: "r", want: wantAdhocWindow(d.emp, lo, lo+windowBand),
				text: fmt.Sprintf(`SELECT e.id AS id, RANK() OVER (ORDER BY e.salary DESC) AS r FROM emp AS e WHERE e.salary >= %d AND e.salary < %d`, lo, lo+windowBand)},
			&op{class: 2, sumCol: "c", want: wantAdhoc3Way(d, id),
				text: fmt.Sprintf(`SELECT d.region AS region, COUNT(*) AS c FROM emp AS e, dept AS d, hr AS h `+
					`WHERE e.id = %d AND e.deptno = d.dno AND h.deptno = d.dno GROUP BY d.region`, id)},
			&op{class: 3, sumCol: "np", want: wantAdhocNested(d.hr, hid),
				text: fmt.Sprintf(`SELECT h.id AS id, (SELECT VALUE p.name FROM h.projects AS p WHERE p.hours > %d) AS ps, COLL_COUNT(h.projects) AS np `+
					`FROM hr AS h WHERE h.id = %d`, hours, hid)},
		)
	}
	r.Shuffle(len(adhoc), func(i, j int) { adhoc[i], adhoc[j] = adhoc[j], adhoc[i] })

	const (
		pointText = `SELECT e.name AS name, e.deptno AS deptno FROM emp AS e WHERE e.id = $id`
		rangeText = `SELECT e.id AS id, e.name AS name, e.title AS title, e.salary AS salary FROM emp AS e WHERE e.salary >= $lo AND e.salary < $hi ORDER BY e.salary, e.id`
	)
	var points, ranges, rows200 []*op
	for i := 0; i < lookupParams; i++ {
		id := r.Intn(sz.Emp)
		points = append(points, &op{class: 4, text: pointText, params: map[string]int{"$id": id},
			sumCol: "deptno", want: wantPoint(d.emp, id)})
		lo := salaryAt(rangeBand)
		ranges = append(ranges, &op{class: 5, text: rangeText, params: map[string]int{"$lo": lo, "$hi": lo + rangeBand},
			sumCol: "salary", keyCol: "id", want: wantSalaryRows(d.emp, lo, lo+rangeBand)})
		lo = salaryAt(rows200Band)
		rows200 = append(rows200, &op{class: 6, text: rangeText, params: map[string]int{"$lo": lo, "$hi": lo + rows200Band},
			sumCol: "salary", keyCol: "id", want: wantSalaryRows(d.emp, lo, lo+rows200Band)})
	}

	// Blocks of 20 ops hold the 50/30/20 mix; blocks alternate between
	// the two connections. Each ad-hoc text occurs once per pass, so with
	// 4,096 texts against 256 cache slots every ad-hoc op is a miss.
	streams := make([][]*op, 2)
	li := 0
	for b := 0; b*10 < len(adhoc); b++ {
		block := make([]*op, 0, serveBlockLen)
		for i := b * 10; i < (b+1)*10 && i < len(adhoc); i++ {
			block = append(block, adhoc[i])
		}
		for k := 0; k < 3; k++ {
			block = append(block, points[(li+k)%lookupParams].clone(4), ranges[(li+k)%lookupParams].clone(5))
		}
		for k := 0; k < 4; k++ {
			block = append(block, rows200[(li+k)%lookupParams].clone(6))
		}
		li += 4
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		streams[b%2] = append(streams[b%2], block...)
	}
	in := analyticInputs(d)
	in.indexes = []indexSpec{{"emp_id", "emp", "id", "hash"}, {"emp_salary", "emp", "salary", "ordered"}}
	for _, s := range streams {
		encodeBodies(s)
	}
	return &opPlan{classes: serveClasses, in: in, streams: streams, unit: serveCycleLen, tracedMix: []int{1, 1}, refIn: in}
}

// ---- shard-scatter ----

var shardClasses = []string{"group", "topk", "concat", "gather", "local"}

// One text per scatter class, the embed-analytic text wherever a
// counterpart exists, so coordinator cost over embedded cost is a ratio
// of two measured numbers. gather is Listing 12 over the second sharded
// collection: the splitter cannot decompose GROUP AS, pulls hr back
// whole and runs the query unchanged.
func buildShardScatter(d *dataset, sz sizes, seed int64) *opPlan {
	o := shardOps(d, sz)
	// Every class runs twice a cycle. By cost they fall into local and
	// concat (cheap), topk and gather (about equal), and group (dearest),
	// so the median of the mixed latency distribution lies inside the
	// topk/gather samples and the 95th percentile inside group's, not on
	// a gap between classes where one outlier decides a percentile.
	var cycle []*op
	for _, c := range o {
		cycle = append(cycle, c, c.clone(c.class))
	}
	encodeBodies(cycle)
	in := analyticInputs(d)
	in.sharded = map[string]string{"emp": "deptno", "hr": "deptno"}
	return &opPlan{classes: shardClasses, in: in, streams: [][]*op{cycle}, unit: len(cycle), tracedMix: []int{1}, refIn: in}
}

func shardOps(d *dataset, sz sizes) []*op {
	a := analyticOps(d, sz)
	return []*op{
		a[clGroup].clone(0),
		a[clTopK].clone(1),
		a[clScan].clone(2),
		a[clUnnest].clone(3),
		{class: 4, text: `SELECT d.region AS region, COUNT(*) AS c, SUM(d.budget) AS b FROM dept AS d GROUP BY d.region ORDER BY region`,
			sumCol: "b", keyCol: "region", grouped: true, want: wantDeptByRegion(d.dept)},
	}
}

// ---- ingest-mixed ----

var ingestClasses = []string{"replace_json", "replace_csv", "replace_cbor", "append", "read_own_write", "point", "range", "group"}

const (
	appendsPerCycle = 40
	appendRows      = 250
	readsPerAppend  = 5
	eventBand       = 2 // amount band of the range scan: ≈ 2/1000 of the rows
)

// Connection 0 writes: replace the collection with the base (format
// rotating json → csv → cbor), then 40 × (append 250 rows, read 5 of
// them back). Connection 1 reads base rows only, so its answers do not
// depend on how far the writer has got. The collection oscillates
// between base and base+10,000 rows whatever the engine's speed. One cycle
// is the writer's whole stream, all three formats, so that every cycle
// holds the same work.
func buildIngestMixed(d *dataset, sz sizes, seed int64) *opPlan {
	base := d.events
	n := len(base)
	r := subRand(seed, 12)
	const coll = "/v1/collections/events"
	replaces := []*writeOp{
		{path: coll + "?format=json", ctype: "application/json", body: eventsJSON(base), count: n, rows: n},
		{path: coll + "?format=csv", ctype: "text/csv", body: eventsCSV(base), count: n, rows: n},
		{path: coll + "?format=cbor", ctype: "application/cbor", body: eventsCBOR(base), count: n, rows: n},
	}
	const pointText = `SELECT e.usr AS usr, e.amount AS amount FROM events AS e WHERE e.id = $id`
	var writer []*op
	for f, rep := range replaces {
		writer = append(writer, &op{class: f, write: rep})
		for j := 0; j < appendsPerCycle; j++ {
			batch := genEvents(seed, n+j*appendRows, appendRows)
			// The server's append mode accepts only the object notation.
			writer = append(writer, &op{class: 3, write: &writeOp{path: coll + "?format=sion&mode=append", ctype: "text/plain",
				body: eventsSION(batch), count: n + (j+1)*appendRows, rows: appendRows}})
			for k := 0; k < readsPerAppend; k++ {
				e := batch[r.Intn(len(batch))]
				writer = append(writer, &op{class: 4, text: pointText, params: map[string]int{"$id": e.ID},
					sumCol: "amount", want: wantEventPoint(e)})
			}
		}
	}
	rangeText := fmt.Sprintf(`SELECT VALUE e.id FROM events AS e WHERE e.amount >= $lo AND e.amount < $hi AND e.id < %d`, n)
	groupText := fmt.Sprintf(`SELECT e.kind AS kind, COUNT(*) AS c, SUM(e.amount) AS a FROM events AS e WHERE e.id < %d GROUP BY e.kind ORDER BY kind`, n)
	group := &op{class: 7, text: groupText, sumCol: "a", keyCol: "kind", grouped: true, want: wantEventGroup(base)}
	var reader []*op
	for c := 0; c < 32; c++ {
		for k := 0; k < 6; k++ {
			e := base[r.Intn(n)]
			reader = append(reader, &op{class: 5, text: pointText, params: map[string]int{"$id": e.ID},
				sumCol: "amount", want: wantEventPoint(e)})
		}
		for k := 0; k < 3; k++ {
			lo := 1 + r.Intn(maxAmount-eventBand)
			reader = append(reader, &op{class: 6, text: rangeText, params: map[string]int{"$lo": lo, "$hi": lo + eventBand},
				want: wantEventRange(base, lo, lo+eventBand)})
		}
		reader = append(reader, group.clone(7))
	}
	encodeBodies(writer)
	encodeBodies(reader)
	in := &inputs{
		names:   []string{"events"},
		json:    map[string][]byte{"events": replaces[0].body},
		indexes: []indexSpec{{"ev_id", "events", "id", "hash"}, {"ev_amount", "events", "amount", "ordered"}},
	}
	refIn := analyticInputs(d)
	refIn.names = append(refIn.names, "events")
	refIn.json["events"] = replaces[0].body
	refIn.indexes = in.indexes
	return &opPlan{classes: ingestClasses, in: in, streams: [][]*op{writer, reader},
		unit: len(writer), tracedMix: []int{1, 2}, refIn: refIn}
}
