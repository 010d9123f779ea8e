package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/interp"
	"ocas/internal/ocal"
	"ocas/internal/plan"
	"ocas/internal/workload"
)

// durable-mixed: client 1 ingests seeded ingestBatch-row JSON batches into
// a live table and rotates it (DELETE + POST /tables) before it reaches
// rotateRows; client 2 runs /execute over frozen frozenRows-row tables
// loaded in set-up (an aggregation scan, an equi-join and the merge
// kernel) and an aggregation over the live table.
const (
	ingestBatch = 4096
	frozenRows  = 1 << 16
	// rotateRows keeps the live table well under the server's default
	// 2^20-row /execute limit, so that a run sees many fill-and-rotate
	// cycles and the live aggregate's latency covers the whole sawtooth.
	rotateRows = 1 << 18
)

// durableQuery is one read of the query client.
type durableQuery struct {
	name   string
	entry  string            // corpus entry
	tables map[string]string // input -> table ("" table: the live table)
	seed   int64             // generator seed of the frozen tables' rows
}

func (q *durableQuery) live() bool { return q.tables["R"] == "" && len(q.tables) == 1 }

// durableQueries are the query client's reads: the three frozen-table
// queries and the live aggregate.
func durableQueries(seed int64) []*durableQuery {
	rng := rand.New(rand.NewSource(seed*7 + 3))
	return []*durableQuery{
		{name: "agg", entry: "table1-aggregation", tables: map[string]string{"R": "agg"}, seed: 1 + rng.Int63n(1<<30)},
		{name: "join", entry: "example-quickstart", tables: map[string]string{"R": "jr", "S": "js"}, seed: 1 + rng.Int63n(1<<30)},
		{name: "merge", entry: "example-externalsort", tables: map[string]string{"L1": "l1", "L2": "l2"}, seed: 1 + rng.Int63n(1<<30)},
		{name: "live", entry: "table1-aggregation", tables: map[string]string{"R": ""}},
	}
}

// queryRound is one round of the query client, run in a seeded order: each
// frozen-table query once and the live aggregate twice, so that reads of
// fresh data are two fifths of the reads.
func queryRound(qs []*durableQuery) []*durableQuery {
	round := append([]*durableQuery(nil), qs...)
	for _, q := range qs {
		if q.live() {
			round = append(round, q)
		}
	}
	return round
}

// tableDef is a frozen table and its content.
type tableDef struct {
	name  string
	arity int
	rows  []int32
}

func createBody(name string, arity int) []byte {
	cols := `[{"name": "k", "type": "int32"}, {"name": "v", "type": "int32"}]`
	if arity == 1 {
		cols = `[{"name": "k", "type": "int32"}]`
	}
	return []byte(fmt.Sprintf(`{"name": %q, "schema": {"columns": %s, "key": [0]}}`, name, cols))
}

// rowsBody encodes flat rows as an ingest JSON body.
func rowsBody(flat []int32, arity int) []byte {
	b := make([]byte, 0, len(flat)*12+16)
	b = append(b, `{"rows": [`...)
	for i := 0; i < len(flat); i += arity {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < arity; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(flat[i+j]), 10)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// frozenTables derives the frozen tables' rows: each bound input holds
// exactly the rows /execute would generate for it at frozenRows under the
// query's seed, so a durable run is comparable to a generated one.
func frozenTables(qs []*durableQuery, corpus map[string]*entry) []tableDef {
	var out []tableDef
	for _, q := range qs {
		if q.live() {
			continue
		}
		e := corpus[q.entry]
		for i, in := range inputNames(e.Req) {
			ar := e.Req.Inputs[in].Arity
			if ar == 0 {
				ar = 2
			}
			out = append(out, tableDef{name: q.tables[in], arity: ar, rows: generated(ar, frozenRows, q.seed, i)})
		}
	}
	return out
}

// loadTable creates a table and ingests rows in ingestBatch-row batches.
func loadTable(ctx context.Context, d *daemon, t tableDef) error {
	if rep := post(ctx, d.base+"/tables", createBody(t.name, t.arity)); !rep.ok() {
		return fmt.Errorf("create %s: %v", t.name, rep)
	}
	step := ingestBatch * t.arity
	for lo := 0; lo < len(t.rows); lo += step {
		hi := min(lo+step, len(t.rows))
		if rep := post(ctx, d.base+"/tables/"+t.name+"/rows", rowsBody(t.rows[lo:hi], t.arity)); !rep.ok() {
			return fmt.Errorf("load %s: %v", t.name, rep)
		}
	}
	return nil
}

func liveName(gen int) string { return "live-" + strconv.Itoa(gen) }

// queryBody is the /execute body of q with the live table at gen.
func queryBody(q *durableQuery, e *entry, gen int) []byte {
	tables := map[string]string{}
	for in, t := range q.tables {
		if t == "" {
			t = liveName(gen)
		}
		tables[in] = t
	}
	body, err := json.Marshal(executeBody{Request: e.Req, Exec: plan.ExecOptions{Tables: tables}})
	if err != nil {
		panic(err)
	}
	return body
}

// batchRows is the seeded content of ingest batch number i.
func batchRows(seed int64, i int) []int32 {
	return workload.UniformPairs(ingestBatch, 1<<20, seed*1_000_003+int64(i))
}

// ingestOp is one acknowledged (or failed) live-table operation.
type ingestOp struct {
	kind  string // "ingest", "rotate"
	gen   int
	batch int // global batch number (ingest)
	order int // completion order over both clients
	ms    float64
	rep   reply
}

// queryOp is one query-client /execute.
type queryOp struct {
	q     *durableQuery
	gen   int
	ms    float64
	rep   reply
	out   *plan.ExecReport
	acked int // live batches acknowledged in gen when the query was sent
	sent  int // live batches sent in gen when the reply arrived
	order int // completion order over both clients
}

// liveState is the ingest client's view of the live table, shared with
// the query client.
type liveState struct {
	mu      sync.RWMutex // held shared by live queries, exclusively by rotation
	stateMu sync.Mutex
	gen     int
	sent    int           // batches sent into gen
	acked   int           // batches acknowledged in gen
	batches map[int][]int // gen -> global batch numbers in order
}

func (l *liveState) snapshot() (gen, sent, acked int) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.gen, l.sent, l.acked
}

// durableRun is the outcome of the timed phase.
type durableRun struct {
	ingest  []ingestOp
	queries []queryOp
	live    *liveState
	wall    time.Duration
}

func runDurableLoad(ctx context.Context, d *daemon, seed int64, qs []*durableQuery, corpus map[string]*entry, deadline time.Time) *durableRun {
	run := &durableRun{live: &liveState{batches: map[int][]int{}}}
	live := run.live
	var order int
	var orderMu sync.Mutex
	nextOrder := func() int {
		orderMu.Lock()
		defer orderMu.Unlock()
		order++
		return order
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 1: ingest
		defer wg.Done()
		for b := 0; time.Now().Before(deadline); b++ {
			gen, sent, _ := live.snapshot()
			if (sent+1)*ingestBatch > rotateRows {
				t0 := time.Now()
				live.mu.Lock()
				rep := do(ctx, http.MethodDelete, d.base+"/tables/"+liveName(gen), "", nil)
				if rep.ok() {
					rep = post(ctx, d.base+"/tables", createBody(liveName(gen+1), 2))
				}
				live.stateMu.Lock()
				live.gen, live.sent, live.acked = gen+1, 0, 0
				live.stateMu.Unlock()
				live.mu.Unlock()
				run.ingest = append(run.ingest, ingestOp{kind: "rotate", gen: gen + 1, ms: msSince(t0), rep: rep, order: nextOrder()})
				gen = gen + 1
			}
			body := rowsBody(batchRows(seed, b), 2)
			live.stateMu.Lock()
			live.sent++
			live.batches[gen] = append(live.batches[gen], b)
			live.stateMu.Unlock()
			t0 := time.Now()
			rep := post(ctx, d.base+"/tables/"+liveName(gen)+"/rows", body)
			ms := msSince(t0)
			if rep.ok() {
				live.stateMu.Lock()
				live.acked++
				live.stateMu.Unlock()
			}
			run.ingest = append(run.ingest, ingestOp{kind: "ingest", gen: gen, batch: b, ms: ms, rep: rep, order: nextOrder()})
		}
	}()
	go func() { // client 2: queries, whole rounds
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed*7 + 4))
		round := queryRound(qs)
		for time.Now().Before(deadline) {
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			for _, q := range round {
				op := queryOp{q: q}
				if q.live() {
					live.mu.RLock()
					op.gen, _, op.acked = live.snapshot()
				}
				t0 := time.Now()
				op.rep = post(ctx, d.base+"/execute", queryBody(q, corpus[q.entry], op.gen))
				op.ms = msSince(t0)
				if q.live() {
					_, op.sent, _ = live.snapshot()
					live.mu.RUnlock()
				}
				if op.rep.ok() {
					op.out = decodeReport(op.rep.body)
				}
				op.order = nextOrder()
				run.queries = append(run.queries, op)
			}
		}
	}()
	wg.Wait()
	run.wall = time.Since(start)
	return run
}

// liveAggregates returns, for live generation gen, the printed aggregate of
// every prefix of its batches (index k: the first k batches), computed by
// the reference interpreter batch by batch: foldL over a concatenation is
// the fold of the second part started from the first part's accumulator.
func liveAggregates(e *entry, seed int64, batches []int) ([]string, error) {
	prog, err := ocal.ParseFile(e.Req.Program)
	if err != nil {
		return nil, err
	}
	app, ok := prog.(ocal.App)
	var inner ocal.App
	var fold ocal.FoldL
	if ok {
		inner, ok = app.Arg.(ocal.App)
	}
	if ok {
		fold, ok = inner.Fn.(ocal.FoldL)
	}
	if !ok {
		return nil, fmt.Errorf("live query %s is not final(foldL(init, f)(R))", e.Name)
	}
	acc, err := interp.Eval(fold.Init, nil, nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for k := 0; ; k++ {
		v, err := interp.Eval(ocal.App{Fn: app.Fn, Arg: literal(acc)}, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, v.String())
		if k == len(batches) {
			return out, nil
		}
		flat := batchRows(seed, batches[k])
		l := make(ocal.List, len(flat)/2)
		for i := range l {
			l[i] = ocal.Tuple{ocal.Int(flat[2*i]), ocal.Int(flat[2*i+1])}
		}
		step := ocal.App{Fn: ocal.FoldL{Init: literal(acc), Fn: fold.Fn}, Arg: ocal.Var{Name: "B"}}
		if acc, err = interp.Eval(step, map[string]ocal.Value{"B": l}, nil); err != nil {
			return nil, err
		}
	}
}

// literal turns an int or tuple value back into an expression.
func literal(v ocal.Value) ocal.Expr {
	switch x := v.(type) {
	case ocal.Int:
		return ocal.IntLit{V: int64(x)}
	case ocal.Tuple:
		t := ocal.Tup{}
		for _, e := range x {
			t.Elems = append(t.Elems, literal(e))
		}
		return t
	}
	panic(fmt.Sprintf("no literal for %T", v))
}

func benchDurable(ctx context.Context, o *options, corpus []*entry) (*outcome, error) {
	qs := durableQueries(o.seed)
	idx := byName(corpus)
	frozen := frozenTables(qs, idx)
	dataDir := func(i int) string { return filepath.Join(o.work, fmt.Sprintf("data-%d", i)) }
	var last string
	d, setupS, err := setUp(o, func(d *daemon) error {
		for _, t := range frozen {
			if err := loadTable(ctx, d, t); err != nil {
				return err
			}
		}
		if rep := post(ctx, d.base+"/tables", createBody(liveName(0), 2)); !rep.ok() {
			return fmt.Errorf("create live table: %v", rep)
		}
		var es []*entry
		for _, q := range qs {
			es = append(es, idx[q.entry])
		}
		return warmPlans(ctx, d, es)
	}, func(i int) []string {
		last = dataDir(i)
		return []string{"-data", last}
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.set("setup_s", "s", setupS, setUps)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, err
	}
	run := runDurableLoad(ctx, d, o.seed, qs, idx, time.Now().Add(time.Duration(o.seconds)*time.Second))
	var queryMs []float64
	byKind := map[string][]float64{}
	ackedRows := 0
	ingests := 0
	for _, op := range run.ingest {
		out.attempted++
		if !op.rep.ok() {
			out.failed++
			continue
		}
		if op.kind == "ingest" {
			ackedRows += ingestBatch
			ingests++
		}
	}
	for _, q := range run.queries {
		out.attempted++
		if !q.rep.ok() || q.out == nil {
			out.failed++
			continue
		}
		queryMs = append(queryMs, q.ms)
		byKind[q.q.name] = append(byKind[q.q.name], q.ms)
	}
	for _, q := range qs {
		out.set("durable."+q.name+"_p50_ms", "ms", median(byKind[q.name]), len(byKind[q.name]))
	}
	ops := len(run.ingest) + len(run.queries)
	if err := out.measure(d, queryMs, run.wall, cpu0); err != nil {
		d.kill()
		return nil, err
	}
	out.timing("durable", queryMs)
	out.set("ingest_rows_per_s", "rows/s", float64(ackedRows)/run.wall.Seconds(), ingests)
	out.set("failed_ratio", "ratio", float64(out.failed)/float64(max(out.attempted, 1)), int(out.attempted))
	out.share("share.ingest", len(run.ingest), ops)
	out.share("share.query", len(run.queries), ops)

	checkDurable(ctx, o, d, run, qs, idx, out)
	if err := d.stop(); err != nil {
		out.failf("ocasd shutdown: %v", err)
	}
	checkRestart(ctx, o, last, run, frozen, out)
	if o.trace {
		if err := traceDurable(ctx, o, run, qs, idx, frozen, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkDurable: frozen-table runs equal generated-input runs with the same
// per-input seeds (digest, virtual clock, ledgers), and every live
// aggregate equals the aggregate of a prefix of the batches sent into its
// table generation.
func checkDurable(ctx context.Context, o *options, d *daemon, run *durableRun, qs []*durableQuery, idx map[string]*entry, out *outcome) {
	first := map[string]*plan.ExecReport{}
	for _, q := range run.queries {
		if q.out == nil || q.q.live() {
			continue
		}
		if prev, ok := first[q.q.name]; ok {
			if err := sameExecution(prev, q.out); err != nil {
				out.failf("durable-mixed: two runs of %s differ: %v", q.q.name, err)
			}
			continue
		}
		first[q.q.name] = q.out
	}
	for _, q := range qs {
		if q.live() {
			continue
		}
		got, ok := first[q.name]
		if !ok {
			out.failf("durable-mixed: %s never ran", q.name)
			continue
		}
		e := idx[q.entry]
		rows := map[string]int64{}
		for name := range e.Req.Inputs {
			rows[name] = frozenRows
		}
		body, err := json.Marshal(executeBody{Request: e.Req, Exec: plan.ExecOptions{Seed: q.seed, Rows: rows}})
		if err != nil {
			out.failf("durable-mixed: %v", err)
			continue
		}
		rep := post(ctx, d.base+"/execute", body)
		if err := sameExecution(got, decodeReport(rep.body)); err != nil {
			out.failf("durable-mixed: %s over frozen tables differs from generated inputs: %v (%s)", q.name, err, oneLine(rep.body))
		}
	}
	prefixes := map[int][]string{}
	for _, q := range run.queries {
		if q.out == nil || !q.q.live() {
			continue
		}
		aggs, ok := prefixes[q.gen]
		if !ok {
			var err error
			aggs, err = liveAggregates(idx[q.q.entry], o.seed, run.live.batches[q.gen])
			if err != nil {
				out.failf("durable-mixed: live oracle: %v", err)
				return
			}
			prefixes[q.gen] = aggs
		}
		match := false
		for k := q.acked; k <= q.sent && k < len(aggs); k++ {
			if aggs[k] == q.out.Result {
				match = true
				break
			}
		}
		if !match {
			out.failf("durable-mixed: live aggregate %s (generation %d) matches no prefix of %d..%d batches",
				q.out.Result, q.gen, q.acked, q.sent)
		}
	}
}

// checkRestart: after SIGTERM, a restarted ocasd on the same -data
// directory holds exactly the acknowledged rows.
func checkRestart(ctx context.Context, o *options, dir string, run *durableRun, frozen []tableDef, out *outcome) {
	d, err := startDaemon(o.ocasd, filepath.Join(o.work, "ocasd-restart.log"), "-data", dir)
	if err != nil {
		out.failf("durable-mixed: restart: %v", err)
		return
	}
	defer func() {
		if err := d.stop(); err != nil {
			out.failf("durable-mixed: restarted ocasd shutdown: %v", err)
		}
	}()
	want := map[string]int64{}
	for _, t := range frozen {
		want[t.name] = int64(len(t.rows) / t.arity)
	}
	gen, _, acked := run.live.snapshot()
	want[liveName(gen)] = int64(acked * ingestBatch)
	for name, rows := range want {
		rep := do(ctx, http.MethodGet, d.base+"/tables/"+name, "", nil)
		var info catalog.TableInfo
		if !rep.ok() || json.Unmarshal(rep.body, &info) != nil {
			out.failf("durable-mixed: after restart, table %s: %v", name, rep)
			continue
		}
		if info.Rows != rows {
			out.failf("durable-mixed: after restart, table %s holds %d rows, %d were acknowledged", name, info.Rows, rows)
		}
	}
}

func traceDurable(ctx context.Context, o *options, run *durableRun, qs []*durableQuery, idx map[string]*entry, frozen []tableDef, out *outcome) error {
	// Replay both clients' operations in the order they completed.
	type op struct {
		order int
		ing   *ingestOp
		qry   *queryOp
	}
	var ops []op
	for i := range run.ingest {
		ops = append(ops, op{order: run.ingest[i].order, ing: &run.ingest[i]})
	}
	for i := range run.queries {
		ops = append(ops, op{order: run.queries[i].order, qry: &run.queries[i]})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].order < ops[j].order })
	budget := o.replayBudget()
	replay := func(traced bool, limit int, dir string) (*driver, int, time.Duration, error) {
		cat, err := catalog.Open(dir, catalog.Options{})
		if err != nil {
			return nil, 0, 0, err
		}
		dr := newDriver(ctx, false, cat)
		var userBytes int64
		for _, t := range frozen {
			if err := cat.Create(t.name, schemaFor(t.arity)); err != nil {
				cat.Close()
				return nil, 0, 0, err
			}
			step := ingestBatch * t.arity
			for lo := 0; lo < len(t.rows); lo += step {
				if err := dr.ingest(t.name, rowsBody(t.rows[lo:min(lo+step, len(t.rows))], t.arity)); err != nil {
					cat.Close()
					return nil, 0, 0, err
				}
			}
			userBytes += int64(len(t.rows)) * 4
		}
		if err := cat.Create(liveName(0), schemaFor(2)); err != nil {
			cat.Close()
			return nil, 0, 0, err
		}
		for _, q := range qs {
			c, err := plan.Compile(idx[q.entry].Req)
			if err == nil {
				_, _, err = dr.resolve(c)
			}
			if err != nil {
				cat.Close()
				return nil, 0, 0, err
			}
		}
		dr.warmed(traced)
		var dropped int64
		t0 := time.Now()
		n := 0
		for ; n < limit && n < len(ops) && (limit < len(ops) || time.Since(t0) < budget); n++ {
			dr.rec.req = n
			switch p := ops[n]; {
			case p.ing != nil && p.ing.kind == "rotate":
				old := liveName(p.ing.gen - 1)
				dropped += dirBytes(dir, old+"-")
				dr.rec.call("request", func() {
					dr.rec.call("catalog.rotate", func() {
						if err = cat.Drop(old); err == nil {
							err = cat.Create(liveName(p.ing.gen), schemaFor(2))
						}
					})
				})
			case p.ing != nil:
				err = dr.ingest(liveName(p.ing.gen), rowsBody(batchRows(o.seed, p.ing.batch), 2))
				userBytes += ingestBatch * 8
			default:
				var rep *plan.ExecReport
				rep, err = dr.execute(p.qry.q.name, queryBody(p.qry.q, idx[p.qry.q.entry], p.qry.gen))
				if err == nil && traced && !p.qry.q.live() && p.qry.out != nil {
					if e := sameExecution(rep, p.qry.out); e != nil {
						out.failf("trace: driver run of %s differs from the HTTP response: %v", p.qry.q.name, e)
					}
				}
			}
			if err != nil {
				cat.Close()
				return nil, 0, 0, fmt.Errorf("driver op %d: %w", n, err)
			}
		}
		wall := time.Since(t0)
		flushes := cat.Stats().SegmentFlushes
		if err := cat.Close(); err != nil {
			return nil, 0, 0, err
		}
		if traced {
			out.set("catalog.flushes", "count", float64(flushes), n)
			onDisk := dropped + dirBytes(dir, "")
			out.set("catalog.bytes_per_user_byte", "ratio", float64(onDisk)/float64(max(userBytes, 1)), n)
		}
		return dr, n, wall, nil
	}
	dr, n, tracedWall, err := replay(true, len(ops), filepath.Join(o.work, "driver-traced"))
	if err != nil {
		return err
	}
	_, _, plainWall, err := replay(false, n, filepath.Join(o.work, "driver-plain"))
	if err != nil {
		return err
	}
	lt := dr.rec.layers()
	var httpMs, driverMs []float64
	for i, p := range ops[:n] {
		if p.qry != nil && p.qry.out != nil {
			httpMs = append(httpMs, p.qry.ms)
			driverMs = append(driverMs, lt.roots[i])
		}
	}
	out.set("service.overhead_ms", "ms", median(httpMs)-median(driverMs), len(driverMs))
	layerMetrics(out, dr, lt, n, tracedWall, plainWall)
	return dr.rec.writeJSONL(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed)))
}

func schemaFor(arity int) catalog.Schema {
	s := catalog.Schema{Columns: []catalog.Column{{Name: "k", Type: "int32"}}, Key: []int{0}}
	if arity == 2 {
		s.Columns = append(s.Columns, catalog.Column{Name: "v", Type: "int32"})
	}
	return s
}

// dirBytes sums the sizes of the files under dir whose names contain
// match ("" matches every file).
func dirBytes(dir, match string) int64 {
	var total int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.Contains(info.Name(), match) {
			total += info.Size()
		}
		return nil
	})
	return total
}
