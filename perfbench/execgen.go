package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"ocas/internal/plan"
)

// exec-generated: POST /execute on warm plans over every corpus query.
// Every round runs each (query, rung) pair once in a seeded order; every
// input sits on the common ladder rung, except that product queries pin R
// at productR rows. exec.seed is one of execSeeds per-query seeds, so
// (query, rows, seed) triples recur within a run.
var execLadder = []int64{1 << 12, 1 << 13, 1 << 14}

const (
	execSeeds  = 4
	oracleRows = 1 << 10
)

// executeBody is the /execute request body, as the service decodes it.
type executeBody struct {
	plan.Request
	TimeoutMS int64            `json:"timeoutMs,omitempty"`
	Exec      plan.ExecOptions `json:"exec"`
}

// execReq is one generated /execute request.
type execReq struct {
	idx    int
	entry  *entry
	rung   int64
	seed   int64
	inRows int64 // rows over all inputs
	body   []byte
}

// triple identifies a recurring execution.
func (r *execReq) triple() string { return fmt.Sprintf("%s/%d/%d", r.entry.Name, r.rung, r.seed) }

type execStream struct {
	rng   *rand.Rand
	qs    []*entry
	seeds map[string][]int64
	round []*execReq
	pos   int
	n     int
}

func newExecStream(seed int64, corpus []*entry) *execStream {
	s := &execStream{rng: rand.New(rand.NewSource(seed*7 + 2)), qs: corpus, seeds: map[string][]int64{}}
	for _, e := range corpus {
		for i := 0; i < execSeeds; i++ {
			s.seeds[e.Name] = append(s.seeds[e.Name], 1+s.rng.Int63n(1<<30))
		}
	}
	return s
}

func (s *execStream) next() (*execReq, bool) {
	if s.pos == len(s.round) {
		s.round = s.round[:0]
		for _, e := range s.qs {
			for _, n := range execLadder {
				s.round = append(s.round, &execReq{entry: e, rung: n})
			}
		}
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
		s.pos = 0
	}
	slot := s.round[s.pos]
	s.pos++
	r := execRequest(slot.entry, slot.rung, s.seeds[slot.entry.Name][s.rng.Intn(execSeeds)])
	r.idx = s.n
	s.n++
	return r, s.pos == len(s.round)
}

// execRequest builds the /execute request of e at rung rows per input.
func execRequest(e *entry, rung, seed int64) *execReq {
	rows := map[string]int64{}
	var total int64
	for name := range e.Req.Inputs {
		n := rung
		if e.Product && name == "R" {
			n = productR
		}
		rows[name] = n
		total += n
	}
	body, err := json.Marshal(executeBody{Request: e.Req, Exec: plan.ExecOptions{Seed: seed, Rows: rows}})
	if err != nil {
		panic(err)
	}
	return &execReq{entry: e, rung: rung, seed: seed, inRows: total, body: body}
}

// execResult is one served /execute request.
type execResult struct {
	r   *execReq
	ms  float64
	rep reply
	out *plan.ExecReport
}

// warmPlans synthesizes every corpus plan once, so /execute resolves from
// the plan cache.
func warmPlans(ctx context.Context, d *daemon, corpus []*entry) error {
	for _, e := range corpus {
		body, err := json.Marshal(e.Req)
		if err != nil {
			return err
		}
		if rep := post(ctx, d.base+"/synthesize", body); !rep.ok() {
			return fmt.Errorf("warm %s: %v", e.Name, rep)
		}
	}
	return nil
}

func runExecLoad(ctx context.Context, d *daemon, s *execStream, deadline time.Time) ([]execResult, time.Duration) {
	return closedLoop(deadline, s.next, func(r *execReq) execResult {
		t0 := time.Now()
		rep := post(ctx, d.base+"/execute", r.body)
		res := execResult{r: r, ms: msSince(t0), rep: rep}
		if rep.ok() {
			res.out = decodeReport(rep.body)
		}
		return res
	})
}

func decodeReport(b []byte) *plan.ExecReport {
	var rep plan.ExecReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil
	}
	return &rep
}

// sameExecution reports whether two execution reports agree on digest,
// virtual clock and every device ledger.
func sameExecution(a, b *plan.ExecReport) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing report")
	}
	if a.OutDigest != b.OutDigest || a.OutRows != b.OutRows || a.Result != b.Result {
		return fmt.Errorf("digest %s (%d rows) vs %s (%d rows)", a.OutDigest, a.OutRows, b.OutDigest, b.OutRows)
	}
	if a.VirtualSeconds != b.VirtualSeconds {
		return fmt.Errorf("virtual seconds %v vs %v", a.VirtualSeconds, b.VirtualSeconds)
	}
	if len(a.Devices) != len(b.Devices) {
		return fmt.Errorf("ledgers cover %d vs %d devices", len(a.Devices), len(b.Devices))
	}
	for name, d := range a.Devices {
		if b.Devices[name] != d {
			return fmt.Errorf("device %s ledger %+v vs %+v", name, d, b.Devices[name])
		}
	}
	return nil
}

func benchExec(ctx context.Context, o *options, corpus []*entry) (*outcome, error) {
	s := newExecStream(o.seed, corpus)
	d, setupS, err := setUp(o, func(d *daemon) error { return warmPlans(ctx, d, corpus) }, noFlags)
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
	results, wall := runExecLoad(ctx, d, s, time.Now().Add(time.Duration(o.seconds)*time.Second))
	var all []float64
	var rows int64
	seen := map[string]bool{}
	recurring := 0
	for _, r := range results {
		out.attempted++
		if seen[r.r.triple()] {
			recurring++
		}
		seen[r.r.triple()] = true
		if !r.rep.ok() || r.out == nil {
			out.failed++
			continue
		}
		all = append(all, r.ms)
		rows += r.r.inRows
	}
	if err := out.measure(d, all, wall, cpu0); err != nil {
		d.kill()
		return nil, err
	}
	out.timing("exec", all)
	out.set("exec_rows_per_s", "rows/s", float64(rows)/wall.Seconds(), len(all))
	out.set("failed_ratio", "ratio", float64(out.failed)/float64(max(out.attempted, 1)), int(out.attempted))
	out.share("share.recurring_seed", recurring, len(results))

	checkExec(ctx, o, d, s, results, out)
	if err := d.stop(); err != nil {
		out.failf("ocasd shutdown: %v", err)
	}
	if o.trace {
		if err := traceExec(ctx, o, corpus, results, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkExec: one digest per (query, rows, seed), and each query's digest
// at oracleRows equals the reference interpreter's on the same rows.
func checkExec(ctx context.Context, o *options, d *daemon, s *execStream, results []execResult, out *outcome) {
	digests := map[string]string{}
	for _, r := range results {
		if r.out == nil {
			continue
		}
		if prev, ok := digests[r.r.triple()]; ok && prev != r.out.OutDigest {
			out.failf("exec-generated: %s returned two digests", r.r.triple())
		}
		digests[r.r.triple()] = r.out.OutDigest
	}
	for _, e := range s.qs {
		r := execRequest(e, oracleRows, s.seeds[e.Name][0])
		rep := post(ctx, d.base+"/execute", r.body)
		got := decodeReport(rep.body)
		if !rep.ok() || got == nil {
			out.failf("exec-generated: oracle-size run of %s: %v", e.Name, rep)
			continue
		}
		rows := map[string]int64{}
		for name := range e.Req.Inputs {
			rows[name] = oracleRows
			if e.Product && name == "R" {
				rows[name] = productR
			}
		}
		want, err := oracleDigest(e, rows, r.seed, got.Result != "")
		if err != nil {
			out.failf("exec-generated: oracle for %s: %v", e.Name, err)
			continue
		}
		if want != got.OutDigest {
			out.failf("exec-generated: %s digest at %d rows differs from the interpreter's", e.Name, oracleRows)
		}
	}
}

func traceExec(ctx context.Context, o *options, corpus []*entry, results []execResult, out *outcome) error {
	served := make([]execResult, 0, len(results))
	for _, r := range results {
		if r.out != nil {
			served = append(served, r)
		}
	}
	sort.Slice(served, func(i, j int) bool { return served[i].r.idx < served[j].r.idx })
	budget := o.replayBudget()
	replay := func(traced bool, limit int) (*driver, int, time.Duration, error) {
		dr := newDriver(ctx, false, nil)
		for _, e := range corpus {
			c, err := plan.Compile(e.Req)
			if err != nil {
				return nil, 0, 0, err
			}
			if _, _, err := dr.resolve(c); err != nil {
				return nil, 0, 0, fmt.Errorf("driver warm-up %s: %w", e.Name, err)
			}
		}
		dr.warmed(traced)
		t0 := time.Now()
		n := 0
		for ; n < limit && (limit < len(served) || time.Since(t0) < budget); n++ {
			r := served[n]
			dr.rec.req = r.r.idx
			rep, err := dr.execute(r.r.entry.Name, r.r.body)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("driver request %d: %w", r.r.idx, err)
			}
			if traced {
				if err := sameExecution(rep, r.out); err != nil {
					out.failf("trace: driver run of request %d (%s) differs from the HTTP response: %v", r.r.idx, r.r.triple(), err)
				}
			}
		}
		return dr, n, time.Since(t0), nil
	}
	dr, n, tracedWall, err := replay(true, len(served))
	if err != nil {
		return err
	}
	_, _, plainWall, err := replay(false, n)
	if err != nil {
		return err
	}
	lt := dr.rec.layers()
	var httpMs, driverMs []float64
	for _, r := range served[:n] {
		httpMs = append(httpMs, r.ms)
		driverMs = append(driverMs, lt.roots[r.r.idx])
	}
	out.set("service.overhead_ms", "ms", median(httpMs)-median(driverMs), len(driverMs))
	layerMetrics(out, dr, lt, n, tracedWall, plainWall)
	return dr.rec.writeJSONL(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed)))
}
