package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"ocas/internal/catalog"
	"ocas/internal/exec"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/plan"
	"ocas/internal/plancache"
	"ocas/internal/storage"
)

// The traced run replays a workload's request stream in this process,
// calling the layers' public Go functions the way ocasd's handlers do and
// recording a span around each call. Its results must equal the HTTP
// responses for the same requests, which keeps it on the real path.

// span is one timed call. Times are nanoseconds since the recorder began.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory. Off, it records nothing (the baseline of
// trace.overhead_ratio). The replay is single-threaded, so the open spans
// form a stack.
type recorder struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

func (r *recorder) start(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: r.req,
		Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// call runs f inside a span.
func (r *recorder) call(name string, f func()) {
	id := r.start(name)
	f()
	r.end(id)
}

// writeJSONL writes every span as one JSON line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes aggregates spans by name: total self time (duration minus the
// children's durations) and call count, plus per-call self times.
type layerTimes struct {
	self  map[string]float64 // ms
	calls map[string]int
	each  map[string][]float64 // ms per call
	wall  float64              // ms under root spans
	roots map[int]float64      // request -> root duration, ms
}

func (r *recorder) layers() *layerTimes {
	lt := &layerTimes{self: map[string]float64{}, calls: map[string]int{},
		each: map[string][]float64{}, roots: map[int]float64{}}
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	for i, s := range r.spans {
		d := float64(s.End-s.Start) / 1e6
		self := d - child[i]
		lt.self[s.Name] += self
		lt.calls[s.Name]++
		lt.each[s.Name] = append(lt.each[s.Name], self)
		if s.Parent < 0 {
			lt.wall += d
			lt.roots[s.Req] += d
		}
	}
	return lt
}

// meanMs is a layer's mean self time per call.
func (lt *layerTimes) meanMs(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return lt.self[name] / float64(lt.calls[name])
}

// coverage is the share of the replay's wall time that layer spans cover:
// the root spans' own self time is the benchmark's glue.
func (lt *layerTimes) coverage() float64 {
	if lt.wall == 0 {
		return 0
	}
	return (lt.wall - lt.self["request"]) / lt.wall
}

// driver replays requests against in-process layers.
type driver struct {
	rec   *recorder
	store *plancache.Store
	cat   *catalog.Catalog
	ctx   context.Context

	searchSpace int64
	synthMs     float64
	outcomes    map[plancache.Outcome]int
	rowsGen     int64
	rowsOut     int64
	storage     storageTotals
	runByQuery  map[string][]float64
	warmRejects int64 // guard rejections during warm-up
}

// warmed ends the driver's warm-up: counters restart and spans are
// recorded from now on when traced. It collects garbage first, so that
// neither of the traced and untraced replays pays for the other's.
func (dr *driver) warmed(traced bool) {
	dr.outcomes = map[plancache.Outcome]int{}
	dr.searchSpace, dr.synthMs = 0, 0
	dr.warmRejects = dr.store.Stats().GuardRejects
	dr.rec.on = traced
	runtime.GC()
}

type storageTotals struct {
	virtual               float64
	bytesRead, bytesWrite int64
	readInits, writeInits int64
	evictions, spillBytes int64
}

func newDriver(ctx context.Context, traced bool, cat *catalog.Catalog) *driver {
	return &driver{rec: newRecorder(traced), store: plancache.NewStore(1024, 64), cat: cat, ctx: ctx,
		outcomes: map[plancache.Outcome]int{}, runByQuery: map[string][]float64{}}
}

// synthesizeBody mirrors the /synthesize body.
type synthesizeBody struct {
	plan.Request
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// compile compiles a request (span plan.compile, which includes parsing
// the request's program: plan.Compile does both, as the service calls it).
func (dr *driver) compile(req plan.Request) (*plan.Compiled, error) {
	var c *plan.Compiled
	var err error
	dr.rec.call("plan.compile", func() { c, err = plan.Compile(req) })
	return c, err
}

// resolve routes a compiled request through the two-tier cache like the
// service does (spans plancache.resolve, core.synth, core.instantiate).
func (dr *driver) resolve(c *plan.Compiled) (*plan.Plan, plancache.Outcome, error) {
	search := func(f func() (*plan.Plan, error)) (*plan.Plan, error) {
		t0 := time.Now()
		var p *plan.Plan
		var err error
		dr.rec.call("core.synth", func() { p, err = f() })
		dr.synthMs += msSince(t0)
		if err == nil {
			dr.searchSpace += int64(p.SearchSpace)
		}
		return p, err
	}
	var p *plan.Plan
	var out plancache.Outcome
	var err error
	dr.rec.call("plancache.resolve", func() {
		p, out, err = dr.store.Resolve(dr.ctx, c.Fingerprint, c.TemplateFingerprint, plancache.ResolveFuncs{
			Synthesize: func(ctx context.Context) (*plan.Plan, error) {
				return search(func() (*plan.Plan, error) { return c.Run(ctx) })
			},
			Capture: func(ctx context.Context) (*plan.Plan, *plan.Template, error) {
				var t *plan.Template
				p, err := search(func() (*plan.Plan, error) {
					p, tm, err := c.RunCapture(ctx)
					t = tm
					return p, err
				})
				return p, t, err
			},
			Instantiate: func(ctx context.Context, t *plan.Template) (*plan.Plan, error) {
				var p *plan.Plan
				var err error
				dr.rec.call("core.instantiate", func() { p, err = c.Instantiate(ctx, t) })
				return p, err
			},
		})
	})
	if err == nil {
		dr.outcomes[out]++
	}
	return p, out, err
}

// synthesize replays one /synthesize request and returns the plan bytes.
func (dr *driver) synthesize(body []byte) ([]byte, plancache.Outcome, error) {
	root := dr.rec.start("request")
	defer dr.rec.end(root)
	var req synthesizeBody
	var err error
	dr.rec.call("service.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, "", err
	}
	c, err := dr.compile(req.Request)
	if err != nil {
		return nil, "", err
	}
	p, out, err := dr.resolve(c)
	if err != nil {
		return nil, "", err
	}
	var b []byte
	dr.rec.call("service.encode", func() { b = plan.Encode(p) })
	return b, out, nil
}

// execute replays one /execute request and returns its report.
func (dr *driver) execute(name string, body []byte) (*plan.ExecReport, error) {
	root := dr.rec.start("request")
	defer dr.rec.end(root)
	var req executeBody
	var err error
	dr.rec.call("service.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, err
	}
	c, err := dr.compile(req.Request)
	if err != nil {
		return nil, err
	}
	p, _, err := dr.resolve(c)
	if err != nil {
		return nil, err
	}
	rep, err := dr.runPlan(name, c, p, req.Exec)
	if err != nil {
		return nil, err
	}
	dr.rec.call("service.encode", func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	})
	return rep, err
}

// runPlan executes a resolved plan as plan.ExecutePlan does with ocasd's
// defaults (one executor worker, default backend, batch size and pool),
// with spans around input generation, table opening, lowering and the run.
func (dr *driver) runPlan(name string, c *plan.Compiled, p *plan.Plan, opt plan.ExecOptions) (*plan.ExecReport, error) {
	var prog ocal.Expr
	var err error
	dr.rec.call("ocal.parse", func() { prog, err = ocal.ParseFile(p.Program) })
	if err != nil {
		return nil, err
	}
	sim := storage.NewSim(c.H)
	sim.DefaultCPU()
	inputs := map[string]*exec.Table{}
	var scratch *storage.Device
	var handles []*catalog.Handle
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	for i, in := range c.Task.Spec.Inputs {
		dev, err := sim.Device(c.Task.InputLoc[in.Name])
		if err != nil {
			return nil, err
		}
		if scratch == nil {
			scratch = dev
		}
		var tb *exec.Table
		if tname, bound := opt.Tables[in.Name]; bound {
			var h *catalog.Handle
			dr.rec.call("catalog.open", func() { h, err = dr.cat.OpenTable(tname) })
			if err != nil {
				return nil, err
			}
			handles = append(handles, h)
			dr.rec.call("exec.bind", func() { tb, err = exec.NewBackedTable(dev, in.Arity, h.Rows(), h) })
		} else {
			n := c.Task.InputRows[in.Name]
			if o, ok := opt.Rows[in.Name]; ok && o > 0 {
				n = o
			}
			var rows []int32
			dr.rec.call("workload.gen", func() { rows = generated(in.Arity, n, opt.Seed, i) })
			dr.rowsGen += n
			dr.rec.call("exec.bind", func() {
				tb, err = exec.NewTable(dev, in.Arity, n+8)
				if err == nil {
					err = tb.Preload(rows)
				}
			})
		}
		if err != nil {
			return nil, err
		}
		inputs[in.Name] = tb
	}
	if c.Task.Intermediate != "" {
		if scratch, err = sim.Device(c.Task.Intermediate); err != nil {
			return nil, err
		}
	}
	var digest bagDigest
	sink := &exec.Sink{Sim: sim, Bout: outBlock(p.Params), Tap: digest.add}
	if c.Task.Output != "" {
		outDev, err := sim.Device(c.Task.Output)
		if err != nil {
			return nil, err
		}
		sink.Alloc = func(arity int) (*exec.Table, error) { return exec.NewTable(outDev, arity, 0) }
	}
	var prg *exec.Program
	dr.rec.call("exec.lower", func() {
		prg, err = exec.Lower(prog, exec.LowerOpts{Sim: sim, Inputs: inputs, Params: p.Params,
			Scratch: scratch, Sink: sink, RAMBytes: ramBytes(c.H), ExecWorkers: 1, Context: dr.ctx})
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	dr.rec.call("exec.run", func() { err = prg.Run() })
	dr.runByQuery[name] = append(dr.runByQuery[name], msSince(t0))
	if err != nil {
		return nil, err
	}
	if sink.Err != nil {
		return nil, sink.Err
	}
	rep := &plan.ExecReport{Fingerprint: p.Fingerprint, Program: ocal.String(prog), Params: p.Params,
		OutRows: sink.RowsWritten, VirtualSeconds: sim.Clock.Seconds(), Devices: map[string]plan.DeviceReport{},
		Pool: prg.Pool().Stats(), ExecWorkers: prg.Workers(), PredictedSeconds: p.Seconds}
	if prg.Scalar {
		rep.Result = prg.Result.String()
		rep.OutDigest = digestString(rep.Result)
	} else {
		rep.OutDigest = digest.hex()
	}
	st := &dr.storage
	st.virtual += rep.VirtualSeconds
	for name, d := range sim.Devices {
		rep.Devices[name] = plan.DeviceReport{ReadInits: d.Led.ReadInits, WriteInits: d.Led.WriteInits,
			BytesRead: d.Led.BytesRead, BytesWrite: d.Led.BytesWrite}
		st.readInits += d.Led.ReadInits
		st.writeInits += d.Led.WriteInits
		st.bytesRead += d.Led.BytesRead
		st.bytesWrite += d.Led.BytesWrite
	}
	st.evictions += rep.Pool.Evictions
	st.spillBytes += rep.Pool.SpillBytes
	dr.rowsOut += rep.OutRows
	return rep, nil
}

// ingest replays one POST /tables/{name}/rows.
func (dr *driver) ingest(table string, body []byte) error {
	root := dr.rec.start("request")
	defer dr.rec.end(root)
	var req struct {
		Rows [][]int64 `json:"rows"`
	}
	var flat []int32
	var err error
	dr.rec.call("service.decode", func() {
		if err = decodeStrict(body, &req); err != nil {
			return
		}
		flat = make([]int32, 0, len(req.Rows)*2)
		for _, row := range req.Rows {
			for _, v := range row {
				flat = append(flat, int32(v))
			}
		}
	})
	if err != nil {
		return err
	}
	dr.rec.call("catalog.append", func() { _, err = dr.cat.Append(table, flat) })
	return err
}

// ramBytes and outBlock repeat the executor's sizing rules: the RAM
// level's size (else the root's), and the largest output block parameter
// (ko* from apply-block-out, bout* from the merging treeFold).
func ramBytes(h *memory.Hierarchy) int64 {
	if n := h.Node("ram"); n != nil {
		return n.Size
	}
	return h.Root.Size
}

func outBlock(params map[string]int64) int64 {
	best := int64(1)
	for name, v := range params {
		if (strings.HasPrefix(name, "ko") || strings.HasPrefix(name, "bout")) && v > best {
			best = v
		}
	}
	return best
}
