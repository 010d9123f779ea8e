package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ocas/internal/plan"
	"ocas/internal/plancache"
)

// synth-mix: POST /synthesize over the corpus. Every round holds, for each
// corpus entry, synthRound[class] requests of each planned class, in a
// seeded order:
//
//   - cold: a RAM size the entry has not used before, so the plan is new
//     and the cached template's hierarchy guard rejects it (full search);
//   - template: the RAM of the entry's current template with input sizes
//     not used before at that RAM (template instantiation); where entries
//     share a template slot, the entry that captured it last;
//   - hit: an exact repeat of one of the last hitWindow distinct requests,
//     which the default plan cache (1024 plans) still holds.
//
// A template request is sent only once the cold request that captured its
// template has been answered, a cold request only once the capture and
// template requests of the template it replaces have been, and a hit only
// once the request it repeats has, so a correct ocasd serves every request
// as planned. The class a request really met is read from X-Ocas-Cache;
// the latency metrics time the planned template requests of the join
// shapes whatever served them, and a check fails when the served class
// departs from the plan.
var synthRound = map[string]int{classCold: 1, classTemplate: 2, classHit: 1}

const (
	classCold     = "cold"
	classTemplate = "template"
	classHit      = "hit"
	hitWindow     = 256
	// minAsPlanned is the least share of each planned class that
	// X-Ocas-Cache must report as that class.
	minAsPlanned = 0.99
)

var synthClasses = []string{classCold, classTemplate, classHit}

// synthReq is one generated /synthesize request.
type synthReq struct {
	idx   int
	entry *entry
	class string // planned class
	key   [32]byte
	req   plan.Request
	body  []byte
	// after lists the requests this one must follow: for a template
	// request the cold request that captured its template (none: set-up
	// did), for a cold request the capture and template requests of the
	// template it replaces, for a hit the request it repeats. The load
	// sends it only once done of each of them is closed.
	after []*synthReq
	done  chan struct{}
}

type shapeState struct {
	seenRAM  map[int64]bool
	seenRows map[string]bool // "ram/rows..." already requested
	tmpl     *tmplState
}

// tmplState follows one slot of ocasd's template tier. Entries whose
// requests share a template fingerprint (three of the corpus's equi-joins)
// share the slot: each capture replaces the last one, and only the entry
// that captured it, at its RAM, can instantiate it.
type tmplState struct {
	holder  *entry
	ram     int64
	capture []*synthReq // the cold request that captured it (none: a warm-up)
	uses    []*synthReq // template requests planned on it
}

// synthStream generates the synth-mix request stream; the same seed gives
// the same stream.
type synthStream struct {
	rng    *rand.Rand
	corpus []*entry
	shape  map[string]*shapeState
	ring   []*synthReq // last hitWindow distinct requests
	round  []*synthReq // planned slots of the current round (entry, class)
	pos    int
	n      int
}

func newSynthStream(seed int64, corpus []*entry) *synthStream {
	s := &synthStream{rng: rand.New(rand.NewSource(seed*7 + 1)), corpus: corpus,
		shape: map[string]*shapeState{}}
	slots := map[string]*tmplState{}
	for _, e := range corpus {
		c, err := plan.Compile(clone(e.Req))
		if err != nil {
			panic(err) // the corpus is embedded and compiles
		}
		if slots[c.TemplateFingerprint] == nil {
			slots[c.TemplateFingerprint] = &tmplState{}
		}
		s.shape[e.Name] = &shapeState{seenRAM: map[int64]bool{}, seenRows: map[string]bool{},
			tmpl: slots[c.TemplateFingerprint]}
	}
	return s
}

// warmups returns one request per corpus entry at its own sizes: the
// set-up traffic that seeds each shape's template.
func (s *synthStream) warmups() []*synthReq {
	var out []*synthReq
	for _, e := range s.corpus {
		st := s.shape[e.Name]
		ram := ramOf(e.Req)
		st.seenRAM[ram] = true
		st.tmpl.holder, st.tmpl.ram = e, ram
		r := s.emit(e, classCold, clone(e.Req), ram)
		close(r.done) // answered in set-up, before any timed request
		out = append(out, r)
	}
	return out
}

// next returns the next request of the stream; atRoundEnd reports whether
// it is the last of its round.
func (s *synthStream) next() (r *synthReq, atRoundEnd bool) {
	if s.pos == len(s.round) {
		s.newRound()
	}
	slot := s.round[s.pos]
	s.pos++
	switch slot.class {
	case classHit:
		if len(s.ring) > 0 {
			prev := s.ring[s.rng.Intn(len(s.ring))]
			r = &synthReq{idx: s.n, entry: prev.entry, class: classHit, key: prev.key, req: prev.req, body: prev.body,
				after: []*synthReq{prev}, done: make(chan struct{})}
			s.n++
			return r, s.pos == len(s.round)
		}
		fallthrough // nothing to repeat yet: plan a template request
	case classTemplate:
		r = s.template(slot.entry)
	default:
		r = s.cold(slot.entry)
	}
	return r, s.pos == len(s.round)
}

func (s *synthStream) newRound() {
	s.round = s.round[:0]
	for _, e := range s.corpus {
		for _, c := range synthClasses {
			for i := 0; i < synthRound[c]; i++ {
				s.round = append(s.round, &synthReq{entry: e, class: c})
			}
		}
	}
	s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	s.pos = 0
}

func (s *synthStream) cold(e *entry) *synthReq {
	st := s.shape[e.Name]
	base := ramOf(e.Req)
	// A RAM size in [3/4, 3/2] of the entry's own, on an 8-byte grid; once
	// draws keep colliding, the first unused size above the range.
	var ram int64
	for try := 0; ; try++ {
		ram = (base*3/4 + s.rng.Int63n(base*3/4+1)) / 8 * 8
		if try >= 64 {
			for ram = base * 3 / 2 / 8 * 8; st.seenRAM[ram]; ram += 8 {
			}
		}
		if ram > 0 && !st.seenRAM[ram] {
			break
		}
	}
	st.seenRAM[ram] = true
	r := s.emit(e, classCold, clone(e.Req), ram)
	r.after = append(append([]*synthReq(nil), st.tmpl.capture...), st.tmpl.uses...)
	*st.tmpl = tmplState{holder: e, ram: ram, capture: []*synthReq{r}}
	return r
}

// template plans a request the template in e's slot serves: the slot's
// holder (e itself unless a shape sharing the slot captured it last) at the
// holder's RAM, with input sizes not used before at that RAM.
func (s *synthStream) template(e *entry) *synthReq {
	ts := s.shape[e.Name].tmpl
	e = ts.holder
	st := s.shape[e.Name]
	for {
		req := clone(e.Req)
		sig := fmt.Sprint(ts.ram)
		for _, name := range inputNames(req) {
			in := req.Inputs[name]
			in.Rows = in.Rows/2 + s.rng.Int63n(in.Rows*3/2+1)
			if in.Rows < 1 {
				in.Rows = 1
			}
			req.Inputs[name] = in
			sig += fmt.Sprintf("/%d", in.Rows)
		}
		if !st.seenRows[sig] {
			st.seenRows[sig] = true
			r := s.emit(e, classTemplate, req, ts.ram)
			r.after = ts.capture
			ts.uses = append(ts.uses, r)
			return r
		}
	}
}

// emit finalizes a new distinct request and remembers it for hits.
func (s *synthStream) emit(e *entry, class string, req plan.Request, ram int64) *synthReq {
	req, err := setRAM(req, ram)
	if err != nil {
		panic(err) // the corpus is embedded: every entry has a RAM level
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	st := s.shape[e.Name]
	st.seenRows[fmt.Sprint(ram)+rowsSig(req)] = true
	r := &synthReq{idx: s.n, entry: e, class: class, key: sha256.Sum256(body), req: req, body: body,
		done: make(chan struct{})}
	s.n++
	s.ring = append(s.ring, r)
	if len(s.ring) > hitWindow {
		s.ring = s.ring[1:]
	}
	return r
}

func rowsSig(r plan.Request) string {
	sig := ""
	for _, name := range inputNames(r) {
		sig += fmt.Sprintf("/%d", r.Inputs[name].Rows)
	}
	return sig
}

// synthResult is one served /synthesize request.
type synthResult struct {
	r     *synthReq
	class string // X-Ocas-Cache
	ms    float64
	rep   reply
}

// runSynthLoad drives the stream over HTTP with the closed-loop clients
// until the deadline, finishing the round in progress. A request waits,
// untimed, for the one it must follow; that one is earlier in the stream,
// so the clients never wait on each other in a cycle.
func runSynthLoad(ctx context.Context, d *daemon, s *synthStream, deadline time.Time) ([]synthResult, time.Duration) {
	return closedLoop(deadline, s.next, func(r *synthReq) synthResult {
		for _, a := range r.after {
			<-a.done
		}
		t0 := time.Now()
		rep := post(ctx, d.base+"/synthesize", r.body)
		close(r.done)
		return synthResult{r: r, class: rep.cache, ms: msSince(t0), rep: rep}
	})
}

// closedLoop runs the closed-loop clients: each takes the stream's next
// request and sends it, with no think time, until the deadline has passed
// at the end of a round. It returns the results and the wall time.
func closedLoop[R, S any](deadline time.Time, next func() (R, bool), send func(R) S) ([]S, time.Duration) {
	var mu sync.Mutex
	var out []S
	done := false
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if done {
					mu.Unlock()
					return
				}
				r, end := next()
				if end && time.Now().After(deadline) {
					done = true
				}
				mu.Unlock()
				res := send(r)
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// headerClass maps X-Ocas-Cache onto the synth-mix classes.
func headerClass(h string) string {
	switch h {
	case "miss":
		return classCold
	case "template-hit":
		return classTemplate
	case "hit", "shared":
		return classHit
	}
	return "failed"
}

func benchSynth(ctx context.Context, o *options, corpus []*entry) (*outcome, error) {
	s := newSynthStream(o.seed, corpus)
	warm := s.warmups()
	warmReps := make([]reply, len(warm))
	d, setupS, err := setUp(o, func(d *daemon) error {
		for i, r := range warm {
			warmReps[i] = post(ctx, d.base+"/synthesize", r.body)
			if !warmReps[i].ok() {
				return fmt.Errorf("warm %s: %v", r.entry.Name, warmReps[i])
			}
		}
		return nil
	}, noFlags)
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
	results, wall := runSynthLoad(ctx, d, s, time.Now().Add(time.Duration(o.seconds)*time.Second))

	byClass := map[string][]float64{}
	planned := map[string]int{}
	var tmplMs []float64
	asPlanned := map[string]int{}
	for _, r := range results {
		out.attempted++
		planned[r.r.class]++
		if !r.rep.ok() {
			out.failed++
			continue
		}
		c := headerClass(r.class)
		byClass[c] = append(byClass[c], r.ms)
		if c == r.r.class {
			asPlanned[c]++
		}
		if r.r.class == classTemplate && r.r.entry.Join {
			tmplMs = append(tmplMs, r.ms)
		}
	}
	// The latency metrics time the template requests the stream planned
	// for the join shapes, whatever class served them. The template tier
	// is the mechanism only this workload exercises, and the join shapes
	// are where instantiation is the request's cost: their template
	// requests take 8-26 ms, those of the other shapes under 1 ms, so a
	// median over both would sit in the gap between them. Cold searches,
	// hits and the other shapes' template requests are load whose cost
	// shows in req_per_s and cpu_ms_per_req (and in the class breakdown
	// below).
	if err := out.measure(d, tmplMs, wall, cpu0); err != nil {
		d.kill()
		return nil, err
	}
	// The stream plans each class so that a correct ocasd serves it as
	// planned (a template request goes out after its capture), so only a
	// plan-cache or template-tier defect serves many otherwise.
	for _, c := range synthClasses {
		if share := float64(asPlanned[c]) / float64(max(planned[c], 1)); planned[c] == 0 || share < minAsPlanned {
			out.failf("synth-mix: %d of %d requests planned as %s were served as %s (want a share of at least %.2f)",
				asPlanned[c], planned[c], c, c, minAsPlanned)
		}
	}
	out.timing("synth_miss", byClass[classCold])
	out.timing("synth_template", byClass[classTemplate])
	out.timing("synth_hit", byClass[classHit])
	out.set("synth_req_per_s", "1/s", float64(len(results))/wall.Seconds(), len(results))
	out.set("failed_ratio", "ratio", float64(out.failed)/float64(max(out.attempted, 1)), int(out.attempted))
	for _, c := range synthClasses {
		out.share("share.planned."+c, planned[c], len(results))
		out.share("share.served."+c, len(byClass[c]), len(results))
	}

	checkSynth(o, warm, warmReps, results, out)
	if err := d.stop(); err != nil {
		out.failf("ocasd shutdown: %v", err)
	}
	if o.trace {
		if err := traceSynth(ctx, o, warm, results, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSynth: every response for one request is byte-identical, whatever
// class served it, and a seeded sample equals ocas -json for the request.
func checkSynth(o *options, warm []*synthReq, warmReps []reply, results []synthResult, out *outcome) {
	first := map[[32]byte][32]byte{}
	bodies := map[[32]byte]*synthResult{}
	see := func(r *synthReq, rep reply) {
		sum := sha256.Sum256(rep.body)
		if prev, ok := first[r.key]; ok && prev != sum {
			out.failf("synth-mix: request %d (%s) got different plan bytes than an earlier response for the same request", r.idx, r.entry.Name)
		}
		first[r.key] = sum
	}
	for i, r := range warm {
		see(r, warmReps[i])
	}
	var distinct []*synthResult
	for i := range results {
		r := &results[i]
		if !r.rep.ok() {
			continue
		}
		see(r.r, r.rep)
		if _, ok := bodies[r.r.key]; !ok {
			bodies[r.r.key] = r
			distinct = append(distinct, r)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].r.idx < distinct[j].r.idx })
	rng := rand.New(rand.NewSource(o.seed*7 + 5))
	for k := 0; k < 3 && len(distinct) > 0; k++ {
		r := distinct[rng.Intn(len(distinct))]
		want, err := ocasJSON(o, r.r.req)
		if err != nil {
			out.failf("synth-mix: ocas -json for request %d: %v", r.r.idx, err)
			continue
		}
		if !bytes.Equal(want, r.rep.body) {
			out.failf("synth-mix: request %d (%s): ocasd bytes differ from ocas -json", r.r.idx, r.r.entry.Name)
		}
	}
}

// ocasJSON runs the ocas CLI on a request and returns its -json output.
func ocasJSON(o *options, req plan.Request) ([]byte, error) {
	dir, err := os.MkdirTemp(o.work, "ocas-json-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prog := filepath.Join(dir, "prog.ocal")
	if err := os.WriteFile(prog, []byte(req.Program), 0o644); err != nil {
		return nil, err
	}
	req = clone(req) // Normalize fills in arities in place
	req.Normalize()
	args := []string{"-json", "-prog", prog, "-depth", fmt.Sprint(req.Depth), "-space", fmt.Sprint(req.Space),
		fmt.Sprintf("-commutative=%v", *req.Commutative), "-strategy", req.Strategy}
	if req.Hierarchy != nil {
		hier := filepath.Join(dir, "hier.json")
		if err := os.WriteFile(hier, req.Hierarchy, 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-hier", hier)
	} else {
		args = append(args, "-hier", req.Hier, "-ram", fmt.Sprint(req.RAM))
	}
	var ins []string
	for _, name := range inputNames(req) {
		in := req.Inputs[name]
		ins = append(ins, fmt.Sprintf("%s=%s:%d:%d", name, in.Node, in.Rows, in.Arity))
	}
	args = append(args, "-in", strings.Join(ins, ","))
	if req.Output != "" {
		args = append(args, "-out", req.Output)
	}
	cmd := exec.Command(o.ocas, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, oneLine(stderr.Bytes()))
	}
	return b, nil
}

// traceSynth replays the served stream through the driver, traced and then
// untraced, and derives the per-layer metrics.
func traceSynth(ctx context.Context, o *options, warm []*synthReq, results []synthResult, out *outcome) error {
	served := make([]synthResult, 0, len(results))
	for _, r := range results {
		if r.rep.ok() {
			served = append(served, r)
		}
	}
	sort.Slice(served, func(i, j int) bool { return served[i].r.idx < served[j].r.idx })
	budget := o.replayBudget()
	replay := func(traced bool, limit int) (*driver, int, time.Duration, map[int]plancache.Outcome, error) {
		dr := newDriver(ctx, false, nil)
		for _, r := range warm {
			if _, _, err := dr.synthesize(r.body); err != nil {
				return nil, 0, 0, nil, fmt.Errorf("driver warm-up %s: %w", r.entry.Name, err)
			}
		}
		dr.warmed(traced)
		outs := map[int]plancache.Outcome{}
		t0 := time.Now()
		n := 0
		for ; n < limit && (limit < len(served) || time.Since(t0) < budget); n++ {
			r := served[n]
			dr.rec.req = r.r.idx
			b, oc, err := dr.synthesize(r.r.body)
			if err != nil {
				return nil, 0, 0, nil, fmt.Errorf("driver request %d: %w", r.r.idx, err)
			}
			if traced && !bytes.Equal(b, r.rep.body) {
				out.failf("trace: driver plan bytes for request %d (%s) differ from the HTTP response", r.r.idx, r.r.entry.Name)
			}
			outs[r.r.idx] = oc
		}
		return dr, n, time.Since(t0), outs, nil
	}
	dr, n, tracedWall, outs, err := replay(true, len(served))
	if err != nil {
		return err
	}
	_, _, plainWall, _, err := replay(false, n)
	if err != nil {
		return err
	}
	lt := dr.rec.layers()
	// Hits served as hits on both paths, timed both ways.
	var httpMs, hitMs []float64
	for _, r := range served[:n] {
		if headerClass(r.class) == classHit && outs[r.r.idx] == plancache.Hit {
			httpMs = append(httpMs, r.ms)
			hitMs = append(hitMs, lt.roots[r.r.idx])
		}
	}
	out.set("service.overhead_ms", "ms", median(httpMs)-median(hitMs), len(hitMs))
	layerMetrics(out, dr, lt, n, tracedWall, plainWall)
	return dr.rec.writeJSONL(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed)))
}
