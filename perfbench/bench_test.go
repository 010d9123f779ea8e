package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"testing"
)

func testCorpus(t *testing.T) []*entry {
	t.Helper()
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 21 {
		t.Fatalf("corpus has %d requests, want 21 (6 examples + 15 Table 1 rows)", len(c))
	}
	return c
}

// streamDigest renders the first n requests of each workload's stream for
// a seed, with the planned class shares.
func streamDigest(t *testing.T, seed int64, n int) (string, map[string]int) {
	t.Helper()
	corpus := testCorpus(t)
	var b bytes.Buffer
	shares := map[string]int{}
	s := newSynthStream(seed, corpus)
	for _, r := range s.warmups() {
		fmt.Fprintf(&b, "warm %s\n", r.body)
	}
	for i := 0; i < n; i++ {
		r, _ := s.next()
		shares[r.class]++
		fmt.Fprintf(&b, "synth %s %s\n", r.class, r.body)
	}
	e := newExecStream(seed, corpus)
	for i := 0; i < n; i++ {
		r, _ := e.next()
		fmt.Fprintf(&b, "exec %s\n", r.body)
	}
	for _, q := range durableQueries(seed) {
		fmt.Fprintf(&b, "query %s %d\n", q.name, q.seed)
	}
	fmt.Fprintf(&b, "batch %v\n", batchRows(seed, 7)[:16])
	return b.String(), shares
}

func TestSameSeedSameStream(t *testing.T) {
	a, sa := streamDigest(t, 5, 600)
	b, sb := streamDigest(t, 5, 600)
	if a != b {
		t.Fatal("the same seed generated two different request streams")
	}
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Fatalf("class shares differ: %v vs %v", sa, sb)
	}
	// Rounds are stratified: every round plans synthRound[class] requests
	// of each class per corpus entry.
	per := 0
	for _, c := range synthClasses {
		per += synthRound[c]
	}
	_, shares := streamDigest(t, 5, per*len(testCorpus(t)))
	for _, c := range synthClasses {
		if want := synthRound[c] * len(testCorpus(t)); shares[c] != want {
			t.Errorf("class %s: %d planned in one round, want %d", c, shares[c], want)
		}
	}
}

func TestOtherSeedOtherStream(t *testing.T) {
	a, _ := streamDigest(t, 5, 200)
	b, _ := streamDigest(t, 6, 200)
	if a == b {
		t.Fatal("seeds 5 and 6 generated the same request stream")
	}
}

// TestSynthOrdering: every synth-mix request waits only on earlier ones,
// so the closed loop cannot deadlock, and a template request follows the
// cold request of its own entry that captured its template, at its RAM.
func TestSynthOrdering(t *testing.T) {
	s := newSynthStream(5, testCorpus(t))
	s.warmups()
	for i := 0; i < 3000; i++ {
		r, _ := s.next()
		for _, a := range r.after {
			if a.idx >= r.idx {
				t.Fatalf("request %d waits on request %d, not earlier", r.idx, a.idx)
			}
		}
		if r.class != classTemplate || len(r.after) == 0 {
			continue
		}
		c := r.after[0]
		if len(r.after) != 1 || c.class != classCold || c.entry != r.entry || c.req.RAM != r.req.RAM {
			t.Fatalf("template request %d (%s, RAM %d) follows %d (%s %s, RAM %d)",
				r.idx, r.entry.Name, r.req.RAM, c.idx, c.class, c.entry.Name, c.req.RAM)
		}
	}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayerNames()...) {
		if !metricNameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, metricNameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestNamesMatchBenchmarkFile: BENCHMARK.json lists exactly the workloads
// this program runs and the metrics it reports, with the same units.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmark(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got map[string]string, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s (%s): BENCHMARK.json has unit %q", kind, d.name, d.unit, u)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	check("end_to_end", e2e, endToEnd)
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", layer, perLayerNames())
}

// TestIssueNames pins the workload and metric names other changes refer
// to: the three workloads, the request-class metrics and the layer metrics.
func TestIssueNames(t *testing.T) {
	for _, w := range []string{"synth-mix", "exec-generated", "durable-mixed"} {
		if _, ok := workloads[w]; !ok {
			t.Errorf("workload %s missing", w)
		}
	}
	have := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayerNames()...) {
		have[m.name] = true
	}
	for _, n := range []string{
		"setup_s", "peak_rss_mb", "failed_ratio",
		"synth_miss_p50_ms", "synth_miss_p90_ms", "synth_template_p50_ms", "synth_template_p90_ms",
		"synth_hit_p50_ms", "synth_hit_p90_ms", "synth_req_per_s",
		"exec_p50_ms", "exec_p90_ms", "exec_rows_per_s",
		"ingest_rows_per_s", "durable_p50_ms", "durable_p90_ms",
		"service.decode_ms", "service.encode_ms", "service.overhead_ms", "ocal.parse_ms",
		"plan.compile_ms", "plancache.resolve_ms", "plancache.hit_ratio", "plancache.template_ratio",
		"plancache.guard_rejects", "core.synth_ms", "core.search_space", "core.ms_per_program",
		"core.instantiate_ms", "workload.gen_ms", "workload.rows", "exec.lower_ms", "exec.run_ms",
		"exec.rows_out", "storage.virtual_s", "storage.bytes_read", "storage.bytes_written",
		"storage.read_inits", "storage.write_inits", "storage.pool_evictions", "storage.spill_bytes",
		"catalog.append_p50_ms", "catalog.append_max_ms", "catalog.flushes",
		"catalog.bytes_per_user_byte", "catalog.open_ms", "trace.coverage", "trace.overhead_ratio",
		"exec.run_ms.example-groupby",
	} {
		if !have[n] {
			t.Errorf("metric %s missing", n)
		}
	}
}

func TestRAMEdit(t *testing.T) {
	for _, e := range testCorpus(t) {
		ram := ramOf(e.Req)
		if ram <= 0 {
			t.Fatalf("%s: no RAM size", e.Name)
		}
		r, err := setRAM(clone(e.Req), ram+8)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got := ramOf(r); got != ram+8 {
			t.Errorf("%s: RAM %d after setting %d", e.Name, got, ram+8)
		}
		if ramOf(e.Req) != ram {
			t.Errorf("%s: editing a clone changed the corpus", e.Name)
		}
	}
}

func TestBagDigestOrderIndependent(t *testing.T) {
	var a, b bagDigest
	rows := [][]int32{{1, 2}, {3, 4}, {1, 2}, {5}}
	for _, r := range rows {
		a.add(r)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		b.add(rows[i])
	}
	if a.hex() != b.hex() {
		t.Error("digest depends on row order")
	}
	var c bagDigest
	for _, r := range rows[:3] {
		c.add(r)
	}
	if c.hex() == a.hex() {
		t.Error("digest ignores a row")
	}
}
