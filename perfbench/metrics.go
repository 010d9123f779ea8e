package main

import (
	"time"

	"ocas/internal/plancache"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports from its timed phase
// (tracing off). p50_ms and p90_ms time the workload's latency-measured
// requests: template-served /synthesize on synth-mix, /execute on
// exec-generated, the query client's /execute on durable-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"req_per_s", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// classMetrics break the timed phase down by request class; a workload
// reports the ones of its own classes.
var classMetrics = []metricDef{
	{"synth_miss_p50_ms", "ms"}, {"synth_miss_p90_ms", "ms"},
	{"synth_template_p50_ms", "ms"}, {"synth_template_p90_ms", "ms"},
	{"synth_hit_p50_ms", "ms"}, {"synth_hit_p90_ms", "ms"},
	{"synth_req_per_s", "1/s"},
	{"exec_p50_ms", "ms"}, {"exec_p90_ms", "ms"}, {"exec_rows_per_s", "rows/s"},
	{"ingest_rows_per_s", "rows/s"},
	{"durable_p50_ms", "ms"}, {"durable_p90_ms", "ms"},
	{"failed_ratio", "ratio"},
}

// layerMetricDefs come from the traced replay.
var layerMetricDefs = []metricDef{
	{"service.decode_ms", "ms"}, {"service.encode_ms", "ms"}, {"service.overhead_ms", "ms"},
	{"ocal.parse_ms", "ms"},
	{"plan.compile_ms", "ms"},
	{"plancache.resolve_ms", "ms"}, {"plancache.hit_ratio", "ratio"},
	{"plancache.template_ratio", "ratio"}, {"plancache.guard_rejects", "count"},
	{"core.synth_ms", "ms"}, {"core.search_space", "count"}, {"core.ms_per_program", "ms"},
	{"core.instantiate_ms", "ms"},
	{"workload.gen_ms", "ms"}, {"workload.rows", "count"},
	{"exec.bind_ms", "ms"}, {"exec.lower_ms", "ms"}, {"exec.run_ms", "ms"}, {"exec.rows_out", "count"},
	{"storage.virtual_s", "s"}, {"storage.bytes_read", "B"}, {"storage.bytes_written", "B"},
	{"storage.read_inits", "count"}, {"storage.write_inits", "count"},
	{"storage.pool_evictions", "count"}, {"storage.spill_bytes", "B"},
	{"catalog.append_p50_ms", "ms"}, {"catalog.append_max_ms", "ms"}, {"catalog.flushes", "count"},
	{"catalog.bytes_per_user_byte", "ratio"}, {"catalog.open_ms", "ms"},
	{"trace.coverage", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

// perLayerNames is everything a traced run reports: the class breakdown,
// the layer metrics, and exec.run_ms per corpus query.
func perLayerNames() []metricDef {
	out := append(append([]metricDef(nil), classMetrics...), layerMetricDefs...)
	files, err := corpusFS.ReadDir("corpus")
	if err != nil {
		panic(err) // embedded at build time
	}
	for _, f := range files {
		name := f.Name()[:len(f.Name())-len(".json")]
		out = append(out, metricDef{"exec.run_ms." + name, "ms"})
	}
	return out
}

// measure records the metrics every workload reports from its timed
// phase, once attempted and failed count its requests: latency of the
// latency-measured requests, successful requests per second over all
// clients, ocasd CPU per successful request and peak memory. A failed
// timed request fails the run, so that shedding load cannot pass for
// speed.
func (o *outcome) measure(d *daemon, ms []float64, wall time.Duration, cpu0 float64) error {
	if o.failed > 0 {
		o.failf("%d of %d timed requests failed (non-2xx or transport error)", o.failed, o.attempted)
	}
	if len(ms) == 0 {
		o.failf("no latency-measured request completed")
	}
	requests := int(o.attempted - o.failed)
	o.set("p50_ms", "ms", median(ms), len(ms))
	o.set("p90_ms", "ms", quantile(ms, 0.9), len(ms))
	o.set("req_per_s", "1/s", float64(requests)/wall.Seconds(), requests)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	o.set("cpu_ms_per_req", "ms", (cpu1-cpu0)*1000/float64(max(requests, 1)), requests)
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", "MB", rss, 0)
	return nil
}

func (o *outcome) share(name string, part, whole int) {
	o.set(name, "ratio", float64(part)/float64(max(whole, 1)), whole)
}

// layerMetrics fills the per-layer metrics shared by every traced run.
func layerMetrics(out *outcome, dr *driver, lt *layerTimes, n int, tracedWall, plainWall time.Duration) {
	ms := func(name, span string) {
		out.set(name, "ms", lt.meanMs(span), lt.calls[span])
	}
	ms("service.decode_ms", "service.decode")
	ms("service.encode_ms", "service.encode")
	ms("ocal.parse_ms", "ocal.parse")
	ms("plan.compile_ms", "plan.compile")
	ms("plancache.resolve_ms", "plancache.resolve")
	total := 0
	for _, c := range dr.outcomes {
		total += c
	}
	out.share("plancache.hit_ratio", dr.outcomes[plancache.Hit], total)
	out.share("plancache.template_ratio", dr.outcomes[plancache.TemplateHit], total)
	out.set("plancache.guard_rejects", "count", float64(dr.store.Stats().GuardRejects-dr.warmRejects), n)
	ms("core.synth_ms", "core.synth")
	out.set("core.search_space", "count", float64(dr.searchSpace), lt.calls["core.synth"])
	perProg := 0.0
	if dr.searchSpace > 0 {
		perProg = dr.synthMs / float64(dr.searchSpace)
	}
	out.set("core.ms_per_program", "ms", perProg, int(dr.searchSpace))
	ms("core.instantiate_ms", "core.instantiate")
	ms("workload.gen_ms", "workload.gen")
	out.set("workload.rows", "count", float64(dr.rowsGen), lt.calls["workload.gen"])
	ms("exec.bind_ms", "exec.bind")
	ms("exec.lower_ms", "exec.lower")
	ms("exec.run_ms", "exec.run")
	out.set("exec.rows_out", "count", float64(dr.rowsOut), lt.calls["exec.run"])
	for q, runs := range dr.runByQuery {
		out.set("exec.run_ms."+q, "ms", mean(runs), len(runs))
	}
	st := dr.storage
	out.set("storage.virtual_s", "s", st.virtual, lt.calls["exec.run"])
	out.set("storage.bytes_read", "B", float64(st.bytesRead), lt.calls["exec.run"])
	out.set("storage.bytes_written", "B", float64(st.bytesWrite), lt.calls["exec.run"])
	out.set("storage.read_inits", "count", float64(st.readInits), lt.calls["exec.run"])
	out.set("storage.write_inits", "count", float64(st.writeInits), lt.calls["exec.run"])
	out.set("storage.pool_evictions", "count", float64(st.evictions), lt.calls["exec.run"])
	out.set("storage.spill_bytes", "B", float64(st.spillBytes), lt.calls["exec.run"])
	ms("catalog.open_ms", "catalog.open")
	appends := lt.each["catalog.append"]
	out.set("catalog.append_p50_ms", "ms", median(appends), len(appends))
	maxAppend := 0.0
	for _, a := range appends {
		maxAppend = max(maxAppend, a)
	}
	out.set("catalog.append_max_ms", "ms", maxAppend, len(appends))
	out.set("trace.coverage", "ratio", lt.coverage(), n)
	out.set("trace.overhead_ratio", "ratio", tracedWall.Seconds()/plainWall.Seconds()-1, n)
	out.set("trace.requests", "count", float64(n), 0)
	if cov := lt.coverage(); cov < 0.95 {
		out.failf("trace: layer spans cover %.3f of the replay's wall time, below 0.95", cov)
	}
}
