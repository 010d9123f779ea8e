// Command perfbench is the end-to-end benchmark of ocasd. It starts the
// ocasd binary built from the tree under test with default flags, drives it
// over loopback HTTP with a closed loop of two clients for one seeded
// workload, checks the responses, and prints its metrics. With -trace 1 it
// then replays the same request stream through the layers' Go functions,
// timing each call, and prints the per-layer metrics instead.
//
// It is meant to be run through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload synth-mix --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics; the lines before it list every measured
// value with its unit and sample count. A failed correctness check makes
// the exit code non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	// clients is the closed loop's client count (no think time).
	clients = 2
	// setUps is how many times a run starts and prepares ocasd; setup_s is
	// the median.
	setUps = 11
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ocasd    string
	ocas     string
	work     string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *options, []*entry) (*outcome, error){
	"synth-mix":      benchSynth,
	"exec-generated": benchExec,
	"durable-mixed":  benchDurable,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: synth-mix, exec-generated or durable-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: request streams, sizes and exec seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: also replay the stream through the layers' Go functions and report per-layer metrics")
	flag.StringVar(&o.ocasd, "ocasd", "", "ocasd binary")
	flag.StringVar(&o.ocas, "ocas", "", "ocas binary (for the ocas -json check)")
	flag.StringVar(&o.work, "work", "", "scratch directory for logs, catalogs and traces (emptied first)")
	flag.Parse()
	o.trace = trace == 1
	bench, ok := workloads[o.workload]
	if !ok || o.ocasd == "" || o.ocas == "" || o.work == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (synth-mix, exec-generated or durable-mixed), -ocasd, -ocas and -work")
		flag.Usage()
		return 2
	}
	if err := os.RemoveAll(o.work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	corpus, err := loadCorpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := bench(context.Background(), &o, corpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := out.result(o.trace)
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if err := res.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome collects one run: the measured values, request counts and
// correctness-check failures.
type outcome struct {
	values    map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newOutcome() *outcome { return &outcome{values: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64, n int) {
	o.values[name] = metric{Value: v, Unit: unit, n: n}
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// result prints every measured value; the JSON object carries the
// end-to-end metrics (trace off) or the per-layer metrics (trace on).
func (o *outcome) result(trace bool) *result {
	names := endToEnd
	if trace {
		names = perLayerNames()
	}
	r := &result{Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := o.values[n.name]
		if !ok {
			m = metric{Unit: n.unit}
		}
		r.Metrics[n.name] = m
	}
	r.all = o.values
	return r
}

// setUp starts and prepares ocasd setUps times (each from scratch, each
// stopped but the last) and returns the last daemon with the median set-up
// time: launch to the moment the first timed request can go out.
func setUp(o *options, prepare func(d *daemon) error, extra func(i int) []string) (*daemon, float64, error) {
	var times []float64
	n := setUps
	if o.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d, err := startDaemon(o.ocasd, filepath.Join(o.work, fmt.Sprintf("ocasd-%d.log", i)), extra(i)...)
		if err != nil {
			return nil, 0, err
		}
		if err := prepare(d); err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return d, median(times), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
	panic("unreachable")
}

func noFlags(int) []string { return nil }

// replayBudget bounds the traced replay; the untraced replay then repeats
// the same requests, so a traced run adds about twice this.
func (o *options) replayBudget() time.Duration {
	return time.Duration(o.seconds) * time.Second / 2
}

// timing summarizes latencies as the median plus the p90, warning when
// fewer than ten samples lie beyond the p90.
func (o *outcome) timing(prefix string, ms []float64) {
	o.set(prefix+"_p50_ms", "ms", median(ms), len(ms))
	o.set(prefix+"_p90_ms", "ms", quantile(ms, 0.9), len(ms))
	if !tailOK(len(ms), 0.9) {
		fmt.Fprintf(os.Stderr, "perfbench: %s_p90_ms rests on %d samples, fewer than 10 beyond it\n", prefix, len(ms))
	}
}

func oneLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 300 {
		s = s[:300] + "..."
	}
	return s
}
