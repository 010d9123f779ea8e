package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value (0: a single measurement).
	n int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// all holds every measured value, printed before the JSON line.
	all map[string]metric
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailOK reports whether n samples support the p-quantile with at least
// ten samples beyond it.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// report prints every metric as "name value unit (n=samples)", sorted by
// name, and then the result object as the last line.
func (r *result) report(w io.Writer) error {
	names := make([]string, 0, len(r.all))
	for n := range r.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.all[n]
		if m.n > 0 {
			fmt.Fprintf(w, "%-36s %14.6g %-10s (n=%d)\n", n, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
