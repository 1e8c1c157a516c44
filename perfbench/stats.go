package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise, not a measurement.
const minTail = 10

// tailSupported reports whether n samples support the p-th percentile
// (0 < p < 100) under the nearest-rank rule: at least minTail samples
// must rank strictly above it.
func tailSupported(n int, p float64) bool {
	return n-rank(n, p) >= minTail
}

// minSamples is the smallest sample count that supports percentile p.
func minSamples(p float64) int {
	n := 1
	for !tailSupported(n, p) {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank index of percentile p among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle value of xs, averaging the two middle values of
// an even-length sample (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts attempted and failed ops. A failed output check counts
// as a failed op exactly like an error does. Safe for concurrent use:
// the served workload's two clients share one tally.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// maxReportedErrs bounds how many failures are echoed to standard
// error; the count keeps going.
const maxReportedErrs = 5

// record counts one attempted op; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= maxReportedErrs {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
	}
}

// counts returns the attempted and failed totals.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered-by-name set of reported figures.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
