package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is a 2-vCPU VM whose speed drifts by
// up to 1.5x within a minute or two as its neighbours come and go. A
// canary, a fixed integer loop that touches no simulator code, reads
// that drift on each side of the timed phase, and the end-to-end
// figures are scaled by it to the reference host speed: across runs
// the canary correlates with throughput at about -0.8, and the scaling
// halves the spread of figures and campaign-smp2. Served lease request
// latency, bound by loopback wake-ups the canary does not see, is left
// unscaled (see wakeBound). A change to the program cannot move the
// canary, so a real speed-up or slow-down passes through unscaled.

// canaryRefNs is the canary's median reading on the 2-vCPU Xeon host
// the bounds in BENCHMARK.json were set on.
const canaryRefNs = 3.3

const (
	// canaryReads is how many readings are taken on each side of the
	// timed phase.
	canaryReads = 7
	canaryIters = 1 << 22
)

// canarySink keeps the canary loop's result live.
var canarySink uint64

// hostSpeed holds one run's canary readings, in nanoseconds per loop
// iteration.
type hostSpeed []float64

// read appends canaryReads readings.
func (h *hostSpeed) read() {
	for r := 0; r < canaryReads; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		t0 := time.Now()
		for i := 0; i < canaryIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xBF58476D1CE4E5B9
		}
		d := time.Since(t0)
		canarySink += x
		*h = append(*h, float64(d.Nanoseconds())/canaryIters)
	}
}

// ns is the run's canary reading: the median of its readings.
func (h hostSpeed) ns() float64 { return median(h) }

// slowdown is how much slower than the reference host this run's host
// was.
func (h hostSpeed) slowdown() float64 { return h.ns() / canaryRefNs }

// The canary cannot see contention for the vCPUs themselves: it runs
// alone, before and after the timed phase, on whichever vCPU is free.
// A workload that keeps both vCPUs busy loses whatever another task or
// the hypervisor takes from either. With one CPU-bound process beside
// the served workload the canary read unchanged while ops_per_s
// halved; the process's threads had been denied 48% of the CPU time
// they were ready for, and scaling by that brought ops_per_s to within
// 7% of its quiet value. Only time a thread was ready to run counts, so
// a change that makes the program sleep or wait on a lock is not
// scaled away.

// cpuAccount is the CPU time, in seconds, this process's threads had
// run up to one moment, and the time they were ready to run but did
// not: queued behind other tasks (schedstat run delay) or on a vCPU
// the hypervisor had taken (steal).
type cpuAccount struct{ ran, denied float64 }

// clockTicks is the unit of /proc/stat: USER_HZ, 100 on Linux.
const clockTicks = 100

// readCPUAccount reads /proc/self/task/*/schedstat and the steal column
// of /proc/stat; it reads zero where they are unavailable.
func readCPUAccount() cpuAccount {
	var a cpuAccount
	paths, _ := filepath.Glob("/proc/self/task/*/schedstat")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread has exited
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			continue
		}
		ran, err1 := strconv.ParseFloat(f[0], 64)
		delay, err2 := strconv.ParseFloat(f[1], 64)
		if err1 == nil && err2 == nil {
			a.ran += ran / 1e9
			a.denied += delay / 1e9
		}
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		// cpu user nice system idle iowait irq softirq steal ...
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if steal, err := strconv.ParseFloat(f[8], 64); err == nil {
				a.denied += steal / clockTicks
			}
		}
	}
	return a
}

// contention is how many times longer the process took between
// readings a and b than it would have if its threads had run whenever
// they were ready; 1 without readings.
func contention(a, b cpuAccount) float64 {
	ran := b.ran - a.ran
	if ran <= 0 {
		return 1
	}
	return (ran + b.denied - a.denied) / ran
}
