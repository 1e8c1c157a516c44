// Command perfbench is the repository benchmark. It drives the
// simulator through its library entry points under three closed-loop
// workloads and reports what a user waits for, end to end, and where
// the time went, layer by layer:
//
//   - figures: warm passes of the paper's Figure 3 and Figure 4 at
//     1 vCPU (figures.Lookup(id).Run under figures.RunWithCPUs).
//   - campaign-smp2: the differential attack campaign on 2-vCPU
//     machines, all four levels, parallel strikes
//     (attack.RunCampaignContext).
//   - served: the daemon's HTTP handler (server.New) on a loopback
//     listener with two camouflage/client clients, one running lease
//     sessions and one posting fig4 jobs.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end figures of BENCHMARK.json, measured untraced and, except
// for times bound by loopback wake-ups (wakeBound), scaled to a quiet
// reference host by a canary loop timed around the run and by the CPU
// time the run's threads were denied (the raw figures are on the
// context line just before); with
// --trace 1 they are the per-layer figures, taken from a traced phase
// that follows an untraced one (their throughput difference is the
// tracing overhead). Every op's output is checked; a mismatch counts
// as a failed op and the command exits 1. Traced runs write their
// spans, context and CPU profile under .bench_build/perfbench-out/.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart anchors set-up time: package initialization runs just
// after the process starts, before main.
var processStart = time.Now()

// outDir is the benchmark's own output location, relative to the
// checkout root it runs from.
const outDir = ".bench_build/perfbench-out"

// setupSamples is how many fresh processes set up per run (this one
// plus setupSamples-1 probes); setup_s is their median.
const setupSamples = 5

// maxProcs caps GOMAXPROCS so that hosts of different sizes load the
// simulator alike.
const maxProcs = 2

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	setupProbe bool
}

// workload is one traffic mix the benchmark drives.
type workload interface {
	// setup readies everything the timed ops need (pool boots and §4.1
	// verifies for every configuration used, reference outputs, the
	// daemon); it is what setup_s times.
	setup(ctx context.Context) error
	// drive runs closed-loop ops until the phase deadline.
	drive(ctx context.Context, ph *phase) error
	// exact returns the simulated statistics of one op. They must
	// repeat exactly across runs of the same seed.
	exact(ctx context.Context, ph *phase, d obsDelta) (exactCounts, error)
	// close stops everything setup started and waits for it.
	close() error
}

// phase is one timed stretch of ops and what it measured.
type phase struct {
	deadline time.Time
	// hardDeadline bounds how far past deadline a workload may run to
	// collect the samples a tail percentile needs.
	hardDeadline time.Time
	rec          *recorder
	tally        *tally

	elapsed time.Duration
	ops     int
	// opMs are the latencies of the workload's op (a pass, a strike, a
	// lease-session request); jobMs of its longest unit of submitted
	// work (a pass, a campaign, a fig4 job).
	opMs, jobMs []float64
	// clientSeconds sums the served workload's client-observed request
	// times.
	clientSeconds float64
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer figures from a traced phase")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "set up once, print the set-up seconds and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !slices.Contains(workloadNames(), o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout io.Writer) (int, error) {
	o, err := parseOptions(args)
	if err != nil {
		return 2, err
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	ctx := context.Background()

	setupBefore := captureObs()
	w := newWorkload(o)
	if err := w.setup(ctx); err != nil {
		_ = w.close()
		return 1, fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(processStart).Seconds()
	setupDelta := captureObs().since(setupBefore)
	if o.setupProbe {
		fmt.Fprintln(stdout, strconv.FormatFloat(setupS, 'g', -1, 64))
		return 0, w.close()
	}

	var host hostSpeed
	host.read()
	acct0 := readCPUAccount()
	tal := &tally{}
	seconds := time.Duration(o.seconds) * time.Second
	m := metrics{}
	var untraced *phase
	var tr traced
	if !o.trace {
		untraced = newPhase(seconds, nil, tal)
		err = w.drive(ctx, untraced)
	} else {
		// The untraced half only supplies ops_per_s, so it never runs
		// long to collect tail samples.
		untraced = newPhase(seconds/2, nil, tal)
		untraced.hardDeadline = untraced.deadline
		if err = w.drive(ctx, untraced); err == nil {
			tr, err = tracedPhase(ctx, w, o, seconds-seconds/2, tal)
		}
	}
	acct1 := readCPUAccount()
	host.read()
	rss := peakRSSMB()
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 1, err
	}

	attempted, failed := tal.counts()
	ctxInfo := runContext(o, host)
	cont := contention(acct0, acct1)
	ctxInfo["contention"] = cont
	if !o.trace {
		setups, err := setupTimes(ctx, o, setupS)
		if err != nil {
			return 1, err
		}
		raw := metrics{}
		endToEnd(raw, untraced, median(setups), rss, attempted, failed)
		ctxInfo["raw"] = raw
		normalize(m, raw, func(name string) float64 {
			return slowdownOf(o.workload, name, host.slowdown(), cont)
		})
	} else {
		tr.setup, tr.host = setupDelta, host
		tr.overhead = 1 - ratio(opsPerSecond(tr.ph), opsPerSecond(untraced))
		perLayer(m, tr)
		if err := writeTrace(o, ctxInfo, tr.ph.rec); err != nil {
			return 1, err
		}
	}
	ctxJSON, _ := json.Marshal(ctxInfo)
	fmt.Fprintf(stdout, "context: %s\n", ctxJSON)
	correct := failed == 0 && attempted > 0
	res, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(res))
	if !correct {
		return 1, fmt.Errorf("%d of %d ops failed their output check", failed, attempted)
	}
	return 0, nil
}

func newPhase(d time.Duration, rec *recorder, tal *tally) *phase {
	now := time.Now()
	return &phase{deadline: now.Add(d), hardDeadline: now.Add(2 * d), rec: rec, tally: tal}
}

func opsPerSecond(ph *phase) float64 { return ratio(float64(ph.ops), ph.elapsed.Seconds()) }

// wakeBound names, per workload, the end-to-end times that loopback
// wake-ups set rather than CPU speed, so the canary does not track
// them. Served lease requests are short bursts on a thread that has
// just woken, and the host scheduler runs a waking thread almost at
// once: with both vCPUs contended by other processes the canary read
// 2x slow, and with one contended the process was denied half its CPU
// time, while the median lease request kept its unscaled latency
// within 10%. Scaling such a time would add noise instead of removing
// the host's, so it is reported as measured.
var wakeBound = map[string][]string{"served": {"op_p50_ms"}}

// slowdownOf is how much slower than on a quiet reference host the
// named end-to-end figure of workload ran: the canary's slowdown for
// set-up, which runs outside the timed phase; that times the timed
// phase's contention for the phase's figures; none for the figures in
// wakeBound.
func slowdownOf(workload, name string, canary, contention float64) float64 {
	switch {
	case slices.Contains(wakeBound[workload], name):
		return 1
	case name == "setup_s":
		return canary
	}
	return canary * contention
}

// normalize copies the raw end-to-end figures into m with every time
// divided by its slowdown and every rate multiplied by it.
func normalize(m, raw metrics, slowdown func(name string) float64) {
	for name, mt := range raw {
		switch mt.Unit {
		case "s", "ms":
			mt.Value /= slowdown(name)
		case "1/s":
			mt.Value *= slowdown(name)
		}
		m[name] = mt
	}
}

// endToEnd fills the untraced figures a user of the system sees, as
// measured on this host.
func endToEnd(m metrics, ph *phase, setupS, rssMB float64, attempted, failed int) {
	m.set("setup_s", "s", setupS)
	m.set("ops_per_s", "1/s", opsPerSecond(ph))
	m.set("op_p50_ms", "ms", median(ph.opMs))
	m.set("job_p50_ms", "ms", median(ph.jobMs))
	m.set("peak_rss_mb", "MB", rssMB)
	m.set("success_frac", "ratio", 1-ratio(float64(failed), float64(attempted)))
}

// traced is what the traced phase measured.
type traced struct {
	name   string // workload
	ph     *phase
	delta  obsDelta // over the traced phase
	setup  obsDelta // over set-up
	exact  exactCounts
	shares map[string]float64 // host modules' CPU-profile shares
	host   hostSpeed
	// overhead is the traced phase's ops_per_s shortfall against the
	// untraced phase's, as a share of the latter.
	overhead float64
}

// tracedPhase runs ops with spans, per-op obs deltas and a CPU profile.
func tracedPhase(ctx context.Context, w workload, o options, d time.Duration, tal *tally) (traced, error) {
	t := traced{name: o.workload, ph: newPhase(d, newRecorder(), tal)}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return t, err
	}
	before := captureObs()
	err := w.drive(ctx, t.ph)
	t.delta = captureObs().since(before)
	pprof.StopCPUProfile()
	if err != nil {
		return t, err
	}
	if t.exact, err = w.exact(ctx, t.ph, t.delta); err != nil {
		return t, err
	}
	if t.shares, err = hostShares(prof.Bytes()); err != nil {
		return t, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return t, err
	}
	return t, os.WriteFile(filepath.Join(outDir, runName(o)+".cpu.pprof"), prof.Bytes(), 0o644)
}

// perLayer fills every per-layer figure; a workload that never reaches
// a layer reports zero for it.
func perLayer(m metrics, t traced) {
	layerMetrics(m, t.delta, t.ph, t.setup)
	m.set("cpu.retired_per_op", "instr/op", t.exact.retired)
	m.set("cpu.sim_cycles_per_op", "cycles/op", t.exact.cycles)
	m.set("pac.auths_per_op", "count/op", t.exact.auths)
	m.set("pac.auth_failures_per_op", "count/op", t.exact.authFails)

	m.set("figures.fig3_s", "s", median(t.ph.rec.durations("exp:fig3")))
	m.set("figures.fig4_s", "s", median(t.ph.rec.durations("exp:fig4")))
	var lease, job []float64
	if t.name == "served" {
		lease, job = t.ph.opMs, t.ph.jobMs
	}
	m.set("served.lease_p99_ms", "ms", percentile(lease, 99))
	m.set("served.job_p95_ms", "ms", percentile(job, 95))
	m.set("served.lease_samples", "count", float64(len(lease)))
	m.set("served.job_samples", "count", float64(len(job)))

	for _, mod := range hostModules {
		m.set("host_share."+mod, "ratio", t.shares[mod])
	}
	m.set("host.canary_ns", "ns", t.host.ns())
	m.set("trace.overhead_frac", "ratio", t.overhead)
}

func runName(o options) string { return fmt.Sprintf("%s-seed%d", o.workload, o.seed) }

// writeTrace writes the traced phase's spans and the run context.
func writeTrace(o options, info map[string]any, rec *recorder) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, runName(o)+".trace.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	rec.mu.Lock()
	err = enc.Encode(map[string]any{"context": info, "spans": rec.spans, "daemon_traces": rec.daemon})
	rec.mu.Unlock()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runContext records what a reader needs to compare two runs.
func runContext(o options, host hostSpeed) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"canary_ns":  host.ns(),
	}
}

// setupTimes returns this process's set-up time plus those of
// setupSamples-1 fresh probe processes, each setting up from scratch.
func setupTimes(ctx context.Context, o options, own float64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := []float64{own}
	for i := 1; i < setupSamples; i++ {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		cmd := exec.CommandContext(pctx, exe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", out, err)
		}
		times = append(times, s)
	}
	return times, nil
}

// peakRSSMB is the process's peak resident set in megabytes (VmHWM),
// falling back to the Go runtime's view of memory obtained from the
// OS where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
