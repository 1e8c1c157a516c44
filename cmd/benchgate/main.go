// Command benchgate is the CI bench-trajectory gate: it parses `go test
// -bench` output, checks it against the gate table below, writes a
// machine-readable trajectory document, and exits 1 when any gate fails.
//
// Every ns/op ratio compares the MINIMUM across the -count repeats on
// both sides: microbenchmark noise is additive (a bursty neighbour slows
// a repeat, never speeds it), so the minimum estimates quiet-machine
// performance where the median wobbles by tens of percent on a shared
// host, and a burst during one phase of the run cannot move a ratio the
// code didn't change.
//
// A gate whose benchmarks, baseline or reference are missing fails: a
// gate silently not running is how regressions slip through CI, so a
// workflow regex typo cannot turn one off behind a green build.
//
// Usage:
//
//	go test -run '^$' -bench '...' -count=5 -benchmem . | tee bench.txt
//	benchgate -in bench.txt -json BENCH_results.json \
//	    -baseline baseline.json -speedup-ref BENCH_reference.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"camouflage/internal/benchparse"
)

// kind is how a gate turns its benchmarks into the value it bounds.
type kind int

const (
	// ratioFloor: min ns/op of benches[0] over benches[1] must reach the
	// bound.
	ratioFloor kind = iota
	// ratioCeiling: the same ratio must stay within the bound.
	ratioCeiling
	// vsBaseline: min ns/op of benches[0] over the -baseline document's
	// must stay within the bound.
	vsBaseline
	// vsReference: the speedup of benches[0] over the -speedup-ref
	// document, with machine-speed drift divided out by the canary
	// benches[1] (ref0/cur0 * cur1/ref1), must reach the bound.
	vsReference
	// allocs: the worst mean allocs/op across benches must stay within
	// the bound.
	allocs
)

// gate is one row of the gate table.
type gate struct {
	name    string
	kind    kind
	benches []string
	bound   float64
}

// gates is every bound the trajectory benchmarks are held to.
var gates = []gate{
	// The warm pool's fork-vs-boot advantage: DESIGN.md §7 records ≥5x,
	// the same floor TestForkAtLeast5xFasterThanBoot enforces in-process.
	{"fork-vs-boot", ratioFloor, []string{"BenchmarkForkVsBoot/boot+run", "BenchmarkForkVsBoot/fork+run"}, 5},
	// The host-pointer fast path's advantage on the load/store-heavy loop
	// (DESIGN.md §2/§3).
	{"mem-fast-path", ratioFloor, []string{"BenchmarkMemFastPath/buspath", "BenchmarkMemFastPath/hostptr"}, 1.5},
	// The snapshot store's warm-start advantage (DESIGN.md §12): one
	// verified store load plus copy-on-write forks must beat rebooting a
	// batch of machines.
	{"warm-start", ratioFloor, []string{"BenchmarkWarmStart/boot+run", "BenchmarkWarmStart/load+fork+run"}, 2},
	// The data fast path and block chaining are allocation-free by
	// design, and the 2-vCPU variants hold the SMP scheduler to the same
	// budget. The full-protection syscall round trip holds the key switch
	// to it too: every kernel entry and exit rewrites key registers, and
	// each write re-keys a QARMA cipher in place. The baseline variants
	// deliberately run the seed's allocating paths and are not gated.
	{"exec-allocs", allocs, []string{
		"BenchmarkExecThroughput/none/fastpath",
		"BenchmarkExecThroughput/full/fastpath",
		"BenchmarkExecThroughput/none/fastpath-2cpu",
		"BenchmarkExecThroughput/full/fastpath-2cpu",
		"BenchmarkSyscallRoundTrip/full",
	}, 0},
	// What full protection costs on the exec mix: LevelFull over
	// LevelNone, both from the same run, so the bound holds on any host.
	// The paper's premise is that PAuth signs in hardware at small cost.
	// On a 2-vCPU host the ratio measured 5-7 with nibble-wise QARMA and
	// 1.5-2.3 with the table-driven cipher; 3 trips a return to
	// per-nibble cipher work or an allocating key switch.
	{"pac-cost", ratioCeiling, []string{"BenchmarkExecThroughput/full/fastpath", "BenchmarkExecThroughput/none/fastpath"}, 3},
	// The fastpath variants' ns/op trajectory against the committed
	// baseline, re-measured with the observability counters in place, so
	// instrumentation creep on the hot path also trips it. 5% absorbs
	// normal toolchain movement; a release that shifts ns/op further is
	// exactly when the baseline should be re-measured.
	{"exec-regress/none/fastpath", vsBaseline, []string{"BenchmarkExecThroughput/none/fastpath"}, 1.05},
	{"exec-regress/full/fastpath", vsBaseline, []string{"BenchmarkExecThroughput/full/fastpath"}, 1.05},
	{"exec-regress/none/fastpath-2cpu", vsBaseline, []string{"BenchmarkExecThroughput/none/fastpath-2cpu"}, 1.05},
	{"exec-regress/full/fastpath-2cpu", vsBaseline, []string{"BenchmarkExecThroughput/full/fastpath-2cpu"}, 1.05},
	// The superblock pipeline against the pre-superblock reference, with
	// the untouched NoBlockCache interpreter as the machine-speed canary.
	// Same-host interleaved A/B put the gain at ~1.25x on this
	// compute-loop workload; 1.10x is a regression tripwire (a build
	// where traces stop fusing measures ~1.0x) that leaves margin for
	// canary-normalization error across runner generations.
	{"speedup", vsReference, []string{"BenchmarkExecThroughput/none/fastpath", "BenchmarkExecThroughput/none/baseline"}, 1.10},
	// Scrapes read only the atomic shards, never the per-core cells the
	// hot path bumps, so continuous scraping must be invisible to
	// execution; 2% is the A/B's noise margin.
	{"obs-overhead", ratioCeiling, []string{"BenchmarkObsOverhead/scraped", "BenchmarkObsOverhead/quiet"}, 1.02},
	// Every fault-injection point is a nil atomic-pointer check off the
	// instruction loop; a registry armed on points execution never
	// reaches must cost it nothing beyond the same 2% margin.
	{"fault-overhead", ratioCeiling, []string{"BenchmarkFaultOverhead/armed", "BenchmarkFaultOverhead/off"}, 1.02},
}

// result is one gate's outcome in the trajectory document.
type result struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// trajectory is the JSON document the CI job uploads as an artifact:
// the gate outcomes plus the raw entries, with runtime metadata so
// revisions stay comparable.
type trajectory struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`

	// Gates holds one outcome per gate that ran, in table order.
	Gates []result `json:"gates"`

	// Entries is the aggregated result set: one median entry per
	// benchmark (the -count repeats collapse via benchparse.Aggregate).
	Entries []benchparse.Entry `json:"entries"`
}

// loadDoc reads a previous trajectory document.
func loadDoc(path string) (*trajectory, error) {
	if path == "" {
		return nil, errors.New("not given")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, err
	}
	if len(t.Entries) == 0 {
		return nil, errors.New("no entries")
	}
	return &t, nil
}

// check evaluates the gate table against entries, with baselinePath and
// refPath naming the -baseline and -speedup-ref documents. It returns
// one result per gate that ran and reports every value, failure reason
// and skip on w. The vsBaseline gates are skipped, not failed, when the
// baseline comes from another GOOS/GOARCH: ns/op across platforms is
// noise, not signal.
func check(w io.Writer, entries []benchparse.Entry, baselinePath, refPath string) []result {
	base, baseErr := loadDoc(baselinePath)
	ref, refErr := loadDoc(refPath)
	skipBase := false
	switch {
	case baseErr != nil:
		baseErr = fmt.Errorf("-baseline %q unusable: %v", baselinePath, baseErr)
	case base.GOOS != runtime.GOOS || base.GOARCH != runtime.GOARCH:
		skipBase = true
		fmt.Fprintf(w, "benchgate: note — baseline from %s/%s, this run is %s/%s; "+
			"skipping the ns/op regression comparison (not comparable)\n",
			base.GOOS, base.GOARCH, runtime.GOOS, runtime.GOARCH)
	case base.GoVersion != runtime.Version():
		// Toolchain version drift deliberately does not skip: CI pins
		// go-version "stable", so an exact-version key would disarm the
		// gate on every Go release.
		fmt.Fprintf(w, "benchgate: note — baseline measured under %s, this run is %s; comparing anyway\n",
			base.GoVersion, runtime.Version())
	}
	if refErr != nil {
		refErr = fmt.Errorf("-speedup-ref %q unusable: %v", refPath, refErr)
	}

	var out []result
	for _, g := range gates {
		if g.kind == vsBaseline && skipBase {
			continue
		}
		var v float64
		var err error
		switch g.kind {
		case ratioFloor, ratioCeiling:
			v, err = minRatio(entries, g.benches[0], entries, g.benches[1])
		case vsBaseline:
			if err = baseErr; err == nil {
				v, err = minRatio(entries, g.benches[0], base.Entries, g.benches[0])
			}
		case vsReference:
			var speedup, canary float64
			if err = refErr; err == nil {
				speedup, err = minRatio(ref.Entries, g.benches[0], entries, g.benches[0])
			}
			if err == nil {
				canary, err = minRatio(entries, g.benches[1], ref.Entries, g.benches[1])
			}
			v = speedup * canary
		case allocs:
			v, err = maxAllocs(entries, g.benches)
		}
		r := result{Name: g.name, Value: v, Bound: g.bound}
		if err != nil {
			fmt.Fprintf(w, "benchgate: FAIL — %s: %v\n", g.name, err)
		} else {
			op := "≤"
			r.Pass = v <= g.bound
			if g.kind == ratioFloor || g.kind == vsReference {
				op = "≥"
				r.Pass = v >= g.bound
			}
			verdict := "ok"
			if !r.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "benchgate: %-4s %s %.3f (bound %s %.3f)\n", verdict, g.name, v, op, g.bound)
		}
		out = append(out, r)
	}
	return out
}

// minRatio is min ns/op of name a in as over min ns/op of name b in bs.
func minRatio(as []benchparse.Entry, a string, bs []benchparse.Entry, b string) (float64, error) {
	num, okA := benchparse.MinNsPerOp(as, a)
	den, okB := benchparse.MinNsPerOp(bs, b)
	switch {
	case !okA:
		return 0, fmt.Errorf("%s missing", a)
	case !okB:
		return 0, fmt.Errorf("%s missing", b)
	case den <= 0:
		return 0, fmt.Errorf("%s ns/op is zero", b)
	}
	return num / den, nil
}

// maxAllocs is the worst mean allocs/op across names.
func maxAllocs(entries []benchparse.Entry, names []string) (float64, error) {
	worst := 0.0
	for _, name := range names {
		if _, ran := benchparse.MeanNsPerOp(entries, name); !ran {
			return 0, fmt.Errorf("%s missing", name)
		}
		a, ok := benchparse.MeanMetric(entries, name, "allocs/op")
		if !ok {
			return 0, fmt.Errorf("%s has no allocs/op (run go test with -benchmem)", name)
		}
		worst = max(worst, a)
	}
	return worst, nil
}

func main() {
	in := flag.String("in", "-", "bench output file (- for stdin)")
	jsonPath := flag.String("json", "BENCH_results.json", "trajectory document path (empty to disable)")
	baselinePath := flag.String("baseline", "",
		"previous trajectory document (the committed BENCH_results.json) the fastpath "+
			"BenchmarkExecThroughput variants are regression-checked against")
	speedupRef := flag.String("speedup-ref", "",
		"reference trajectory document (the committed BENCH_reference.json) the superblock "+
			"pipeline's speedup is measured against")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	parsed, err := benchparse.Parse(r)
	if err != nil {
		log.Fatal(err)
	}
	if len(parsed) == 0 {
		log.Fatal("benchgate: no benchmark results in input")
	}
	// One median entry per benchmark: the trajectory document carries a
	// single entry per name instead of the -count duplicates (each keeps
	// its repeats' minimum for the gates).
	entries := benchparse.Aggregate(parsed)
	results := check(os.Stdout, entries, *baselinePath, *speedupRef)

	if *jsonPath != "" {
		// The bench host's parallelism comes from the GOMAXPROCS name
		// suffix, not from this process — benchgate may evaluate output
		// produced on a different machine.
		numCPU := benchparse.MaxNumCPU(entries)
		if numCPU == 0 {
			numCPU = runtime.NumCPU()
		}
		b, err := json.MarshalIndent(trajectory{
			GeneratedUnix: time.Now().Unix(),
			GoVersion:     runtime.Version(),
			GOOS:          runtime.GOOS,
			GOARCH:        runtime.GOARCH,
			NumCPU:        numCPU,
			Gates:         results,
			Entries:       entries,
		}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: trajectory written to %s\n", *jsonPath)
	}

	for _, r := range results {
		if !r.Pass {
			os.Exit(1)
		}
	}
}
