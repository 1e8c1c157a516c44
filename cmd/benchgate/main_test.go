package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"camouflage/internal/benchparse"
)

// fixture is one gate evaluation's inputs: the run's ns/op and allocs/op
// per benchmark, and the -baseline and -speedup-ref documents' ns/op
// (nil for a document not given).
type fixture struct {
	run, allocs, base, ref map[string]float64
}

// atBounds returns inputs on which every gate's value equals its bound.
func atBounds() fixture {
	f := fixture{
		run: map[string]float64{
			"BenchmarkForkVsBoot/boot+run":               500,
			"BenchmarkForkVsBoot/fork+run":               100,
			"BenchmarkMemFastPath/buspath":               150,
			"BenchmarkMemFastPath/hostptr":               100,
			"BenchmarkWarmStart/boot+run":                200,
			"BenchmarkWarmStart/load+fork+run":           100,
			"BenchmarkExecThroughput/none/baseline":      1000,
			"BenchmarkExecThroughput/none/fastpath":      105,
			"BenchmarkExecThroughput/full/fastpath":      315,
			"BenchmarkExecThroughput/none/fastpath-2cpu": 105,
			"BenchmarkExecThroughput/full/fastpath-2cpu": 105,
			"BenchmarkObsOverhead/quiet":                 100,
			"BenchmarkObsOverhead/scraped":               102,
			"BenchmarkFaultOverhead/off":                 100,
			"BenchmarkFaultOverhead/armed":               102,
			"BenchmarkSyscallRoundTrip/full":             50000,
		},
		allocs: map[string]float64{},
		base:   map[string]float64{},
		ref: map[string]float64{
			"BenchmarkExecThroughput/none/fastpath": 115.5,
			"BenchmarkExecThroughput/none/baseline": 1000,
		},
	}
	for name := range f.run {
		if strings.Contains(name, "fastpath") {
			f.base[name] = 100
		}
	}
	// full/fastpath sits at both its exec-regress and its pac-cost bound.
	f.base["BenchmarkExecThroughput/full/fastpath"] = 300
	return f
}

// entries renders ns/op values as aggregated bench entries.
func entries(ns map[string]float64) []benchparse.Entry {
	var out []benchparse.Entry
	for name, v := range ns {
		out = append(out, benchparse.Entry{Name: name, N: 1, NsPerOp: v, NumCPU: 2})
	}
	return out
}

// writeDoc writes a trajectory document holding ns and returns its path
// ("" for nil ns).
func writeDoc(t *testing.T, ns map[string]float64, goos string) string {
	t.Helper()
	if ns == nil {
		return ""
	}
	b, err := json.Marshal(trajectory{
		GoVersion: runtime.Version(), GOOS: goos, GOARCH: runtime.GOARCH, Entries: entries(ns),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// evaluate feeds the fixture through `go test -bench` text into check,
// with the baseline recorded as measured on baseOS, and returns the
// results by gate name plus everything check printed.
func evaluate(t *testing.T, f fixture, baseOS string) (map[string]result, string) {
	t.Helper()
	var text strings.Builder
	text.WriteString("goos: linux\ngoarch: amd64\npkg: camouflage\n")
	for name, ns := range f.run {
		// Two repeats, the second slower: the gates compare minima.
		for _, scale := range []float64{1, 1.5} {
			fmt.Fprintf(&text, "%s-2 \t    1000\t %g ns/op\t 0 B/op\t %g allocs/op\n",
				name, ns*scale, f.allocs[name])
		}
	}
	text.WriteString("PASS\nok  \tcamouflage\t1.0s\n")
	parsed, err := benchparse.Parse(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	results := check(&out, benchparse.Aggregate(parsed), writeDoc(t, f.base, baseOS), writeDoc(t, f.ref, runtime.GOOS))
	byName := map[string]result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	return byName, out.String()
}

func TestGatesPassAtBound(t *testing.T) {
	got, out := evaluate(t, atBounds(), runtime.GOOS)
	if len(got) != len(gates) {
		t.Fatalf("%d results for %d gates:\n%s", len(got), len(gates), out)
	}
	for _, g := range gates {
		if r := got[g.name]; !r.Pass || r.Value != g.bound || r.Bound != g.bound {
			t.Errorf("%s at its bound: %+v, want value %v passing\n%s", g.name, r, g.bound, out)
		}
	}
}

func TestGatesFailPastBound(t *testing.T) {
	for _, g := range gates {
		f := atBounds()
		switch g.kind {
		case ratioFloor:
			f.run[g.benches[1]] *= 1.0001
		case ratioCeiling:
			// The denominator, not the numerator: pac-cost's numerator
			// also sits at its exec-regress bound.
			f.run[g.benches[1]] *= 0.9999
		case vsBaseline:
			f.base[g.benches[0]] *= 0.9999
		case vsReference:
			f.ref[g.benches[0]] *= 0.9999
		case allocs:
			f.allocs[g.benches[0]] = 0.5
		}
		got, out := evaluate(t, f, runtime.GOOS)
		for _, other := range gates {
			if r := got[other.name]; r.Pass != (other.name != g.name) {
				t.Errorf("%s just past its bound: %s %+v\n%s", g.name, other.name, r, out)
			}
		}
	}
}

// TestPacCostGate walks LevelFull's cost over LevelNone across the
// ceiling with host-like numbers: both sides come from one run, so only
// their ratio matters.
func TestPacCostGate(t *testing.T) {
	for _, tc := range []struct {
		full float64
		pass bool
	}{
		{16, true},     // ~1.6x, the table-driven cipher
		{30, true},     // exactly 3x
		{30.01, false}, // just past the ceiling
		{72, false},    // ~7x, the nibble-wise cipher
	} {
		f := atBounds()
		f.run["BenchmarkExecThroughput/none/fastpath"] = 10
		f.run["BenchmarkExecThroughput/full/fastpath"] = tc.full
		got, out := evaluate(t, f, runtime.GOOS)
		if r := got["pac-cost"]; r.Pass != tc.pass || r.Value != tc.full/10 {
			t.Errorf("pac-cost with full/fastpath at %v ns/op: %+v, want pass=%v\n%s", tc.full, r, tc.pass, out)
		}
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	for _, g := range gates {
		for _, name := range g.benches {
			f := atBounds()
			delete(f.run, name)
			got, out := evaluate(t, f, runtime.GOOS)
			if got[g.name].Pass || !strings.Contains(out, name+" missing") {
				t.Errorf("%s without %s: %+v\n%s", g.name, name, got[g.name], out)
			}
		}
	}
	// A document not given counts as missing too.
	f := atBounds()
	f.base, f.ref = nil, nil
	got, out := evaluate(t, f, runtime.GOOS)
	for _, g := range gates {
		dropped := g.kind == vsBaseline || g.kind == vsReference
		if got[g.name].Pass == dropped {
			t.Errorf("without -baseline and -speedup-ref, %s: %+v\n%s", g.name, got[g.name], out)
		}
	}
}

// A zero denominator would make a floor ratio +Inf and pass.
func TestZeroNsPerOpFails(t *testing.T) {
	f := atBounds()
	f.run["BenchmarkForkVsBoot/fork+run"] = 0
	got, out := evaluate(t, f, runtime.GOOS)
	if got["fork-vs-boot"].Pass || !strings.Contains(out, "ns/op is zero") {
		t.Errorf("fork-vs-boot over a zero fork+run: %+v\n%s", got["fork-vs-boot"], out)
	}
}

func TestBaselineWithoutEntriesFails(t *testing.T) {
	f := atBounds()
	f.base = map[string]float64{}
	got, out := evaluate(t, f, runtime.GOOS)
	for _, g := range gates {
		if g.kind == vsBaseline && got[g.name].Pass {
			t.Errorf("%s passed against a baseline without entries\n%s", g.name, out)
		}
	}
	if !strings.Contains(out, "no entries") {
		t.Errorf("no reason given for the unusable baseline:\n%s", out)
	}
}

func TestForeignBaselineSkipsExecRegress(t *testing.T) {
	foreign := "plan9"
	if runtime.GOOS == foreign {
		foreign = "linux"
	}
	f := atBounds()
	for name := range f.base {
		f.base[name] = 1 // a 100x regression, were it comparable
	}
	got, out := evaluate(t, f, foreign)
	for _, g := range gates {
		r, ran := got[g.name]
		if ran == (g.kind == vsBaseline) || (ran && !r.Pass) {
			t.Errorf("foreign baseline, %s: ran=%v %+v\n%s", g.name, ran, r, out)
		}
	}
	if want := "note — baseline from " + foreign + "/"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}
