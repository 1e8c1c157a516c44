package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{200, 95, true},
		{199, 95, false},
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", got)
	}
	if got := minSamples(95); got != 200 {
		t.Errorf("minSamples(95) = %d, want 200", got)
	}
	// At the minimum, exactly minTail samples lie beyond the percentile.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must sort
	}
	p99 := percentile(xs, 99)
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	if p99 != 990 || beyond != minTail {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with %d", p99, beyond, minTail)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tal tally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var err error
				if i%10 == 0 {
					err = errors.New("output check failed")
				}
				tal.record(err)
			}
		}()
	}
	wg.Wait()
	attempted, failed := tal.counts()
	if attempted != 400 || failed != 40 {
		t.Fatalf("tally = %d attempted, %d failed; want 400, 40", attempted, failed)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"camouflage/internal/qarma.(*Cipher).Encrypt":  "qarma",
		"camouflage/internal/qarma.mixColumns":         "qarma",
		"camouflage/internal/pac.(*Signer).Auth":       "pac",
		"camouflage/internal/cpu.(*CPU).runTrace":      "cpu",
		"camouflage/internal/mmu.(*MMU).HostData":      "mmu",
		"camouflage/internal/mem.(*Phys).page":         "mem",
		"camouflage/internal/kernel.(*Kernel).syscall": "kernel",
		"camouflage/internal/snapshot.(*Pool).Acquire": "snapshot",
		"camouflage/internal/server.(*Server).admit":   "server",
		"camouflage/internal/insn.Decode":              "other",
		"camouflage/client.(*Client).do":               "other",
		"net/http.(*conn).serve":                       "transport",
		"net.(*conn).Read":                             "transport",
		"encoding/json.(*decodeState).object":          "transport",
		"internal/runtime/syscall.Syscall6":            "transport",
		"runtime.scanobject":                           "gc",
		"runtime.gcBgMarkWorker":                       "gc",
		"runtime.mallocgc":                             "gc",
		"runtime.schedule":                             "other",
		"runtime/internal/atomic.Load":                 "other",
		"sync/atomic.(*Int32).Add":                     "other",
		"main.canaryNs":                                "other",
		"":                                             "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

func TestHostSharesChargesInnermostFrame(t *testing.T) {
	strs := []string{"", "camouflage/internal/qarma.sbox", "camouflage/internal/pac.(*Signer).Auth", "runtime.scanobject"}
	var prof pb
	prof = prof.bytes(fProfileSample, pb(nil).packed(fSampleLocation, 1, 2).packed(fSampleValue, 3, 30))
	// Unpacked repeated fields decode the same way.
	prof = prof.bytes(fProfileSample, pb(nil).varint(fSampleLocation, 3).varint(fSampleValue, 1).varint(fSampleValue, 10))
	// Location 1 is qarma.sbox inlined into pac.Auth: qarma is charged.
	prof = prof.bytes(fProfileLocation, pb(nil).varint(fLocationID, 1).
		bytes(fLocationLine, pb(nil).varint(fLineFunction, 1)).
		bytes(fLocationLine, pb(nil).varint(fLineFunction, 2)))
	prof = prof.bytes(fProfileLocation, pb(nil).varint(fLocationID, 2).
		bytes(fLocationLine, pb(nil).varint(fLineFunction, 2)))
	prof = prof.bytes(fProfileLocation, pb(nil).varint(fLocationID, 3).
		bytes(fLocationLine, pb(nil).varint(fLineFunction, 3)))
	for id := uint64(1); id <= 3; id++ {
		prof = prof.bytes(fProfileFunction, pb(nil).varint(fFunctionID, id).varint(fFunctionName, id))
	}
	for _, s := range strs {
		prof = prof.bytes(fProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := hostShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"qarma": 0.75, "gc": 0.25}
	for _, mod := range hostModules {
		if shares[mod] != want[mod] {
			t.Errorf("share[%s] = %v, want %v", mod, shares[mod], want[mod])
		}
	}
	if _, err := hostShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// validName is the metric-name grammar BENCHMARK.json accepts.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetricSet compares what the program emits with the names and
// units BENCHMARK.json declares.
func checkMetricSet(t *testing.T, kind string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	declared := map[string]string{}
	for _, w := range want {
		declared[w.Name] = w.Unit
	}
	for name, mt := range got {
		if !validName.MatchString(name) {
			t.Errorf("%s metric %q is not a valid name", kind, name)
		}
		if unit, ok := declared[name]; !ok {
			t.Errorf("%s metric %q is not declared in BENCHMARK.json", kind, name)
		} else if unit != mt.Unit {
			t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, name, mt.Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := got[name]; !ok {
			t.Errorf("BENCHMARK.json declares %s metric %q the program never emits", kind, name)
		}
	}
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)

	e2e := metrics{}
	endToEnd(e2e, &phase{}, 0, 0, 0, 0)
	checkMetricSet(t, "end-to-end", e2e, bf.EndToEnd)

	for _, w := range workloadNames() {
		layers := metrics{}
		perLayer(layers, traced{name: w, ph: &phase{rec: newRecorder()}})
		checkMetricSet(t, "per-layer "+w, layers, bf.PerLayer)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
}

func TestNormalizeScalesOnlyTimes(t *testing.T) {
	raw := metrics{}
	raw.set("ops_per_s", "1/s", 10)
	raw.set("op_p50_ms", "ms", 4)
	raw.set("setup_s", "s", 2)
	raw.set("peak_rss_mb", "MB", 30)
	m := metrics{}
	normalize(m, raw, func(string) float64 { return 2 }) // a host at half the reference speed
	want := map[string]float64{"ops_per_s": 20, "op_p50_ms": 2, "setup_s": 1, "peak_rss_mb": 30}
	for name, v := range want {
		if m[name].Value != v || m[name].Unit != raw[name].Unit {
			t.Errorf("%s = %v %s, want %v %s", name, m[name].Value, m[name].Unit, v, raw[name].Unit)
		}
	}
}

func TestSlowdownOf(t *testing.T) {
	const canary, cont = 1.25, 2
	for _, c := range []struct {
		workload, name string
		want           float64
	}{
		{"served", "op_p50_ms", 1}, // bound by wake-ups
		{"served", "ops_per_s", canary * cont},
		{"figures", "op_p50_ms", canary * cont},
		{"figures", "setup_s", canary}, // set up outside the timed phase
	} {
		if got := slowdownOf(c.workload, c.name, canary, cont); got != c.want {
			t.Errorf("%s %s: slowdown %v, want %v", c.workload, c.name, got, c.want)
		}
	}
	for w := range wakeBound {
		if !slices.Contains(workloadNames(), w) {
			t.Errorf("wakeBound names unknown workload %q", w)
		}
	}
}

func TestContention(t *testing.T) {
	a := cpuAccount{ran: 5, denied: 1}
	if got := contention(a, cpuAccount{ran: 15, denied: 6}); got != 1.5 {
		t.Errorf("10 s ran, 5 s denied: contention %v, want 1.5", got)
	}
	if got := contention(a, a); got != 1 {
		t.Errorf("no time ran: contention %v, want 1", got)
	}
	if acct := readCPUAccount(); acct.ran < 0 || acct.denied < 0 {
		t.Errorf("readCPUAccount = %+v, want no negative times", acct)
	}
}
