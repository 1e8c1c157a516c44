package main

import (
	"camouflage/internal/cpu"
	"camouflage/internal/obs"
)

// obsCapture is a point-in-time reading of the program's obs registry
// (every counter total plus every histogram's count and sum) and of the
// CPU package's process-wide cycle and retirement totals.
//
// Retired instructions and cycles come from cpu.TotalCounters, which
// adds every CPU.Run's own delta. The obs copies of those two counters
// are published as deltas against a per-core baseline that a snapshot
// reset rewinds, so they drop the work of pooled machines that were
// reset in between; they are deterministic but not totals.
type obsCapture struct {
	c               [obs.NumCounters]uint64
	h               map[string]obs.HistSnapshot
	cycles, retired uint64
}

func captureObs() obsCapture {
	c := obsCapture{c: obs.CounterTotals(), h: obs.TakeSnapshot().Histograms}
	c.cycles, c.retired = cpu.TotalCounters()
	return c
}

// obsDelta is what the registry accrued between two captures.
type obsDelta struct {
	c               [obs.NumCounters]uint64
	prev, now       map[string]obs.HistSnapshot
	cycles, retired float64
}

func (now obsCapture) since(prev obsCapture) obsDelta {
	d := obsDelta{prev: prev.h, now: now.h,
		cycles: float64(now.cycles - prev.cycles), retired: float64(now.retired - prev.retired)}
	for i := range d.c {
		d.c[i] = now.c[i] - prev.c[i]
	}
	return d
}

// n is a counter's delta as a float.
func (d obsDelta) n(ids ...obs.CounterID) float64 {
	var t uint64
	for _, id := range ids {
		t += d.c[id]
	}
	return float64(t)
}

// hist is a histogram's observation count and summed seconds.
func (d obsDelta) hist(sample string) (count, sumSeconds float64) {
	now, prev := d.now[sample], d.prev[sample]
	return float64(now.Count - prev.Count), now.SumSeconds - prev.SumSeconds
}

// histMeanMs is a histogram's mean observation in milliseconds.
func (d obsDelta) histMeanMs(sample string) float64 {
	n, s := d.hist(sample)
	return ratio(s*1e3, n)
}

var (
	pacAuths = []obs.CounterID{obs.CPACAuthIA, obs.CPACAuthIB, obs.CPACAuthDA, obs.CPACAuthDB, obs.CPACAuthGA}
	pacFails = []obs.CounterID{obs.CPACFailIA, obs.CPACFailIB, obs.CPACFailDA, obs.CPACFailDB, obs.CPACFailGA}
)

// servedEndpoints are the daemon routes the served workload calls,
// keyed by the short name their per-layer metric carries.
var servedEndpoints = []struct{ name, pattern string }{
	{"lease", "POST /v1/machines"},
	{"run", "POST /v1/machines/{id}/run"},
	{"reset", "POST /v1/machines/{id}/reset"},
	{"release", "POST /v1/machines/{id}/release"},
	{"experiments", "POST /v1/experiments"},
}

func requestSample(pattern string) string {
	return `camouflage_server_request_seconds{endpoint="` + pattern + `"}`
}

// exactCounts are the simulated statistics one op retires. They are a
// pure function of the workload's inputs, so a speed-only change must
// leave them bit-identical: the benchmark checks them, it does not
// rank them.
type exactCounts struct {
	retired, cycles, auths, authFails float64
}

func exactPerOp(d obsDelta, ops int) exactCounts {
	n := float64(ops)
	return exactCounts{
		retired:   ratio(d.retired, n),
		cycles:    ratio(d.cycles, n),
		auths:     ratio(d.n(pacAuths...), n),
		authFails: ratio(d.n(pacFails...), n),
	}
}

// layerMetrics turns the traced phase's obs delta into the per-layer
// figures every workload reports (zero where a workload never reaches
// the layer).
func layerMetrics(m metrics, d obsDelta, ph *phase, setup obsDelta) {
	minstr := d.retired / 1e6
	ops := float64(ph.ops)

	m.set("cpu.guest_mips", "MIPS", ratio(minstr, ph.elapsed.Seconds()))
	m.set("cpu.block_fills_per_minstr", "1/Minstr", ratio(d.n(obs.CBlockFill), minstr))
	m.set("cpu.trace_builds_per_minstr", "1/Minstr", ratio(d.n(obs.CTraceBuild), minstr))
	m.set("cpu.trace_enters_per_minstr", "1/Minstr", ratio(d.n(obs.CTraceEnter), minstr))
	m.set("cpu.chain_follows_per_minstr", "1/Minstr", ratio(d.n(obs.CChainFollow), minstr))
	m.set("cpu.slow_fallbacks_per_minstr", "1/Minstr", ratio(d.n(obs.CSlowFallback), minstr))

	m.set("mmu.tlb_miss_ratio", "ratio", ratio(d.n(obs.CTLBMiss), d.n(obs.CTLBHit, obs.CTLBMiss)))
	m.set("mmu.stage2_walks_per_minstr", "1/Minstr", ratio(d.n(obs.CS2Walk), minstr))
	m.set("mmu.hostptr_rearms_per_op", "count/op", ratio(d.n(obs.CHostRearm), ops))
	m.set("mem.cow_per_op", "count/op", ratio(d.n(obs.CCOWMaterialize), ops))

	_, bootS := setup.hist("camouflage_snapshot_boot_seconds")
	_, verifyS := setup.hist("camouflage_snapshot_verify_seconds")
	m.set("snapshot.boot_s", "s", bootS)
	m.set("snapshot.verify_s", "s", verifyS)
	m.set("snapshot.fork_ms", "ms", d.histMeanMs("camouflage_snapshot_fork_seconds"))
	m.set("snapshot.reset_ms", "ms", d.histMeanMs("camouflage_snapshot_reset_seconds"))
	m.set("snapshot.pool_hit_ratio", "ratio", ratio(d.n(obs.CPoolHit), d.n(obs.CPoolHit, obs.CPoolMiss)))

	m.set("server.queue_wait_ms", "ms", d.histMeanMs("camouflage_server_queue_wait_seconds"))
	var handlerS float64
	for _, ep := range servedEndpoints {
		sample := requestSample(ep.pattern)
		m.set("server.handler_ms."+ep.name, "ms", d.histMeanMs(sample))
		_, s := d.hist(sample)
		handlerS += s
	}
	m.set("client.overhead_ms", "ms", ratio(ph.clientSeconds-handlerS, ops)*1e3)
	m.set("client.retries", "count", d.n(obs.CClientRetry))
}
