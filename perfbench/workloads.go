package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"camouflage/internal/attack"
	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/figures"
	"camouflage/internal/kernel"
	"camouflage/internal/snapshot"
)

// workloadNames lists the workloads; BENCHMARK.json records why each
// one is there.
func workloadNames() []string { return []string{"campaign-smp2", "figures", "served"} }

func newWorkload(o options) workload {
	switch o.workload {
	case "figures":
		return &figuresWorkload{seed: o.seed}
	case "campaign-smp2":
		return &campaignWorkload{seed: o.seed}
	}
	return &servedWorkload{seed: o.seed}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- figures ---

// figuresWorkload runs fig3+fig4 passes back to back at 1 vCPU. The
// seed only orders the two experiments within each pass; the outputs
// are the paper's and do not depend on it.
type figuresWorkload struct {
	seed   uint64
	rng    *rand.Rand
	passes int
}

func (f *figuresWorkload) setup(ctx context.Context) error {
	f.rng = rand.New(rand.NewPCG(f.seed, 0x6669677572657321))
	// The warm-up pass boots and verifies the six configurations fig3
	// and fig4 use and fills the host's caches; its counts include the
	// boots, so only its renderings are checked.
	_, err := f.pass(nil, 0, false)
	return err
}

// pass runs fig3 and fig4 once in seed order and checks both
// renderings and, when checkCounts is set, the pass's simulated work.
func (f *figuresWorkload) pass(rec *recorder, parent int64, checkCounts bool) (time.Duration, error) {
	ids := []string{"fig3", "fig4"}
	if f.rng.IntN(2) == 1 {
		ids[0], ids[1] = ids[1], ids[0]
	}
	want := map[string]string{"fig3": fig3Digest, "fig4": fig4Digest}
	c0, r0 := cpu.TotalCounters()
	t0 := time.Now()
	for _, id := range ids {
		e, ok := figures.Lookup(id)
		if !ok {
			return 0, fmt.Errorf("figures: no experiment %q", id)
		}
		var out bytes.Buffer
		sp := rec.begin(parent, fmt.Sprintf("pass-%d", f.passes), "exp:"+id, rec != nil)
		err := figures.RunWithCPUs(1, func() error { return e.Run(&out) })
		sp.finish("")
		if err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		if got := digest(out.Bytes()); got != want[id] {
			return 0, fmt.Errorf("%s rendering digest %s, want %s", id, got, want[id])
		}
	}
	wall := time.Since(t0)
	f.passes++
	if checkCounts {
		c1, r1 := cpu.TotalCounters()
		r, c := r1-r0, c1-c0
		if r != figuresPassRetired || c != figuresPassCycles {
			return wall, fmt.Errorf("pass retired %d instructions in %d cycles, want %d in %d",
				r, c, figuresPassRetired, figuresPassCycles)
		}
	}
	return wall, nil
}

func (f *figuresWorkload) drive(ctx context.Context, ph *phase) error {
	t0 := time.Now()
	for time.Now().Before(ph.deadline) && ctx.Err() == nil {
		sp := ph.rec.begin(0, fmt.Sprintf("pass-%d", f.passes), "pass", true)
		wall, err := f.pass(ph.rec, sp.id(), true)
		sp.finish("")
		ph.tally.record(err)
		ph.ops++
		if err == nil {
			ph.opMs = append(ph.opMs, ms(wall))
			ph.jobMs = append(ph.jobMs, ms(wall))
		}
	}
	ph.elapsed = time.Since(t0)
	return ctx.Err()
}

func (f *figuresWorkload) exact(_ context.Context, ph *phase, d obsDelta) (exactCounts, error) {
	return exactPerOp(d, ph.ops), nil
}

func (f *figuresWorkload) close() error { return nil }

// --- campaign-smp2 ---

// campaignMutations is the strike count per (attack, level) cell.
const campaignMutations = 8

// campaignCPUs is the vCPU count of every campaign machine.
const campaignCPUs = 2

// campaignScenarioSeeds are the boot seeds of the campaign's scenarios
// (the attack package keys its warm machines by configuration and
// scenario seed); set-up boots each of them at every level.
var campaignScenarioSeeds = []uint64{21, 22, 23, 27, 29}

// campaignFailureThreshold is the §5.4 halt threshold campaign
// machines are built with.
const campaignFailureThreshold = 64

// campaignWorkload runs whole campaigns back to back with the mutation
// seed taken from the benchmark seed. The op is one strike.
type campaignWorkload struct {
	seed uint64
	// first* pin the first campaign's results: every later campaign of
	// the run uses the same seed and must reproduce them exactly.
	firstDigest               string
	firstRetired, firstCycles uint64
}

func (c *campaignWorkload) setup(ctx context.Context) error {
	for _, lv := range attack.Levels() {
		for _, seed := range campaignScenarioSeeds {
			cfg := codegen.WithCPUs(lv.Cfg, campaignCPUs)()
			opts := kernel.Options{Config: cfg, Seed: seed, FailureThreshold: campaignFailureThreshold}
			if _, err := snapshot.Shared.SnapshotFor(snapshot.KeyFor(opts), snapshot.BootOptions(opts)); err != nil {
				return fmt.Errorf("boot %s/%d: %w", lv.Name, seed, err)
			}
		}
	}
	return ctx.Err()
}

// campaign runs one campaign and checks it; it returns the strikes
// attempted.
func (c *campaignWorkload) campaign(ctx context.Context) (int, error) {
	c0, r0 := cpu.TotalCounters()
	rep, err := attack.RunCampaignContext(ctx, attack.CampaignOptions{
		Mutations: campaignMutations, Seed: c.seed, Parallel: true, CPUs: campaignCPUs,
	})
	if err != nil {
		return 0, err
	}
	strikes := len(rep.Cells) * campaignMutations
	levels := len(attack.Levels())
	if want := levels * len(campaignScenarioSeeds); len(rep.Cells) != want {
		return strikes, fmt.Errorf("campaign has %d cells, want %d", len(rep.Cells), want)
	}
	for _, cell := range rep.Cells {
		if cell.Runs != campaignMutations || cell.Hijacked+cell.Detected+cell.Inconclusive != campaignMutations {
			return strikes, fmt.Errorf("cell %s/%s: %d runs, %d+%d+%d outcomes, want %d",
				cell.Attack, cell.Level, cell.Runs, cell.Hijacked, cell.Detected, cell.Inconclusive, campaignMutations)
		}
	}
	var out bytes.Buffer
	rep.Render(&out)
	dg := digest(out.Bytes())
	c1, r1 := cpu.TotalCounters()
	retired, cycles := r1-r0, c1-c0
	if c.seed == committedCampaignSeed && dg != campaignDigest {
		return strikes, fmt.Errorf("campaign digest %s, want %s", dg, campaignDigest)
	}
	if c.firstDigest == "" {
		c.firstDigest, c.firstRetired, c.firstCycles = dg, retired, cycles
	} else if dg != c.firstDigest || retired != c.firstRetired || cycles != c.firstCycles {
		return strikes, fmt.Errorf("campaign not reproducible: digest %s, %d instructions, %d cycles; first run %s, %d, %d",
			dg, retired, cycles, c.firstDigest, c.firstRetired, c.firstCycles)
	}
	return strikes, nil
}

func (c *campaignWorkload) drive(ctx context.Context, ph *phase) error {
	t0 := time.Now()
	var last time.Duration
	// Campaigns are long: start one only while at least half of it
	// fits before the deadline.
	for time.Now().Add(last/2).Before(ph.deadline) && ctx.Err() == nil {
		sp := ph.rec.begin(0, fmt.Sprintf("campaign-%d", len(ph.jobMs)), "campaign", true)
		t := time.Now()
		strikes, err := c.campaign(ctx)
		last = time.Since(t)
		sp.finish("")
		if strikes == 0 {
			strikes = 1 // the campaign failed before striking: one failed op
		}
		for i := 0; i < strikes; i++ {
			ph.tally.record(err)
		}
		ph.ops += strikes
		if err == nil {
			ph.jobMs = append(ph.jobMs, ms(last))
			ph.opMs = append(ph.opMs, ms(last)/float64(strikes))
		}
	}
	ph.elapsed = time.Since(t0)
	return ctx.Err()
}

func (c *campaignWorkload) exact(_ context.Context, ph *phase, d obsDelta) (exactCounts, error) {
	return exactPerOp(d, ph.ops), nil
}

func (c *campaignWorkload) close() error { return nil }
