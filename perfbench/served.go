package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/client"
	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/figures"
	"camouflage/internal/server"
	"camouflage/internal/snapshot"
)

// leaseBudget is the instruction budget of each lease-session run.
const leaseBudget = 100_000

// daemonJobTimeout matches camouflaged's default run watchdog.
const daemonJobTimeout = 10 * time.Minute

// leaseTarget is one (level, seed) configuration client 1 leases, with
// the run result a local machine of that configuration produced.
type leaseTarget struct {
	level string
	seed  uint64
	want  client.MachineRunResponse
}

// servedWorkload serves the daemon's handler on a loopback listener
// and drives it with two closed-loop clients, each on its own
// connection: client 1 runs lease sessions (lease, run, reset,
// release) over {none, full} x two seed-derived boot seeds; client 2
// posts fig4 jobs back to back. The op is one HTTP request.
type servedWorkload struct {
	seed uint64

	hs        *http.Server
	serveDone chan error
	lease     *client.Client
	jobs      *client.Client

	targets []leaseTarget
	wantJob string // the framed local fig4 rendering
	passes  atomic.Int64
}

// clientLoad is one client's share of a phase, merged after it ends.
type clientLoad struct {
	requests int
	lat      []float64
	seconds  float64
}

func (s *servedWorkload) setup(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: server.New(server.Config{JobTimeout: daemonJobTimeout})}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	// Separate clients, so each closed loop holds its own connection.
	s.lease, s.jobs = client.New(base), client.New(base)
	for _, c := range []*client.Client{s.lease, s.jobs} {
		c.HTTP.Transport = http.DefaultTransport.(*http.Transport).Clone()
	}

	// Local references, computed on the shared pool the daemon serves
	// from: this boots and verifies every configuration the clients use.
	e, _ := figures.Lookup("fig4")
	var out bytes.Buffer
	if err := figures.RunWithCPUs(1, func() error { return e.Run(&out) }); err != nil {
		return fmt.Errorf("local fig4: %w", err)
	}
	if got := digest(out.Bytes()); got != fig4Digest {
		return fmt.Errorf("local fig4 digest %s, want %s", got, fig4Digest)
	}
	s.wantJob = "==== fig4 ====\n" + out.String() + "\n"
	for _, level := range []string{"none", "full"} {
		for _, seed := range []uint64{2*s.seed + 1, 2*s.seed + 2} {
			t, err := localLeaseRun(level, seed)
			if err != nil {
				return err
			}
			s.targets = append(s.targets, t)
		}
	}

	// One request of each kind proves the daemon serves them correctly.
	warm := newPhase(0, nil, &tally{})
	var load clientLoad
	for _, t := range s.targets {
		s.session(ctx, warm, t, &load)
	}
	s.job(ctx, warm, &load)
	if _, failed := warm.tally.counts(); failed > 0 {
		return errors.New("warm-up requests failed")
	}
	return nil
}

// localLeaseRun runs a machine of the target configuration in process,
// exactly as the daemon's /run handler does, and records the result.
func localLeaseRun(level string, seed uint64) (leaseTarget, error) {
	lv, err := core.LevelByName(level)
	if err != nil {
		return leaseTarget{}, err
	}
	kopts := core.KernelOptionsFor(lv, core.Options{Seed: seed})
	m, err := snapshot.Shared.Acquire(snapshot.KeyFor(kopts), snapshot.BootOptions(kopts))
	if err != nil {
		return leaseTarget{}, fmt.Errorf("boot %s/%d: %w", level, seed, err)
	}
	defer m.Release()
	k := m.K
	stop := k.Run(leaseBudget)
	want := client.MachineRunResponse{
		Stop: "limit", StopCode: stop.Code, PC: k.CPU.PC, Cycles: k.CPU.Cycles,
		Instrs: k.CPU.Retired, Halted: k.Halted, PACFailures: k.PACFailures,
	}
	switch stop.Kind {
	case cpu.StopHLT:
		want.Stop = "hlt"
	case cpu.StopError:
		want.Stop = "error"
		want.Error = stop.Err.Error()
	}
	return leaseTarget{level: level, seed: seed, want: want}, nil
}

// check compares a served run with the local reference.
func (t leaseTarget) check(got client.MachineRunResponse) error {
	got.RunID = ""
	if got != t.want {
		return fmt.Errorf("lease %s/%d run: got %+v, want %+v", t.level, t.seed, got, t.want)
	}
	return nil
}

// request times one HTTP request as a span under parent and counts it.
// withObs stores the request's obs deltas on its span.
func request(ph *phase, load *clientLoad, parent int64, req, name string, withObs bool, f func() (runID string, err error)) error {
	sp := ph.rec.begin(parent, req, name, withObs)
	t0 := time.Now()
	runID, err := f()
	d := time.Since(t0)
	sp.finish(runID)
	ph.tally.record(err)
	load.requests++
	load.seconds += d.Seconds()
	if err == nil {
		load.lat = append(load.lat, ms(d))
	}
	return err
}

// session runs one lease session; every request is an op.
func (s *servedWorkload) session(ctx context.Context, ph *phase, t leaseTarget, load *clientLoad) {
	req := fmt.Sprintf("lease-%d", s.passes.Add(1))
	root := ph.rec.begin(0, req, "lease-session", true)
	defer root.finish("")
	var m *client.Machine
	err := request(ph, load, root.id(), req, "lease", false, func() (string, error) {
		var err error
		m, err = s.lease.Lease(ctx, client.MachineRequest{Level: t.level, Seed: t.seed})
		return "", err
	})
	if err != nil {
		return
	}
	err = request(ph, load, root.id(), req, "run", false, func() (string, error) {
		r, err := m.Run(ctx, leaseBudget)
		if err != nil {
			return "", err
		}
		return r.RunID, t.check(*r)
	})
	if err == nil {
		_ = request(ph, load, root.id(), req, "reset", false, func() (string, error) {
			return "", m.Reset(ctx)
		})
	}
	_ = request(ph, load, root.id(), req, "release", false, func() (string, error) {
		return "", m.Release(ctx)
	})
}

// job posts one fig4 experiment job and checks its output byte for
// byte against the local rendering.
func (s *servedWorkload) job(ctx context.Context, ph *phase, load *clientLoad) {
	req := fmt.Sprintf("job-%d", s.passes.Add(1))
	var runID string
	_ = request(ph, load, 0, req, "job:fig4", true, func() (string, error) {
		resp, err := s.jobs.RunExperiments(ctx, client.ExperimentsRequest{IDs: []string{"fig4"}})
		if err != nil {
			return "", err
		}
		runID = resp.RunID
		if resp.Output != s.wantJob {
			return runID, fmt.Errorf("fig4 job output differs from the local rendering (%d vs %d bytes)",
				len(resp.Output), len(s.wantJob))
		}
		return runID, nil
	})
	if ph.rec != nil && runID != "" {
		// Jobs are sparse, so their daemon traces are fetched at once,
		// before lease runs push them out of the daemon's trace ring.
		linkTrace(ctx, ph.rec, s.jobs, runID)
	}
}

// linkTrace attaches the daemon's trace of runID to the recorder.
func linkTrace(ctx context.Context, rec *recorder, c *client.Client, runID string) {
	if tr, err := c.RunTrace(ctx, runID); err == nil {
		rec.link(runID, tr)
	}
}

func (s *servedWorkload) drive(ctx context.Context, ph *phase) error {
	minLease, minJobs := int64(minSamples(99)), int64(minSamples(95))
	var nLease, nJobs atomic.Int64
	more := func() bool {
		now := time.Now()
		if ctx.Err() != nil || now.After(ph.hardDeadline) {
			return false
		}
		return now.Before(ph.deadline) || nLease.Load() < minLease || nJobs.Load() < minJobs
	}
	var leaseLoad, jobLoad clientLoad
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; more(); i++ {
			s.session(ctx, ph, s.targets[i%len(s.targets)], &leaseLoad)
			nLease.Store(int64(len(leaseLoad.lat)))
		}
	}()
	go func() {
		defer wg.Done()
		for more() {
			s.job(ctx, ph, &jobLoad)
			nJobs.Store(int64(len(jobLoad.lat)))
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(t0)
	ph.opMs, ph.jobMs = leaseLoad.lat, jobLoad.lat
	ph.ops = leaseLoad.requests + jobLoad.requests
	ph.clientSeconds = leaseLoad.seconds + jobLoad.seconds
	if ph.rec != nil {
		// Link the lease runs the daemon still remembers (its trace ring
		// keeps the most recent runs only).
		spans := ph.rec.all()
		for i, n := len(spans)-1, 0; i >= 0 && n < 64; i-- {
			if sp := spans[i]; sp.Name == "run" && sp.RunID != "" {
				linkTrace(ctx, ph.rec, s.lease, sp.RunID)
				n++
			}
		}
	}
	return ctx.Err()
}

// exact measures one lease-session run's simulated work in a quiet
// probe after the timed phase: one session per target, nothing else
// running, so the counters belong to those runs alone.
func (s *servedWorkload) exact(ctx context.Context, ph *phase, _ obsDelta) (exactCounts, error) {
	probe := newPhase(0, nil, ph.tally)
	before := captureObs()
	var load clientLoad
	for _, t := range s.targets {
		s.session(ctx, probe, t, &load)
	}
	return exactPerOp(captureObs().since(before), len(s.targets)), ctx.Err()
}

func (s *servedWorkload) close() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range []*client.Client{s.lease, s.jobs} {
		if c != nil {
			c.HTTP.CloseIdleConnections()
		}
	}
	if h, ok := s.hs.Handler.(*server.Server); ok {
		if derr := h.Drain(ctx); err == nil {
			err = derr
		}
	}
	return err
}
