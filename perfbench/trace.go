package main

import (
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/obs"
)

// span is one timed call the benchmark made into the program: a name,
// start and end (nanoseconds since the recorder started), the span
// that caused it, and the request it belongs to. RunID links a served
// call to the daemon's own trace (GET /v1/runs/{id}/trace); Counters
// holds the non-zero obs counter deltas the call accrued.
type span struct {
	ID       int64             `json:"id"`
	Parent   int64             `json:"parent,omitempty"`
	Req      string            `json:"req"`
	Name     string            `json:"name"`
	StartNs  int64             `json:"start_ns"`
	EndNs    int64             `json:"end_ns"`
	RunID    string            `json:"run_id,omitempty"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// daemon maps a served run's id to the daemon's own trace of it.
	daemon map[string]any
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), daemon: map[string]any{}} }

// link attaches the daemon's trace of a run to the spans naming it.
func (r *recorder) link(runID string, trace any) {
	r.mu.Lock()
	r.daemon[runID] = trace
	r.mu.Unlock()
}

// open is a started span; finish records it.
type open struct {
	r        *recorder
	sp       span
	counters [obs.NumCounters]uint64
	withObs  bool
}

// begin starts a span under parent (0 for a root). withObs captures the
// obs counters so finish can store the call's deltas.
func (r *recorder) begin(parent int64, req, name string, withObs bool) *open {
	if r == nil {
		return nil
	}
	o := &open{r: r, withObs: withObs, sp: span{
		ID: r.nextID.Add(1), Parent: parent, Req: req, Name: name,
		StartNs: time.Since(r.t0).Nanoseconds(),
	}}
	if withObs {
		o.counters = obs.CounterTotals()
	}
	return o
}

// id is the span's identifier (0 for an untraced run), for children.
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.sp.ID
}

// finish ends the span, linking it to runID when the daemon named one.
func (o *open) finish(runID string) {
	if o == nil {
		return
	}
	o.sp.EndNs = time.Since(o.r.t0).Nanoseconds()
	o.sp.RunID = runID
	if o.withObs {
		now := obs.CounterTotals()
		for id := obs.CounterID(0); id < obs.NumCounters; id++ {
			if d := now[id] - o.counters[id]; d != 0 {
				if o.sp.Counters == nil {
					o.sp.Counters = map[string]uint64{}
				}
				o.sp.Counters[id.SampleName()] = d
			}
		}
	}
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.sp)
	o.r.mu.Unlock()
}

// all returns the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the wall seconds of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}
