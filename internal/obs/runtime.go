package obs

import (
	"fmt"
	"sync"
	"time"

	"samrpart/internal/obs/trace"
)

// Config configures a Runtime.
type Config struct {
	// Seed derives the run ID deterministically; 0 seeds from the wall
	// clock, so unrelated runs get distinct IDs.
	Seed int64
	// Trace, when non-nil, is the run log every recorder the runtime hands
	// out writes to. The caller keeps the log and flushes it after the run.
	Trace *trace.Log
}

// Runtime bundles one run's observability: the metrics registry, the
// per-phase wall-time histograms, the optional run log, and the state
// providers behind the /state endpoint. The nil runtime disables everything:
// it hands out nil recorders whose spans cost a nil check, handles discard
// updates, and results are bit-identical to an uninstrumented run.
type Runtime struct {
	reg   *Registry
	log   *trace.Log
	runID string
	start time.Time
	phase [trace.NumPhases]*Histogram

	mu    sync.Mutex
	state map[string]func() any
}

// New builds a runtime with a fresh registry, one samr_phase_seconds
// histogram per vocabulary phase, and cfg.Trace as its run log.
func New(cfg Config) *Runtime {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt := &Runtime{
		reg:   newRegistry(),
		log:   cfg.Trace,
		runID: runID(seed),
		start: time.Now(),
		state: map[string]func() any{},
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		rt.phase[p] = rt.reg.Histogram("samr_phase_seconds",
			"Wall time per runtime phase.", DurationBuckets(),
			Label{"phase", p.String()})
	}
	return rt
}

// runID derives a stable run identifier from a seed (splitmix64), so runs
// seeded identically report the same ID on /state and /healthz.
func runID(seed int64) string {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("run-%016x", z)
}

// Registry exposes the metrics registry (nil on the nil runtime, which
// makes every registration return a nil, update-discarding handle).
func (rt *Runtime) Registry() *Registry {
	if rt == nil {
		return nil
	}
	return rt.reg
}

// RunIDString returns the runtime's run ID ("" on the nil runtime).
func (rt *Runtime) RunIDString() string {
	if rt == nil {
		return ""
	}
	return rt.runID
}

// uptime is the wall time since New (0 on the nil runtime).
func (rt *Runtime) uptime() time.Duration {
	if rt == nil {
		return 0
	}
	return time.Since(rt.start)
}

// Recorder returns rank's span recorder (rank -1 for the single-process
// engine): every span it closes observes into samr_phase_seconds{phase=…}
// and, when the runtime has a run log, writes its record there — one End,
// both sinks. The nil runtime returns the nil, no-op recorder.
func (rt *Runtime) Recorder(rank int) *trace.Recorder {
	if rt == nil {
		return nil
	}
	return trace.NewRecorder(rt.log, rank, func(p trace.Phase, seconds float64) {
		rt.PhaseHistogram(p).Observe(seconds)
	})
}

// PhaseHistogram exposes one phase's histogram (nil on the nil runtime).
func (rt *Runtime) PhaseHistogram(p trace.Phase) *Histogram {
	if rt == nil || p >= trace.NumPhases {
		return nil
	}
	return rt.phase[p]
}

// SetState registers a named snapshot provider for the /state endpoint.
// The function must be safe for concurrent use; it is called at scrape
// time.
func (rt *Runtime) SetState(name string, f func() any) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.state[name] = f
}

// stateSnapshot materializes every registered provider.
func (rt *Runtime) stateSnapshot() map[string]any {
	rt.mu.Lock()
	fs := make(map[string]func() any, len(rt.state))
	for k, f := range rt.state {
		fs[k] = f
	}
	rt.mu.Unlock()
	out := make(map[string]any, len(fs))
	for k, f := range fs {
		out[k] = f()
	}
	return out
}
