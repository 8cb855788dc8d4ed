package engine

import (
	"errors"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/capacity"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
)

// failingApp wraps the oracle and injects an error into one hook.
type failingApp struct {
	*OracleApp
	failFlags    bool
	failAdvance  bool
	failRegrid   bool
	triggerAfter int
	calls        int
}

var errInjected = errors.New("injected failure")

func (f *failingApp) Flags(h *amr.Hierarchy, iter int) ([]*amr.FlagField, error) {
	if f.failFlags {
		f.calls++
		if f.calls > f.triggerAfter {
			return nil, errInjected
		}
	}
	return f.OracleApp.Flags(h, iter)
}

func (f *failingApp) Advance(h *amr.Hierarchy, iter int) error {
	if f.failAdvance {
		f.calls++
		if f.calls > f.triggerAfter {
			return errInjected
		}
	}
	return nil
}

func (f *failingApp) Regridded(h *amr.Hierarchy) error {
	if f.failRegrid {
		f.calls++
		if f.calls > f.triggerAfter {
			return errInjected
		}
	}
	return nil
}

func TestEnginePropagatesAppErrors(t *testing.T) {
	cases := []struct {
		name string
		app  *failingApp
	}{
		{"flags", &failingApp{OracleApp: NewRM3DOracle(), failFlags: true, triggerAfter: 1}},
		{"advance", &failingApp{OracleApp: NewRM3DOracle(), failAdvance: true, triggerAfter: 3}},
		{"regridded", &failingApp{OracleApp: NewRM3DOracle(), failRegrid: true, triggerAfter: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clus := newCluster(t, 2)
			cfg := baseConfig()
			cfg.App = c.app
			e, err := New(cfg, clus)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); !errors.Is(err, errInjected) {
				t.Errorf("Run err = %v, want injected failure", err)
			}
		})
	}
}

// failingPartitioner errors after N successful calls.
type failingPartitioner struct {
	after int
	calls int
}

func (f *failingPartitioner) Name() string { return "failing" }
func (f *failingPartitioner) Partition(boxes geom.BoxList, caps []float64, work partition.WorkFunc) (*partition.Assignment, error) {
	f.calls++
	if f.calls > f.after {
		return nil, errInjected
	}
	return partition.NewHetero().Partition(boxes, caps, work)
}

func TestEngineFallsBackOnPartitionerErrors(t *testing.T) {
	// Since the self-validating control loop, a partitioner error no longer
	// kills the run: the engine degrades along hetero → composite →
	// last-good and finishes, counting every event.
	clus := newCluster(t, 2)
	cfg := baseConfig()
	cfg.Partitioner = &failingPartitioner{after: 2}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatalf("Run err = %v, want degraded completion", err)
	}
	if tr.Degraded.PartitionErrors == 0 || tr.Degraded.FallbackHetero == 0 {
		t.Errorf("degradation not counted: %+v", tr.Degraded)
	}
	if e.assign == nil {
		t.Error("no assignment adopted")
	}
}

// invalidPartitioner returns assignments that fail Assignment.Validate
// (it drops every box).
type invalidPartitioner struct{ calls int }

func (p *invalidPartitioner) Name() string { return "invalid" }
func (p *invalidPartitioner) Partition(boxes geom.BoxList, caps []float64, work partition.WorkFunc) (*partition.Assignment, error) {
	p.calls++
	return &partition.Assignment{Work: make([]float64, len(caps)), Ideal: make([]float64, len(caps))}, nil
}

func TestEngineRejectsInvalidAssignments(t *testing.T) {
	// An assignment that fails validation must never be adopted; the run
	// completes on the fallback partitioners instead.
	clus := newCluster(t, 2)
	cfg := baseConfig()
	p := &invalidPartitioner{}
	cfg.Partitioner = p
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatalf("Run err = %v, want degraded completion", err)
	}
	if p.calls == 0 {
		t.Fatal("configured partitioner never called")
	}
	if tr.Degraded.InvalidRejected == 0 || tr.Degraded.FallbackHetero == 0 {
		t.Errorf("invalid assignments not counted: %+v", tr.Degraded)
	}
	// Everything the engine adopted must itself be valid.
	if a := e.assign; a == nil || len(a.Boxes) == 0 {
		t.Errorf("adopted assignment = %+v", a)
	}
}

func TestEngineRejectsUnknownForecaster(t *testing.T) {
	clus := newCluster(t, 2)
	cfg := baseConfig()
	cfg.Forecaster = "oracle-of-delphi"
	if _, err := New(cfg, clus); err == nil {
		t.Error("unknown forecaster accepted")
	}
}

func TestEngineInvalidWeights(t *testing.T) {
	clus := newCluster(t, 2)
	cfg := baseConfig()
	cfg.Weights = capacity.Weights{CPU: 2, Memory: 0, Bandwidth: 0}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err) // weights validated at sense time via capacity.Relative
	}
	if _, err := e.Run(); err == nil {
		t.Error("invalid weights survived Run")
	}
}

func TestEngineNodeCollapseStillRuns(t *testing.T) {
	// A node pinned at the availability floor must not wedge the run.
	clus := newCluster(t, 4)
	clus.Node(0).AddLoad(stuckLoad{})
	cfg := baseConfig()
	cfg.Iterations = 10
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ExecTime <= 0 {
		t.Error("no progress with a collapsed node")
	}
	// The collapsed node still gets a tiny share (capacities never zero
	// thanks to the availability floor).
	if caps := e.Capacities(); caps[0] <= 0 || caps[0] > 0.2 {
		t.Errorf("collapsed node capacity = %v", caps[0])
	}
}

// stuckLoad consumes all CPU and memory forever.
type stuckLoad struct{}

func (stuckLoad) CPULoad(t float64) float64  { return 1.0 }
func (stuckLoad) MemoryMB(t float64) float64 { return 1e6 }
