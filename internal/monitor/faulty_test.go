package monitor

import (
	"errors"
	"math"
	"testing"

	"samrpart/internal/capacity"
)

// constProber reports a fixed measurement for every node.
type constProber struct {
	n int
	m capacity.Measurement
}

func (p constProber) NumNodes() int                  { return p.n }
func (p constProber) Probe(int) capacity.Measurement { return p.m }
func steady(n int) constProber {
	return constProber{n: n, m: capacity.Measurement{CPUAvail: 0.8, FreeMemoryMB: 200, BandwidthMBps: 10}}
}

func TestParseProbeFaultSpec(t *testing.T) {
	spec, err := ParseProbeFaultSpec("sensor:seed=42,nodes=0-2,drop=0.1,timeout=0.05,freeze=0.02,garbage=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || len(spec.nodes) != 3 || spec.nodes[2] != 2 {
		t.Errorf("parsed %+v", spec)
	}
	if spec.DropProb != 0.1 || spec.TimeoutProb != 0.05 || spec.FreezeProb != 0.02 || spec.GarbageProb != 0.2 {
		t.Errorf("probabilities wrong: %+v", spec)
	}
	if spec, err = ParseProbeFaultSpec("sensor:frac=0.25,garbage=0.5"); err != nil || spec.Frac != 0.25 {
		t.Errorf("frac spec: %+v, %v", spec, err)
	}
	if spec, err = ParseProbeFaultSpec("sensor:nodes=3"); err != nil || len(spec.nodes) != 1 || spec.nodes[0] != 3 {
		t.Errorf("single node: %+v, %v", spec, err)
	}
	for _, bad := range []string{
		"crash:rank=2,iter=10", "sensor:drop=1.5", "sensor:drop=x",
		"sensor:nodes=2-1", "sensor:what=1", "sensor:drop", "nonsense",
	} {
		if _, err := ParseProbeFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestFaultyProberDeterministic(t *testing.T) {
	spec := ProbeFaultSpec{Seed: 7, DropProb: 0.3, TimeoutProb: 0.1, GarbageProb: 0.3}
	sweep := func() ([]capacity.Measurement, []error) {
		f := NewFaultyProber(steady(4), spec)
		var ms []capacity.Measurement
		var errs []error
		for s := 0; s < 50; s++ {
			for k := 0; k < 4; k++ {
				m, err := f.ProbeChecked(k)
				ms = append(ms, m)
				errs = append(errs, err)
			}
		}
		return ms, errs
	}
	m1, e1 := sweep()
	m2, e2 := sweep()
	for i := range m1 {
		same := m1[i] == m2[i] ||
			(math.IsNaN(m1[i].CPUAvail) && math.IsNaN(m2[i].CPUAvail))
		if !same || (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("probe %d diverged between identical runs: %+v/%v vs %+v/%v",
				i, m1[i], e1[i], m2[i], e2[i])
		}
	}
}

func TestFaultyProberInjectsEveryKind(t *testing.T) {
	spec := ProbeFaultSpec{Seed: 3, DropProb: 0.2, TimeoutProb: 0.2, GarbageProb: 0.2, FreezeProb: 0.05}
	f := NewFaultyProber(steady(2), spec)
	var timeouts, drops, garbage int
	for s := 0; s < 200; s++ {
		for k := 0; k < 2; k++ {
			m, err := f.ProbeChecked(k)
			switch {
			case errors.Is(err, errProbeTimeout):
				timeouts++
			case errors.Is(err, errProbeDropped):
				drops++
			case err == nil && !m.Finite():
				garbage++
			}
		}
	}
	if timeouts == 0 || drops == 0 || garbage == 0 {
		t.Errorf("fault kinds not all seen: timeouts=%d drops=%d garbage=%d", timeouts, drops, garbage)
	}
}

func TestFaultyProberFreezeSticks(t *testing.T) {
	// Freeze with certainty on the first probe: every later reading must be
	// identical even though the underlying truth changes.
	truth := &mutableProber{n: 1, m: capacity.Measurement{CPUAvail: 0.9, FreeMemoryMB: 100, BandwidthMBps: 10}}
	f := NewFaultyProber(truth, ProbeFaultSpec{Seed: 1, FreezeProb: 1})
	first, err := f.ProbeChecked(0)
	if err != nil {
		t.Fatal(err)
	}
	truth.m.CPUAvail = 0.1
	for i := 0; i < 5; i++ {
		m, err := f.ProbeChecked(0)
		if err != nil || m != first {
			t.Fatalf("frozen probe %d returned %+v (err %v), want %+v", i, m, err, first)
		}
	}
}

type mutableProber struct {
	n int
	m capacity.Measurement
}

func (p *mutableProber) NumNodes() int                  { return p.n }
func (p *mutableProber) Probe(int) capacity.Measurement { return p.m }

func TestFaultyProberAffectedSubset(t *testing.T) {
	// Only node 0 is afflicted; nodes 1-3 always read the truth.
	spec := ProbeFaultSpec{Seed: 9, nodes: []int{0}, DropProb: 1}
	f := NewFaultyProber(steady(4), spec)
	if _, err := f.ProbeChecked(0); err == nil {
		t.Error("afflicted node did not fail")
	}
	for k := 1; k < 4; k++ {
		if m, err := f.ProbeChecked(k); err != nil || m.CPUAvail != 0.8 {
			t.Errorf("healthy node %d: %+v, %v", k, m, err)
		}
	}
	// frac=0.5 over 4 nodes afflicts nodes 0 and 1.
	f = NewFaultyProber(steady(4), ProbeFaultSpec{Seed: 9, Frac: 0.5, DropProb: 1})
	for k := 0; k < 4; k++ {
		_, err := f.ProbeChecked(k)
		if wantFail := k < 2; (err != nil) != wantFail {
			t.Errorf("frac: node %d err=%v, want fail=%v", k, err, wantFail)
		}
	}
}

func TestFaultyProberZeroOnNaiveProbe(t *testing.T) {
	f := NewFaultyProber(steady(1), ProbeFaultSpec{Seed: 2, DropProb: 1})
	if m := f.Probe(0); m != (capacity.Measurement{}) {
		t.Errorf("naive Probe of dropped reading = %+v, want zero", m)
	}
}
