package monitor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"samrpart/internal/capacity"
)

// errProbeTimeout reports a probe that exceeded its deadline: the sensor is
// alive but too slow, so the sweep proceeds without its reading.
var errProbeTimeout = errors.New("monitor: probe timed out")

// errProbeDropped reports a probe that returned nothing at all (lost
// request, crashed sensor daemon).
var errProbeDropped = errors.New("monitor: probe dropped")

// checkedProber is a Prober whose probes can fail. The Monitor prefers
// ProbeChecked when available so it can distinguish "no data" from "zero";
// plain Probers are treated as always succeeding.
type checkedProber interface {
	Prober
	// ProbeChecked returns the node's resource state or an error when the
	// probe produced no usable reading (timeout, dropout).
	ProbeChecked(k int) (capacity.Measurement, error)
}

// ProbeFaultSpec configures deterministic sensor-fault injection for a
// FaultyProber, mirroring transport.FaultSpec: all randomness comes from
// per-node PRNGs seeded from Seed, so a run observes an identical fault
// sequence every time.
type ProbeFaultSpec struct {
	// Seed initializes the per-node injection PRNGs.
	Seed int64
	// nodes restricts injection to these node ids (nil = governed by Frac,
	// or all nodes when Frac is 0 too).
	nodes []int
	// Frac, when Nodes is empty and Frac > 0, afflicts the first
	// ceil(Frac·N) nodes.
	Frac float64
	// TimeoutProb is the probability a probe times out (no reading).
	TimeoutProb float64
	// DropProb is the probability a probe is silently dropped (no reading).
	DropProb float64
	// FreezeProb is the per-probe probability the node's sensor freezes
	// permanently: every later probe repeats the reading taken at freeze
	// time, a stuck monitor daemon.
	FreezeProb float64
	// GarbageProb is the probability a probe returns garbage: NaN, ±Inf,
	// negative values, or wild spikes, cycled deterministically.
	GarbageProb float64
}

// Validate checks the probabilities are in [0, 1].
func (s ProbeFaultSpec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"timeout", s.TimeoutProb}, {"drop", s.DropProb},
		{"freeze", s.FreezeProb}, {"garbage", s.GarbageProb}, {"frac", s.Frac},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("monitor: fault spec %s=%g outside [0,1]", p.name, p.v)
		}
	}
	for _, n := range s.nodes {
		if n < 0 {
			return fmt.Errorf("monitor: fault spec names negative node %d", n)
		}
	}
	return nil
}

// ParseProbeFaultSpec parses the CLI sensor-fault syntax shared by cmd/amrun
// and cmd/experiments (the sensing-layer sibling of engine.ParseFaultSpec):
//
//	sensor:seed=42,nodes=0-1,drop=0.1,timeout=0.05,freeze=0.05,garbage=0.15
//	sensor:frac=0.25,garbage=0.2
//
// nodes takes a single id or an inclusive a-b range; frac afflicts the first
// ceil(frac·N) nodes instead.
func ParseProbeFaultSpec(s string) (*ProbeFaultSpec, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok || kind != "sensor" {
		return nil, fmt.Errorf("monitor: sensor fault spec %q: want sensor:key=val,...", s)
	}
	spec := &ProbeFaultSpec{}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("monitor: sensor fault spec %q: bad field %q", s, kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("monitor: sensor fault spec %q: seed %q", s, val)
			}
			spec.Seed = n
		case "nodes":
			lo, hi, isRange := strings.Cut(val, "-")
			a, err := strconv.Atoi(lo)
			if err != nil || a < 0 {
				return nil, fmt.Errorf("monitor: sensor fault spec %q: nodes %q", s, val)
			}
			b := a
			if isRange {
				if b, err = strconv.Atoi(hi); err != nil || b < a {
					return nil, fmt.Errorf("monitor: sensor fault spec %q: nodes %q", s, val)
				}
			}
			for k := a; k <= b; k++ {
				spec.nodes = append(spec.nodes, k)
			}
		case "timeout", "drop", "freeze", "garbage", "frac":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("monitor: sensor fault spec %q: %s %q", s, key, val)
			}
			switch key {
			case "timeout":
				spec.TimeoutProb = p
			case "drop":
				spec.DropProb = p
			case "freeze":
				spec.FreezeProb = p
			case "garbage":
				spec.GarbageProb = p
			case "frac":
				spec.Frac = p
			}
		default:
			return nil, fmt.Errorf("monitor: sensor fault spec %q: unknown field %q", s, key)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// FaultyProber wraps a Prober and injects deterministic, seedable sensor
// failures: probe timeouts, dropouts, permanently frozen readings, and
// garbage values. It is the sensing-layer mirror of transport.Faulty — the
// same workload run against the same spec sees the same fault sequence.
type FaultyProber struct {
	inner Prober
	spec  ProbeFaultSpec

	mu        sync.Mutex
	rngs      []*rand.Rand
	frozen    []bool
	frozenVal []capacity.Measurement
	garbageN  []int // per-node garbage counter, cycles the garbage kinds
	afflicted []bool
}

// NewFaultyProber wraps p with the given fault specification.
func NewFaultyProber(p Prober, spec ProbeFaultSpec) *FaultyProber {
	n := p.NumNodes()
	f := &FaultyProber{
		inner:     p,
		spec:      spec,
		rngs:      make([]*rand.Rand, n),
		frozen:    make([]bool, n),
		frozenVal: make([]capacity.Measurement, n),
		garbageN:  make([]int, n),
		afflicted: make([]bool, n),
	}
	for k := 0; k < n; k++ {
		// Per-node streams keep the sequence deterministic regardless of
		// how many sweeps other nodes have seen.
		f.rngs[k] = rand.New(rand.NewSource(spec.Seed + int64(k)*0x9E37))
	}
	switch {
	case len(spec.nodes) > 0:
		for _, k := range spec.nodes {
			if k < n {
				f.afflicted[k] = true
			}
		}
	case spec.Frac > 0:
		m := int(math.Ceil(spec.Frac * float64(n)))
		for k := 0; k < m && k < n; k++ {
			f.afflicted[k] = true
		}
	default:
		for k := range f.afflicted {
			f.afflicted[k] = true
		}
	}
	return f
}

// NumNodes implements Prober.
func (f *FaultyProber) NumNodes() int { return f.inner.NumNodes() }

// Probe implements Prober: failed probes degrade to a zero reading, the
// naive "no data means nothing available" interpretation a hygiene-less
// consumer would apply.
func (f *FaultyProber) Probe(k int) capacity.Measurement {
	m, err := f.ProbeChecked(k)
	if err != nil {
		return capacity.Measurement{}
	}
	return m
}

// garbageValue cycles through the garbage kinds: NaN, +Inf, negative, and a
// wild spike of the true reading.
func garbageValue(kind int, truth capacity.Measurement) capacity.Measurement {
	switch kind % 4 {
	case 0:
		return capacity.Measurement{CPUAvail: math.NaN(), FreeMemoryMB: math.NaN(), BandwidthMBps: math.NaN()}
	case 1:
		return capacity.Measurement{CPUAvail: math.Inf(1), FreeMemoryMB: truth.FreeMemoryMB, BandwidthMBps: truth.BandwidthMBps}
	case 2:
		return capacity.Measurement{CPUAvail: -truth.CPUAvail - 1, FreeMemoryMB: -truth.FreeMemoryMB, BandwidthMBps: truth.BandwidthMBps}
	default:
		return capacity.Measurement{
			CPUAvail:      truth.CPUAvail*1e4 + 1e3,
			FreeMemoryMB:  truth.FreeMemoryMB*1e4 + 1e6,
			BandwidthMBps: truth.BandwidthMBps*1e4 + 1e5,
		}
	}
}

// ProbeChecked implements CheckedProber, applying the fault model.
func (f *FaultyProber) ProbeChecked(k int) (capacity.Measurement, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k < 0 || k >= len(f.afflicted) || !f.afflicted[k] {
		return f.inner.Probe(k), nil
	}
	if f.frozen[k] {
		return f.frozenVal[k], nil
	}
	rng := f.rngs[k]
	// Draw every decision each probe so the stream position is independent
	// of which faults are enabled at what rates.
	uTimeout := rng.Float64()
	uDrop := rng.Float64()
	uGarbage := rng.Float64()
	uFreeze := rng.Float64()
	if f.spec.TimeoutProb > 0 && uTimeout < f.spec.TimeoutProb {
		return capacity.Measurement{}, errProbeTimeout
	}
	if f.spec.DropProb > 0 && uDrop < f.spec.DropProb {
		return capacity.Measurement{}, errProbeDropped
	}
	truth := f.inner.Probe(k)
	if f.spec.GarbageProb > 0 && uGarbage < f.spec.GarbageProb {
		g := garbageValue(f.garbageN[k], truth)
		f.garbageN[k]++
		return g, nil
	}
	if f.spec.FreezeProb > 0 && uFreeze < f.spec.FreezeProb {
		f.frozen[k] = true
		f.frozenVal[k] = truth
	}
	return truth, nil
}
