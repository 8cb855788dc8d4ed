package exp

import (
	"math"
	"strings"
	"testing"

	"samrpart/internal/capacity"
)

// These tests assert the reproduction's shape criteria (EXPERIMENTS.md):
// who wins, by roughly what factor, and where optima fall — not absolute
// seconds, which belong to the authors' testbed.

func TestFixedCapacityLoads(t *testing.T) {
	clus, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	caps := paperCapacities()
	if err := fixedCapacityLoads(clus, caps); err != nil {
		t.Fatal(err)
	}
	ms := make([]capacity.Measurement, 4)
	for k := 0; k < 4; k++ {
		n := clus.Node(k)
		ms[k] = capacity.Measurement{
			CPUAvail:      n.CPUAvail(0),
			FreeMemoryMB:  n.FreeMemoryMB(0),
			BandwidthMBps: n.Bandwidth(0),
		}
	}
	got, err := capacity.Relative(ms, capacity.EqualWeights())
	if err != nil {
		t.Fatal(err)
	}
	for k := range caps {
		if math.Abs(got[k]-caps[k]) > 0.005 {
			t.Errorf("C_%d = %.3f, want %.3f", k, got[k], caps[k])
		}
	}
	// Mismatched length rejected.
	if err := fixedCapacityLoads(clus, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Unrealizably small capacity rejected.
	if err := fixedCapacityLoads(clus, []float64{0.01, 0.33, 0.33, 0.33}); err == nil {
		t.Error("unrealizable capacity accepted")
	}
}

func TestFig8to10Shapes(t *testing.T) {
	r, err := Fig8to10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.hetero.Records) != 8 || len(r.composite.Records) != 8 {
		t.Fatalf("want 8 regrids, got %d/%d", len(r.hetero.Records), len(r.composite.Records))
	}
	for i, rec := range r.hetero.Records {
		// (b) Hetero assignments track capacities: work ordered like caps
		// and each node within 25% of its share.
		for k := 0; k < 3; k++ {
			if rec.Work[k] > rec.Work[k+1]*1.05 {
				t.Errorf("regrid %d: hetero work not capacity-ordered: %v", i+1, rec.Work)
			}
		}
		if imb := rec.MaxImbalance(); imb > 40 {
			t.Errorf("regrid %d: hetero imbalance %.1f%% above the paper's 40%% bound", i+1, imb)
		}
	}
	for i, rec := range r.composite.Records {
		// Default assigns near-equal work irrespective of capacity.
		mean := 0.0
		for _, w := range rec.Work {
			mean += w
		}
		mean /= 4
		for k, w := range rec.Work {
			if math.Abs(w-mean)/mean > 0.25 {
				t.Errorf("regrid %d: default node %d deviates %.0f%% from equal",
					i+1, k, math.Abs(w-mean)/mean*100)
			}
		}
		// (c) Default imbalance far above hetero's.
		if rec.MaxImbalance() < 2*r.hetero.Records[i].MaxImbalance() {
			t.Errorf("regrid %d: default imbalance %.1f%% not well above hetero %.1f%%",
				i+1, rec.MaxImbalance(), r.hetero.Records[i].MaxImbalance())
		}
	}
	// Render sanity.
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 8", "Figure 9", "Figure 10", "16% 19% 31% 34%"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig11Adapts(t *testing.T) {
	r, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	recs := r.trace.Records
	if len(recs) < 30 {
		t.Fatalf("want >= 30 regrids, got %d", len(recs))
	}
	if r.trace.Senses != 3 {
		t.Errorf("senses = %d, want 3 (once before + twice during)", r.trace.Senses)
	}
	// Early: equal capacities -> near-equal assignment.
	first := recs[0]
	if math.Abs(first.Work[0]-first.Work[3]) > 0.05*first.Work[3] {
		t.Errorf("first regrid not equal: %v", first.Work)
	}
	// Late: node 0 loaded -> smallest share.
	last := recs[len(recs)-1]
	if last.Work[0] >= last.Work[3]*0.8 {
		t.Errorf("allocation did not adapt to load on node 0: %v", last.Work)
	}
	// Capacities changed across the samples.
	if sameCaps(recs[0].Caps, last.Caps) {
		t.Error("capacities never changed")
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "capacities") {
		t.Error("render missing capacity annotations")
	}
}

func TestMixedHardwareShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-hardware run in short mode")
	}
	r, err := MixedHardware()
	if err != nil {
		t.Fatal(err)
	}
	// Architectural skew alone must give the system-sensitive scheme a
	// clear win, with fast nodes holding larger capacities.
	if r.improvementPct < 5 {
		t.Errorf("improvement %.1f%% too small for a 2x speed skew", r.improvementPct)
	}
	if r.caps[0] <= r.caps[7] {
		t.Errorf("fast node capacity %.3f not above slow node %.3f", r.caps[0], r.caps[7])
	}
}

func TestAblationMemoryWeightsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-weights ablation in short mode")
	}
	r, err := AblationMemoryWeights()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, row := range r.rows {
		byName[row.variant] = row.execSec
	}
	cb := byName["compute-biased (.6,.2,.2)"]
	mb := byName["memory-biased (.2,.6,.2)"]
	eq := byName["equal (1/3,1/3,1/3)"]
	// §8: on a memory-intensive workload, raising w_m pays. The ordering
	// must be memory-biased < equal < compute-biased.
	if !(mb < eq && eq < cb) {
		t.Errorf("weights ordering wrong: mem %.1f, equal %.1f, cpu %.1f", mb, eq, cb)
	}
	if (cb-mb)/cb < 0.15 {
		t.Errorf("memory-aware gain only %.1f%%", (cb-mb)/cb*100)
	}
}
