//go:build soak

package exp

import (
	"math"
	"strings"
	"testing"
)

// The full paper-scale shape sweeps: minutes of virtual-cluster time per
// test. They compile only under the soak tag so the default test run stays
// inside tier-1's budget; the nightly race-full job runs them with
// `go test -tags soak`. The fast shape checks stay in exp_test.go.

func TestFig7TableIShapes(t *testing.T) {
	r, err := Fig7TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rows) != 4 {
		t.Fatalf("rows = %d", len(r.rows))
	}
	prevHetero := math.Inf(1)
	for _, row := range r.rows {
		// (a) Hetero wins at every P.
		if row.heteroSec >= row.defaultSec {
			t.Errorf("P=%d: hetero %.1fs not faster than default %.1fs",
				row.nodes, row.heteroSec, row.defaultSec)
		}
		// Execution time decreases with P (scalability; allow noise-level
		// wiggle where the load script's heavy tier kicks in at P=16).
		if row.heteroSec > prevHetero*1.05 {
			t.Errorf("P=%d: hetero time %.1fs did not decrease (prev %.1f)",
				row.nodes, row.heteroSec, prevHetero)
		}
		prevHetero = row.heteroSec
	}
	// Improvement grows toward ~18% at scale (paper: 7/6/18/18).
	small := (r.rows[0].improvementPct + r.rows[1].improvementPct) / 2
	large := (r.rows[2].improvementPct + r.rows[3].improvementPct) / 2
	if large <= small {
		t.Errorf("improvement did not grow with P: small %.1f%%, large %.1f%%", small, large)
	}
	if large < 12 || large > 30 {
		t.Errorf("large-P improvement %.1f%% outside the paper's neighbourhood (~18%%)", large)
	}
	if small < 2 || small > 15 {
		t.Errorf("small-P improvement %.1f%% outside the paper's neighbourhood (~7%%)", small)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Error("render missing Table I")
	}
}

func TestTable2Shapes(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rows) != 4 {
		t.Fatalf("rows = %d", len(r.rows))
	}
	for _, row := range r.rows {
		// (d) Dynamic sensing beats sense-once substantially at every P.
		gain := (row.staticSec - row.dynamicSec) / row.staticSec * 100
		if gain < 10 {
			t.Errorf("P=%d: dynamic gain %.1f%% too small (paper: 35-48%%)", row.nodes, gain)
		}
	}
	// Both policies scale down with P.
	for i := 1; i < len(r.rows); i++ {
		if r.rows[i].dynamicSec >= r.rows[i-1].dynamicSec {
			t.Errorf("dynamic time not decreasing at P=%d", r.rows[i].nodes)
		}
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table II") {
		t.Error("render missing title")
	}
}

func TestTable3Shapes(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rows) != 4 {
		t.Fatalf("rows = %d", len(r.rows))
	}
	// (e) The optimum is at an intermediate frequency (paper: 20), i.e.
	// neither the most frequent nor the rarest sensing wins.
	fastest := r.rows[0]
	for _, row := range r.rows[1:] {
		if row.execSec < fastest.execSec {
			fastest = row
		}
	}
	if best := fastest.senseEvery; best == 10 || best == 40 {
		t.Errorf("optimum at extreme frequency %d; want intermediate (paper: 20)", best)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table III", "Figure 12", "Figure 15"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	split, err := AblationSplitting()
	if err != nil {
		t.Fatal(err)
	}
	// Splitting matters: the no-splitting greedy baseline must be worst.
	greedy := split.rows[len(split.rows)-1]
	for _, row := range split.rows[:len(split.rows)-1] {
		if row.execSec >= greedy.execSec {
			t.Errorf("splitting variant %q not better than no-splitting", row.variant)
		}
	}
	gran, err := AblationGranularity()
	if err != nil {
		t.Fatal(err)
	}
	// Finer granularity gives lower imbalance.
	if gran.rows[0].meanImb > gran.rows[len(gran.rows)-1].meanImb {
		t.Error("imbalance should grow with coarser granularity")
	}
	weights, err := AblationWeights()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := weights.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "equal") {
		t.Error("weights render missing variants")
	}
	sfcAbl, err := AblationSFC()
	if err != nil {
		t.Fatal(err)
	}
	if len(sfcAbl.rows) != 2 {
		t.Error("SFC ablation incomplete")
	}
}

func TestHeterogeneitySweepShapes(t *testing.T) {
	r, err := HeterogeneitySweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rows) != 5 {
		t.Fatalf("rows: %d", len(r.rows))
	}
	// Homogeneous cluster: both partitioners within noise of each other.
	if imp := r.rows[0].improvementPct; imp > 5 || imp < -5 {
		t.Errorf("homogeneous improvement %.1f%% should be ~0", imp)
	}
	// The paper's expectation: improvement grows with heterogeneity.
	for i := 2; i < len(r.rows); i++ {
		if r.rows[i].improvementPct <= r.rows[0].improvementPct {
			t.Errorf("improvement at load %.1f (%.1f%%) not above homogeneous (%.1f%%)",
				r.rows[i].loadTarget, r.rows[i].improvementPct, r.rows[0].improvementPct)
		}
	}
	if last := r.rows[len(r.rows)-1].improvementPct; last < 15 {
		t.Errorf("improvement at 80%% load = %.1f%%, expected substantial", last)
	}
}

func TestScalabilityShapes(t *testing.T) {
	r, err := Scalability()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rows) != 6 || r.rows[0].nodes != 1 {
		t.Fatalf("rows: %+v", r.rows)
	}
	// Speedup is monotone up to 16 and efficiency decays.
	for i := 1; i < 5; i++ {
		if r.rows[i].speedup <= r.rows[i-1].speedup*0.95 {
			t.Errorf("speedup not growing at P=%d: %.2f after %.2f",
				r.rows[i].nodes, r.rows[i].speedup, r.rows[i-1].speedup)
		}
	}
	if r.rows[1].efficiency < 0.7 {
		t.Errorf("2-node efficiency %.2f too low", r.rows[1].efficiency)
	}
	if r.rows[5].efficiency > r.rows[1].efficiency {
		t.Error("efficiency should decay with P")
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Speedup") {
		t.Error("render missing speedup column")
	}
}

func TestAblationLocalityShapes(t *testing.T) {
	r, err := AblationLocality()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ablationRow{}
	for _, row := range r.rows {
		byName[row.variant] = row
	}
	hetero := byName["ACEHeterogeneous"]
	sfcH := byName["SFCHetero"]
	comp := byName["ACEComposite"]
	// The SFC-ordered capacity-aware scheme keeps hetero's balance...
	if sfcH.meanImb > hetero.meanImb+5 {
		t.Errorf("SFCHetero imbalance %.1f%% much worse than hetero %.1f%%",
			sfcH.meanImb, hetero.meanImb)
	}
	// ...while moving less data between repartitions.
	if sfcH.movedMB >= hetero.movedMB {
		t.Errorf("SFCHetero moved %.0f MB, not less than hetero's %.0f MB",
			sfcH.movedMB, hetero.movedMB)
	}
	// The capacity-oblivious composite has much worse balance than either.
	if comp.meanImb < 2*sfcH.meanImb {
		t.Errorf("composite imbalance %.1f%% suspiciously low", comp.meanImb)
	}
}

func TestAblationForecasterPrefersCurrentState(t *testing.T) {
	r, err := AblationForecaster()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, row := range r.rows {
		byName[row.variant] = row.execSec
	}
	// Under abrupt load switches, current-state (last) must beat the
	// heavy smoothers, and the adaptive ensemble should stay close to the
	// best member.
	if byName["last"] >= byName["mean"] {
		t.Errorf("last (%.1f) not better than mean (%.1f)", byName["last"], byName["mean"])
	}
	if byName["adaptive"] > byName["last"]*1.1 {
		t.Errorf("adaptive (%.1f) far from best member (%.1f)", byName["adaptive"], byName["last"])
	}
}
