package exp

import (
	"strings"
	"testing"
)

// TestWeakScalingOracle runs the sweep to 256 virtual ranks (the full
// 4096-rank ladder runs nightly) and checks the deterministic properties:
// every row's distributed plans match the centralized oracle bit-for-bit,
// and the per-rank plan build stays well ahead of the central one.
func TestWeakScalingOracle(t *testing.T) {
	res, err := WeakScaling(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 3 {
		t.Fatalf("got %d rows, want 3 (16, 64, 256)", len(res.rows))
	}
	for _, row := range res.rows {
		if !row.oracleOK {
			t.Errorf("%d ranks: distributed plans diverged from the oracle", row.ranks)
		}
		if row.boxes < weakBoxesPerRank*row.ranks {
			t.Errorf("%d ranks: only %d boxes, want >= %d", row.ranks, row.boxes,
				weakBoxesPerRank*row.ranks)
		}
	}
	// Both builds run in this process, so the ratio is hardware-independent
	// (measured 179x at 256 ranks).
	if last := res.rows[len(res.rows)-1]; last.speedup < 5 {
		t.Errorf("256-rank per-rank plan build only %.1fx faster than the central build, want >= 5x", last.speedup)
	}
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 4 {
		t.Errorf("CSV has %d lines, want header + 3 rows", lines)
	}
	var tab strings.Builder
	if err := res.Render(&tab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "OK") {
		t.Error("rendered table missing oracle status")
	}
}
