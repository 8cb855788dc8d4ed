package exp

import (
	"strings"
	"testing"
)

// TestWeakScalingOracleAndDelta runs the sweep to 256 virtual ranks (the
// full 4096-rank ladder runs nightly) and checks the deterministic
// properties: every row's distributed plans match the centralized oracle
// bit-for-bit, the owner-delta broadcast beats the full table, and the
// per-rank plan build stays well ahead of the central one.
func TestWeakScalingOracleAndDelta(t *testing.T) {
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
		if row.deltaKB >= row.fullKB {
			t.Errorf("%d ranks: delta broadcast %.3f KB not below full %.3f KB",
				row.ranks, row.deltaKB, row.fullKB)
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

// TestWeakScalingStage2Oracle runs the stage-2 decentralization sweep to
// 256 virtual ranks (the 4096 ladder runs nightly) and checks that the
// assembled group slices reproduce the replicated partition bit-for-bit
// and that group-local slicing gets relatively cheaper as groups multiply.
func TestWeakScalingStage2Oracle(t *testing.T) {
	res, err := WeakScalingStage2(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 3 {
		t.Fatalf("got %d rows, want 3 (16, 64, 256)", len(res.rows))
	}
	for _, row := range res.rows {
		if !row.oracleOK {
			t.Errorf("%d ranks: assembled slices diverged from the replicated oracle", row.ranks)
		}
		if row.groups != (row.ranks+res.groupSize-1)/res.groupSize {
			t.Errorf("%d ranks: %d groups with group size %d", row.ranks, row.groups, res.groupSize)
		}
	}
	last := res.rows[len(res.rows)-1]
	if last.speedup < 4 {
		t.Errorf("256-rank stage-2 speedup %.1fx below the 4x floor", last.speedup)
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
	if !strings.Contains(tab.String(), "Group-local") {
		t.Error("rendered table missing group-local column")
	}
}
