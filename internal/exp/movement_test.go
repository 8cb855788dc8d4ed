package exp

import (
	"io"
	"math"
	"testing"
)

// TestMovementRemapSavesMigration pins the acceptance criterion of the
// movement-aware repartitioning: on the capacity-rotation scenario the
// affinity remap strictly reduces migrated bytes, leaves the post-shift
// balance unchanged, and both runs finish with the identical solution.
func TestMovementRemapSavesMigration(t *testing.T) {
	res, err := Movement(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.rows))
	}
	remap, plain := res.rows[0], res.rows[1]
	if remap.migratedKB <= 0 || plain.migratedKB <= 0 {
		t.Fatalf("no migration happened (remap %.1f KB, plain %.1f KB): the rotation scenario is broken",
			remap.migratedKB, plain.migratedKB)
	}
	if remap.migratedKB >= plain.migratedKB {
		t.Errorf("affinity remap did not reduce migration: %.1f KB >= %.1f KB",
			remap.migratedKB, plain.migratedKB)
	}
	if math.Abs(remap.maxImbalance-plain.maxImbalance) > 1e-9 {
		t.Errorf("remap changed balance: %.6f%% vs %.6f%%", remap.maxImbalance, plain.maxImbalance)
	}
	if !res.bitExact {
		t.Error("solutions diverged between remap on and off")
	}
	if res.cells != 48*48 {
		t.Errorf("composed %d cells, want %d", res.cells, 48*48)
	}
	if err := res.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
}
