package exp

import (
	"bytes"
	"testing"
)

func TestFaultRecoveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("fault experiment in -short mode")
	}
	res, err := FaultRecovery(16, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.cluster) != 3 {
		t.Fatalf("cluster rows = %d, want 3", len(res.cluster))
	}
	static, adaptive := res.cluster[1], res.cluster[2]
	if adaptive.execSec >= static.execSec {
		t.Errorf("adaptive (%.1fs) not faster than static (%.1fs) after the crash",
			adaptive.execSec, static.execSec)
	}
	if !res.bitExact {
		t.Error("recovered SPMD solution diverged from the fault-free run")
	}
	crashed := 0
	for _, r := range res.ranks {
		if r.crashed {
			crashed++
		} else if r.recoveries != 1 {
			t.Errorf("rank %d recoveries = %d, want 1", r.rank, r.recoveries)
		}
	}
	if crashed != 1 {
		t.Errorf("%d crashed ranks, want 1", crashed)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}
