package monitor

import (
	"runtime"
	"testing"
)

// uniformRound returns a 4-rank sample vector with rank `slow` scaled by
// factor and everyone else at base.
func round4(base, factor float64, slow int) []float64 {
	out := []float64{base, base, base, base}
	if slow >= 0 {
		out[slow] *= factor
	}
	return out
}

func allAlive(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func TestStragglerShedAndRecover(t *testing.T) {
	d := NewStragglerDetector(4)
	alive := allAlive(4)
	// Healthy warm-up: no transitions.
	for i := 0; i < 3; i++ {
		if tr := d.Observe(round4(1e-6, 1, -1), alive); len(tr) != 0 {
			t.Fatalf("healthy round %d: %v", i, tr)
		}
	}
	// Rank 2 turns 4x slow: demotion after enterAfter breaching rounds, not
	// the first (hysteresis).
	if tr := d.Observe(round4(1e-6, 4, 2), alive); len(tr) != 0 {
		t.Fatalf("single slow round already demoted: %v", tr)
	}
	tr := d.Observe(round4(1e-6, 4, 2), alive)
	if len(tr) != 1 || tr[0].Rank != 2 || tr[0].To != StragglerShed {
		t.Fatalf("second slow round: %v", tr)
	}
	if d.State(2) != StragglerShed {
		t.Fatalf("state = %v", d.State(2))
	}
	if f := d.CapacityFactor(2); f <= 0 || f >= 1 {
		t.Fatalf("shed capacity factor = %v", f)
	}
	if !d.WorkEligible(2) {
		t.Fatal("shed rank must still receive (reduced) work")
	}
	// Recovery: the EWMA needs some healthy rounds to drift back under the
	// threshold, then exitAfter clean rounds promote it.
	var back []StragglerTransition
	for i := 0; i < 20 && d.State(2) != StragglerNormal; i++ {
		back = append(back, d.Observe(round4(1e-6, 1, -1), alive)...)
	}
	if d.State(2) != StragglerNormal {
		t.Fatal("rank 2 never recovered to Normal")
	}
	if len(back) != 1 || back[0] != (StragglerTransition{Rank: 2, From: StragglerShed, To: StragglerNormal}) {
		t.Fatalf("recovery transitions = %v, want one promotion", back)
	}
}

func TestStragglerQuarantineChain(t *testing.T) {
	d := NewStragglerDetector(4)
	alive := allAlive(4)
	for i := 0; i < 3; i++ {
		d.Observe(round4(1e-6, 1, -1), alive)
	}
	// 50x slow clears the quarantine threshold outright.
	for i := 0; i < 6 && d.State(1) != StragglerQuarantined; i++ {
		d.Observe(round4(1e-6, 50, 1), alive)
	}
	if d.State(1) != StragglerQuarantined {
		t.Fatalf("state = %v, want quarantined", d.State(1))
	}
	if d.CapacityFactor(1) != 0 || d.WorkEligible(1) {
		t.Fatal("quarantined rank must get zero work")
	}
	// Recovery is stepwise: quarantined → shed → normal, never a jump.
	var states []StragglerState
	var trs []StragglerTransition
	for i := 0; i < 40 && d.State(1) != StragglerNormal; i++ {
		trs = append(trs, d.Observe(round4(1e-6, 1, -1), alive)...)
		states = append(states, d.State(1))
	}
	if d.State(1) != StragglerNormal {
		t.Fatal("rank 1 never recovered")
	}
	sawShed := false
	for _, s := range states {
		if s == StragglerShed {
			sawShed = true
		}
	}
	if !sawShed {
		t.Errorf("recovery skipped the Shed step: %v", states)
	}
	for _, tr := range trs {
		if tr.From == StragglerQuarantined && tr.To == StragglerNormal {
			t.Errorf("direct quarantine→normal jump: %+v", tr)
		}
	}
}

func TestStragglerTightGroupNeverSheds(t *testing.T) {
	// Ordinary jitter — everyone within ±10% — must never demote anyone,
	// even over many rounds.
	d := NewStragglerDetector(4)
	alive := allAlive(4)
	samples := [][]float64{
		{1.0e-6, 1.05e-6, 0.95e-6, 1.1e-6},
		{1.1e-6, 0.9e-6, 1.0e-6, 1.02e-6},
		{0.97e-6, 1.03e-6, 1.08e-6, 0.92e-6},
	}
	for i := 0; i < 30; i++ {
		if tr := d.Observe(samples[i%len(samples)], alive); len(tr) != 0 {
			t.Fatalf("jitter caused transitions: %v", tr)
		}
	}
}

func TestStragglerDeterministic(t *testing.T) {
	feed := func() []StragglerTransition {
		d := NewStragglerDetector(4)
		alive := allAlive(4)
		var all []StragglerTransition
		for i := 0; i < 8; i++ {
			all = append(all, d.Observe(round4(1e-6, 1, -1), alive)...)
		}
		for i := 0; i < 8; i++ {
			all = append(all, d.Observe(round4(1e-6, 8, 3), alive)...)
		}
		for i := 0; i < 12; i++ {
			all = append(all, d.Observe(round4(1e-6, 1, -1), alive)...)
		}
		return all
	}
	a, b := feed(), feed()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs diverged: %d vs %d transitions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStragglerDeadRankResets(t *testing.T) {
	d := NewStragglerDetector(4)
	alive := allAlive(4)
	for i := 0; i < 4; i++ {
		d.Observe(round4(1e-6, 10, 2), alive)
	}
	if d.State(2) == StragglerNormal {
		t.Fatal("rank 2 was never demoted")
	}
	// Rank 2 dies; its straggler state clears so a rejoin starts clean.
	alive[2] = false
	d.Observe([]float64{1e-6, 1e-6, 0, 1e-6}, alive)
	if d.State(2) != StragglerNormal {
		t.Fatalf("dead rank state = %v, want normal", d.State(2))
	}
	// No-sample rounds (<= 0 entries) never perturb anyone.
	alive[2] = true
	if tr := d.Observe([]float64{1e-6, 0, -1, 1e-6}, alive); len(tr) != 0 {
		t.Fatalf("no-sample round transitions: %v", tr)
	}
}

// TestStragglerFlappingKeepsHeapFlat: a rank that flaps between slow and
// normal forever must not grow its detector replica; every SPMD rank runs
// one for the whole job.
func TestStragglerFlappingKeepsHeapFlat(t *testing.T) {
	d := NewStragglerDetector(4)
	alive := allAlive(4)
	flap := func(rounds int) (transitions int) {
		for i := 0; i < rounds; i++ {
			factor := 1.0
			if i%12 < 4 {
				factor = 50
			}
			transitions += len(d.Observe(round4(1e-6, factor, 2), alive))
		}
		return transitions
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	flap(1200)
	before := liveHeap()
	n := flap(100_000)
	after := liveHeap()
	runtime.KeepAlive(d)
	if n < 10_000 {
		t.Fatalf("%d transitions in 1e5 rounds: the rank is not flapping", n)
	}
	if after > before+64<<10 {
		t.Errorf("live heap grew %d -> %d bytes over %d transitions", before, after, n)
	}
}
