package engine

import (
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// euler3DConfig builds a 3D Euler (Richtmyer-Meshkov) SPMD config: 16^3
// cells in 4^3-cell tiles gives 64 boxes whose halos meet on faces in all
// three axes — the richest region geometry the frame codec has to carry.
func euler3DConfig(iters int) SPMDConfig {
	return SPMDConfig{
		Domain:      geom.Box3(0, 0, 0, 15, 15, 15),
		TileSize:    4,
		Kernel:      solver.NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1}),
		BaseGrid:    solver.UniformGrid(1.0 / 16),
		Partitioner: partition.NewHetero(),
		Iterations:  iters,
		RepartEvery: 4,
	}
}

// gatherPatches merges every rank's final patches into one global map,
// failing on overlap (each interior box must have exactly one owner).
func gatherPatches(t *testing.T, results []*SPMDResult) map[geom.Box]*amr.Patch {
	t.Helper()
	global := map[geom.Box]*amr.Patch{}
	for _, r := range results {
		for b, p := range r.Patches {
			if _, dup := global[b]; dup {
				t.Fatalf("box %v owned by two ranks", b)
			}
			global[b] = p
		}
	}
	return global
}

// comparePatchesBitExact asserts two global patch maps hold identical boxes
// with identical interior values in every field — no tolerance.
func comparePatchesBitExact(t *testing.T, fields int, got, want map[geom.Box]*amr.Patch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("patch count differs: %d vs %d", len(got), len(want))
	}
	for b, wp := range want {
		gp, ok := got[b]
		if !ok {
			t.Fatalf("box %v missing in compared run", b)
		}
		wp.EachInterior(func(pt geom.Point) {
			for f := 0; f < fields; f++ {
				if gp.At(f, pt) != wp.At(f, pt) {
					t.Fatalf("box %v field %d cell %v: %.17g != %.17g",
						b, f, pt, gp.At(f, pt), wp.At(f, pt))
				}
			}
		})
	}
}

// cellKey addresses one field value of the global solution.
type cellKey struct {
	pt geom.Point
	f  int
}

// composeCells reassembles every field of the global solution from per-rank
// results, cell by cell — independent of how the partitioner cut the tiles —
// and checks it covers the domain exactly once.
func composeCells(t *testing.T, results []*SPMDResult, domain geom.Box, fields int) map[cellKey]float64 {
	t.Helper()
	cells := make(map[cellKey]float64, int(domain.Cells())*fields)
	for _, p := range gatherPatches(t, results) {
		p.EachInterior(func(pt geom.Point) {
			for f := 0; f < fields; f++ {
				cells[cellKey{pt, f}] = p.At(f, pt)
			}
		})
	}
	if int64(len(cells)) != domain.Cells()*int64(fields) {
		t.Fatalf("composed solution holds %d values, want %d", len(cells), domain.Cells()*int64(fields))
	}
	return cells
}

// runAgainstOneRank runs cfg over a fresh multi-rank group from mk and the
// same config on ONE rank (which owns every tile and sends nothing), and
// requires the two final solutions to agree cell for cell in every field —
// no tolerance. It is the end-to-end oracle of the whole data plane: plan
// construction, coalesced frames, migration and the partition agreement all
// have to be right for a distributed run to reproduce the serial one.
func runAgainstOneRank(t *testing.T, cfg SPMDConfig, mk func() []transport.Endpoint) []*SPMDResult {
	t.Helper()
	multi := runSPMD(t, mk(), cfg)
	one, err := transport.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.CapsAt = func(int) []float64 { return []float64{1} }
	serial := runSPMD(t, one, ref)

	var reparts, msgs int64
	for _, r := range multi {
		reparts += int64(r.Repartitions)
		msgs += r.MsgsSent
	}
	if reparts == 0 {
		t.Fatal("no repartition happened; the migration path went unexercised")
	}
	if msgs == 0 {
		t.Fatal("no data-plane messages counted")
	}
	if serial[0].MsgsSent != 0 {
		t.Fatalf("the one-rank reference sent %d messages", serial[0].MsgsSent)
	}
	fields := cfg.Kernel.NumFields()
	got := composeCells(t, multi, cfg.Domain, fields)
	want := composeCells(t, serial, cfg.Domain, fields)
	bad := 0
	for k, w := range want {
		if g := got[k]; g != w {
			if bad++; bad <= 3 {
				t.Errorf("cell %v field %d: %.17g != %.17g (one rank)", k.pt, k.f, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d values differ from the one-rank reference", bad)
	}
	return multi
}

// TestSPMDCoalescedBitExact3D runs the 3D Euler solver across three ranks
// with a mid-run capacity shift (forcing a repartition and migration) and
// requires the coalesced frames to reproduce the one-rank run exactly, cell
// for cell.
func TestSPMDCoalescedBitExact3D(t *testing.T) {
	cfg := euler3DConfig(10)
	cfg.CapsAt = capsSwitcher(3)
	runAgainstOneRank(t, cfg, func() []transport.Endpoint {
		eps, err := transport.NewGroup(3)
		if err != nil {
			t.Fatal(err)
		}
		return eps
	})
}

// TestSPMDCoalescedBitExact3DOverTCP repeats the bit-exactness check over
// real sockets, where frames additionally cross the length-prefixed wire
// codec and per-connection buffering.
func TestSPMDCoalescedBitExact3DOverTCP(t *testing.T) {
	cfg := euler3DConfig(6)
	cfg.RepartEvery = 3
	cfg.CapsAt = func(iter int) []float64 {
		caps := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		if iter >= 3 {
			caps = []float64{1.0 / 6, 1.0 / 3, 1.0 / 2}
		}
		return caps
	}
	runAgainstOneRank(t, cfg, func() []transport.Endpoint { return tcpGroup(t, 3) })
}

// tcpGroup opens an n-rank TCP loopback group that closes with the test.
func tcpGroup(t testing.TB, n int) []transport.Endpoint {
	t.Helper()
	eps, err := transport.NewTCPGroup(n, "127.0.0.1")
	return closedWith(t, eps, err)
}

// chanGroup opens an n-rank channel group that closes with the test.
func chanGroup(t testing.TB, n int) []transport.Endpoint {
	t.Helper()
	eps, err := transport.NewGroup(n)
	return closedWith(t, eps, err)
}

// closedWith fails t on a group constructor's error and closes the group
// when the test ends.
func closedWith(t testing.TB, eps []transport.Endpoint, err error) []transport.Endpoint {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// haloPairOracle recomputes, straight from the assignment with the O(n^2)
// double loop the plan builder no longer uses, the directed communicating
// rank pairs: out[s] is the set of ranks s sends halo data to.
func haloPairOracle(a *partition.Assignment, ranks, ghost int) []map[int]bool {
	out := make([]map[int]bool, ranks)
	for r := range out {
		out[r] = map[int]bool{}
	}
	for i, bi := range a.Boxes {
		for j, bj := range a.Boxes {
			ri, rj := a.Owners[i], a.Owners[j]
			if ri == rj {
				continue
			}
			// Rank rj sends bj's overlap into bi's grown halo to rank ri.
			if !bi.Grow(ghost).Intersect(bj).Empty() && bi.Level == bj.Level {
				out[rj][ri] = true
			}
		}
	}
	return out
}

// TestSPMDCoalescedMessageCount pins the tentpole's contract: with a static
// partition, the coalesced exchange sends exactly one halo message per
// communicating rank pair per iteration — no more, no fewer — as observed
// by the MsgsSent/MsgsRecvd counters against an independently recomputed
// pair oracle.
func TestSPMDCoalescedMessageCount(t *testing.T) {
	const iters, ranks = 5, 3
	cfg := spmdConfig(iters)
	cfg.RepartEvery = 0 // static partition: halo traffic only
	cfg.CapsAt = capsSwitcher(ranks)

	// Recompute the initial assignment exactly as every rank does (no
	// previous assignment at iteration 0, so no affinity remap applies).
	assign, err := cfg.Partitioner.Partition(cfg.tiles(), cfg.CapsAt(0), partition.CellWork)
	if err != nil {
		t.Fatal(err)
	}
	pairs := haloPairOracle(assign, ranks, cfg.Kernel.Ghost())

	eps, err := transport.NewGroup(ranks)
	if err != nil {
		t.Fatal(err)
	}
	results := runSPMD(t, eps, cfg)
	for r, res := range results {
		wantSent := int64(iters) * int64(len(pairs[r]))
		var wantRecvd int64
		for s := 0; s < ranks; s++ {
			if pairs[s][r] {
				wantRecvd += int64(iters)
			}
		}
		if res.MsgsSent != wantSent {
			t.Errorf("rank %d sent %d messages, want exactly %d (%d peers x %d iters)",
				r, res.MsgsSent, wantSent, len(pairs[r]), iters)
		}
		if res.msgsRecvd != wantRecvd {
			t.Errorf("rank %d received %d messages, want exactly %d", r, res.msgsRecvd, wantRecvd)
		}
	}
}
