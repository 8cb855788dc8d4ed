package engine

import (
	"math"
	"samrpart/internal/amr"
	"sync"
	"testing"

	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

func spmdConfig(iterations int) SPMDConfig {
	return SPMDConfig{
		Domain:      geom.Box2(0, 0, 31, 31),
		TileSize:    8,
		Kernel:      solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1),
		BaseGrid:    solver.UniformGrid(1.0 / 32),
		Partitioner: partition.NewHetero(),
		CapsAt: func(iter int) []float64 {
			// Shift capacities midway to force a real redistribution.
			return nil // set per-test
		},
		Iterations:  iterations,
		RepartEvery: 4,
	}
}

// runSPMD executes the SPMD program over the given endpoints, one goroutine
// per rank, and returns per-rank results.
func runSPMD(t *testing.T, eps []transport.Endpoint, cfg SPMDConfig) []*SPMDResult {
	t.Helper()
	results := make([]*SPMDResult, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for r := range eps {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunSPMDRank(eps[r], cfg)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

func capsSwitcher(n int) func(iter int) []float64 {
	return func(iter int) []float64 {
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 1 / float64(n)
		}
		if n > 1 && iter >= 8 {
			// Node 0 degrades: shift a third of its share to node n-1.
			delta := caps[0] / 3
			caps[0] -= delta
			caps[n-1] += delta
		}
		return caps
	}
}

func TestSPMDMatchesSerial(t *testing.T) {
	const iters = 16
	// Serial reference: one rank owns everything.
	serialEps, err := transport.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgSerial := spmdConfig(iters)
	cfgSerial.CapsAt = capsSwitcher(1)
	serial := runSPMD(t, serialEps, cfgSerial)[0]

	// Parallel over 4 ranks on the channel transport, with a capacity
	// shift mid-run forcing redistribution.
	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spmdConfig(iters)
	cfg.CapsAt = capsSwitcher(4)
	results := runSPMD(t, eps, cfg)

	var parallelL1 float64
	var totalCells int64
	reparted := false
	for _, r := range results {
		parallelL1 += r.L1Sum
		totalCells += r.OwnedBoxes.TotalCells()
		if r.Repartitions > 0 {
			reparted = true
		}
	}
	if !reparted {
		t.Error("no repartition happened despite capacity shift")
	}
	if totalCells != cfg.Domain.Cells() {
		t.Errorf("ranks own %d cells, domain has %d", totalCells, cfg.Domain.Cells())
	}
	// The distributed solution must match the serial one exactly: same
	// scheme, same dt sequence, same ghost values.
	if math.Abs(parallelL1-serial.L1Sum) > 1e-12*math.Max(1, serial.L1Sum) {
		t.Errorf("parallel L1 %.15g != serial %.15g", parallelL1, serial.L1Sum)
	}
	// Communication actually happened.
	sent := int64(0)
	for _, r := range results {
		sent += r.BytesSent
	}
	if sent == 0 {
		t.Error("no bytes moved between ranks")
	}
	checkOverlapCounters(t, results, iters, 16)
}

// checkOverlapCounters asserts the interior/boundary step accounting of a
// multi-rank run: every patch steps exactly once per iteration regardless of
// its overlap class (repartitions may split tiles into more boxes, so the
// per-iteration patch count can only grow), and at least one patch had
// remote neighbors (otherwise the run exercised no communication overlap).
func checkOverlapCounters(t *testing.T, results []*SPMDResult, iters, tiles int) {
	t.Helper()
	var interior, boundary int64
	for _, r := range results {
		interior += r.InteriorSteps
		boundary += r.BoundarySteps
	}
	if got, least := interior+boundary, int64(iters)*int64(tiles); got < least {
		t.Errorf("interior %d + boundary %d steps = %d, want at least %d", interior, boundary, got, least)
	}
	if len(results) > 1 && boundary == 0 {
		t.Error("multi-rank run stepped no boundary patches")
	}
}

// TestSPMDOverlapMUSCL runs the wide-halo MUSCL kernel (ghost=4) over two
// ranks: each rank's far row of tiles is interior (halo satisfied locally)
// while the shared seam is boundary, so the run genuinely advances patches
// during the ghost flight window — and must still match serial bit-exactly.
func TestSPMDOverlapMUSCL(t *testing.T) {
	const iters = 8
	base := SPMDConfig{
		Domain:      geom.Box2(0, 0, 31, 31),
		TileSize:    8,
		Kernel:      solver.NewMUSCLAdvection2D(1.0, 0.5, 0.4, 0.4, 0.12),
		BaseGrid:    solver.UniformGrid(1.0 / 32),
		Partitioner: partition.NewHetero(),
		Iterations:  iters,
	}
	serialEps, err := transport.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgSerial := base
	cfgSerial.CapsAt = capsSwitcher(1)
	serial := runSPMD(t, serialEps, cfgSerial)[0]

	eps, err := transport.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.CapsAt = capsSwitcher(2)
	results := runSPMD(t, eps, cfg)

	var l1 float64
	var interior, boundary int64
	for _, r := range results {
		l1 += r.L1Sum
		interior += r.InteriorSteps
		boundary += r.BoundarySteps
	}
	if interior == 0 {
		t.Error("no patch stepped during the ghost flight window (overlap never engaged)")
	}
	if boundary == 0 {
		t.Error("no boundary patches despite a rank seam")
	}
	if interior+boundary != int64(iters)*16 {
		t.Errorf("stepped %d patches, want %d", interior+boundary, iters*16)
	}
	if math.Abs(l1-serial.L1Sum) > 1e-12*math.Max(1, serial.L1Sum) {
		t.Errorf("overlapped MUSCL L1 %.15g != serial %.15g", l1, serial.L1Sum)
	}
}

func TestSPMDOverTCP(t *testing.T) {
	const iters = 6
	eps, err := transport.NewTCPGroup(3, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	cfg := spmdConfig(iters)
	cfg.RepartEvery = 3
	cfg.CapsAt = capsSwitcher(3)
	results := runSPMD(t, eps, cfg)
	var cells int64
	for _, r := range results {
		cells += r.OwnedBoxes.TotalCells()
	}
	if cells != cfg.Domain.Cells() {
		t.Errorf("TCP run owns %d cells, want %d", cells, cfg.Domain.Cells())
	}
	// Cross-check against the serial channel run.
	serialEps, _ := transport.NewGroup(1)
	cfgSerial := spmdConfig(iters)
	cfgSerial.RepartEvery = 3
	cfgSerial.CapsAt = capsSwitcher(1)
	serial := runSPMD(t, serialEps, cfgSerial)[0]
	var l1 float64
	for _, r := range results {
		l1 += r.L1Sum
	}
	if math.Abs(l1-serial.L1Sum) > 1e-12*math.Max(1, serial.L1Sum) {
		t.Errorf("TCP L1 %.15g != serial %.15g", l1, serial.L1Sum)
	}
	// The overlapped exchange works identically over real sockets.
	checkOverlapCounters(t, results, iters, 16)
}

func TestSPMDConfigValidation(t *testing.T) {
	eps, _ := transport.NewGroup(1)
	bad := []func(*SPMDConfig){
		func(c *SPMDConfig) { c.Domain = geom.Box{} },
		func(c *SPMDConfig) { c.TileSize = 0 },
		func(c *SPMDConfig) { c.Kernel = nil },
		func(c *SPMDConfig) { c.Partitioner = nil },
		func(c *SPMDConfig) { c.CapsAt = nil },
		func(c *SPMDConfig) { c.Iterations = 0 },
	}
	for i, mutate := range bad {
		cfg := spmdConfig(4)
		cfg.CapsAt = capsSwitcher(1)
		mutate(&cfg)
		if _, err := RunSPMDRank(eps[0], cfg); err == nil {
			t.Errorf("bad spmd config %d accepted", i)
		}
	}
}

func TestSPMDTiles(t *testing.T) {
	cfg := spmdConfig(1)
	tiles := cfg.tiles()
	if len(tiles) != 16 {
		t.Fatalf("32x32 domain with 8-tiles should give 16, got %d", len(tiles))
	}
	if !tiles.Disjoint() {
		t.Error("tiles overlap")
	}
	if tiles.TotalCells() != cfg.Domain.Cells() {
		t.Error("tiles do not cover the domain")
	}
	// Uneven division clips the boundary tiles.
	cfg.Domain = geom.Box2(0, 0, 19, 9)
	cfg.TileSize = 8
	tiles = cfg.tiles()
	if tiles.TotalCells() != 200 {
		t.Errorf("clipped tiles cover %d cells, want 200", tiles.TotalCells())
	}
	// 3D tiling.
	cfg.Domain = geom.Box3(0, 0, 0, 15, 15, 15)
	cfg.TileSize = 8
	tiles = cfg.tiles()
	if len(tiles) != 8 || tiles.TotalCells() != 4096 {
		t.Errorf("3D tiling wrong: %d tiles, %d cells", len(tiles), tiles.TotalCells())
	}
}

func TestExtractApplyRoundTrip(t *testing.T) {
	patch := amr.NewPatch(geom.Box2(0, 0, 3, 3), 1, 2)
	patch.EachInterior(func(pt geom.Point) {
		patch.Set(0, pt, float64(pt[0]+10*pt[1]))
		patch.Set(1, pt, float64(pt[0]*pt[1]))
	})
	region := geom.Box2(1, 1, 2, 2)
	data := patch.AppendRegion(nil, region)
	if len(data) != 4*patch.NumFields {
		t.Fatalf("AppendRegion returned %d values", len(data))
	}
	other := amr.NewPatch(geom.Box2(0, 0, 3, 3), 1, 2)
	if err := apply(other, region, data); err != nil {
		t.Fatal(err)
	}
	forEachCell(region, func(pt geom.Point) {
		if other.At(0, pt) != patch.At(0, pt) || other.At(1, pt) != patch.At(1, pt) {
			t.Fatalf("mismatch at %v", pt)
		}
	})
	if err := apply(other, region, data[:1]); err == nil {
		t.Error("short payload accepted")
	}
}
