package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/cluster"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// runWithWorkers runs a kernel-backed simulation end to end on the engine
// with the given worker-pool width and returns the app for inspection.
func runWithWorkers(tb testing.TB, k solver.Kernel, hcfg amr.Config, grid solver.Grid, threshold float64, iters, workers int) *SimApp {
	tb.Helper()
	app := NewSimApp(k, grid, threshold)
	clus, err := cluster.New(cluster.Uniform(2, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Hierarchy:   hcfg,
		App:         app,
		Partitioner: partition.NewHetero(),
		Iterations:  iters,
		RegridEvery: 2,
		Workers:     workers,
	}, clus)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return app
}

// comparePatches asserts two runs hold bit-identical solutions: same box
// set, and every interior cell of every field equal down to the float bits.
func comparePatches(t *testing.T, ref, got *SimApp) {
	t.Helper()
	rp, gp := ref.ExportPatches(), got.ExportPatches()
	if len(rp) == 0 || len(rp) != len(gp) {
		t.Fatalf("patch sets differ: %d vs %d boxes", len(rp), len(gp))
	}
	for b, p := range rp {
		q, ok := gp[b]
		if !ok {
			t.Fatalf("parallel run missing box %v", b)
		}
		for f := 0; f < p.NumFields; f++ {
			p.EachInterior(func(pt geom.Point) {
				if math.Float64bits(p.At(f, pt)) != math.Float64bits(q.At(f, pt)) {
					t.Fatalf("box %v field %d cell %v: %.17g != %.17g",
						b, f, pt, p.At(f, pt), q.At(f, pt))
				}
			})
		}
	}
}

// TestWorkersBitExact2D integrates 2D MUSCL advection (4-cell halo, so the
// parallel halo fill crosses patch corners) serially and on an 8-worker
// pool; the solutions must be bit-identical.
func TestWorkersBitExact2D(t *testing.T) {
	hcfg := amr.Config{
		Domain:        geom.Box2(0, 0, 63, 63),
		RefineRatio:   2,
		MaxLevels:     2,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.6, MinSide: 4},
	}
	grid := solver.UniformGrid(1.0 / 64)
	mk := func() solver.Kernel { return solver.NewMUSCLAdvection2D(1.0, 0.4, 0.3, 0.3, 0.1) }
	serial := runWithWorkers(t, mk(), hcfg, grid, 0.05, 8, 1)
	pooled := runWithWorkers(t, mk(), hcfg, grid, 0.05, 8, 8)
	comparePatches(t, serial, pooled)
}

// TestWorkersBitExact3DEuler does the same with the 3D Euler kernel
// (multi-field conservative system, subcycled 2-level hierarchy).
func TestWorkersBitExact3DEuler(t *testing.T) {
	hcfg := amr.Config{
		Domain:        geom.Box3(0, 0, 0, 31, 15, 15),
		RefineRatio:   2,
		MaxLevels:     2,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.6, MinSide: 4},
	}
	grid := solver.UniformGrid(1.0 / 16)
	mk := func() solver.Kernel { return solver.NewRichtmyerMeshkov([geom.MaxDim]float64{2, 1, 1}) }
	serial := runWithWorkers(t, mk(), hcfg, grid, 0.1, 4, 1)
	pooled := runWithWorkers(t, mk(), hcfg, grid, 0.1, 4, 8)
	comparePatches(t, serial, pooled)
}

// benchApp builds a refined 2-level MUSCL hierarchy ready for Advance calls.
func benchApp(b *testing.B, workers int) (*SimApp, *amr.Hierarchy) {
	b.Helper()
	k := solver.NewMUSCLAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1)
	app := NewSimApp(k, solver.UniformGrid(1.0/128), 0.05)
	app.SetWorkers(workers)
	h, err := amr.New(amr.Config{
		Domain:        geom.Box2(0, 0, 127, 127),
		RefineRatio:   2,
		MaxLevels:     2,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.7, MinSide: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Regridded(h); err != nil {
		b.Fatal(err)
	}
	flags, err := app.Flags(h, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Regrid(flags); err != nil {
		b.Fatal(err)
	}
	if err := app.Regridded(h); err != nil {
		b.Fatal(err)
	}
	return app, h
}

// BenchmarkSPMDExchange measures a full 2-rank SPMD run (8 iterations of
// MUSCL 64² with tile 16 over the channel transport): ghost-plan reuse, the
// raw float codec, and patch double buffering all land on this path.
func BenchmarkSPMDExchange(b *testing.B) {
	cfg := SPMDConfig{
		Domain:      geom.Box2(0, 0, 63, 63),
		TileSize:    16,
		Kernel:      solver.NewMUSCLAdvection2D(1.0, 0.5, 0.4, 0.4, 0.12),
		BaseGrid:    solver.UniformGrid(1.0 / 64),
		Partitioner: partition.NewHetero(),
		CapsAt:      func(int) []float64 { return []float64{0.5, 0.5} },
		Iterations:  8,
	}
	var msgsSent, msgsRecvd, migrated, retained int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eps, err := transport.NewGroup(2)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(eps))
		results := make([]*SPMDResult, len(eps))
		for r := range eps {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = RunSPMDRank(eps[r], cfg)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, res := range results {
			msgsSent += res.MsgsSent
			msgsRecvd += res.msgsRecvd
			migrated += res.MigratedBytes
			retained += res.RetainedBytes
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(msgsSent)/n, "msgs_sent/op")
	b.ReportMetric(float64(msgsRecvd)/n, "msgs_recvd/op")
	b.ReportMetric(float64(migrated)/n, "migrated_B/op")
	b.ReportMetric(float64(retained)/n, "retained_B/op")
}

// BenchmarkParallelIntegration measures one full Berger–Oliger coarse step
// (dt scan, subcycled level steps, halo fills, restriction) of 2D MUSCL
// advection on a 128² 2-level hierarchy across worker-pool widths. On a
// multi-core host the >=2-worker variants should scale; allocs/op reflects
// the double-buffer and pooled-scratch hot paths.
func BenchmarkParallelIntegration(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			app, h := benchApp(b, w)
			if err := app.Advance(h, 0); err != nil { // warm the spare buffers
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Advance(h, i+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
