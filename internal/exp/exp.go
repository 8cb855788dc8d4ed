// Package exp defines the paper's experiments — every table and figure of
// the evaluation section — as reusable, deterministic functions over the
// virtual cluster. cmd/experiments renders them; the package's own tests
// assert the *shape* criteria recorded in EXPERIMENTS.md (who wins, by
// roughly what factor, where the optima fall).
package exp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// rm3dDomain is the paper's base grid: 128x32x32.
func rm3dDomain() geom.Box { return geom.Box3(0, 0, 0, 127, 31, 31) }

// RM3DHierarchy is the paper's hierarchy: 3 levels of factor-2 refinement.
func RM3DHierarchy() amr.Config {
	return amr.Config{
		Domain:        rm3dDomain(),
		RefineRatio:   2,
		MaxLevels:     3,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.7, MinSide: 4, MaxSide: 32},
	}
}

// NewCluster builds an n-node cluster of the paper's hardware (identical
// Linux workstations on fast Ethernet; heterogeneity comes from load).
func NewCluster(n int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Uniform(n, cluster.LinuxWorkstation()), cluster.DefaultParams())
}

// PaperLoadScript applies the canonical static background-load pattern:
// every second node carries synthetic load, with the heavier load levels
// appearing from node 8 up, so heterogeneity grows with cluster size (the
// paper attributes its larger improvements at P>=16 to exactly that).
func PaperLoadScript(c *cluster.Cluster) {
	targets := []float64{0.3, 0.35, 0.3, 0.35, 0.68, 0.72, 0.68, 0.72}
	for k := 0; k < c.NumNodes(); k += 2 {
		t := targets[(k/2)%len(targets)]
		c.Node(k).AddLoad(cluster.Step{CPU: t, MemMB: 150 * t})
	}
}

// fixedCapacityLoads loads the nodes so the equal-weight capacity metric
// reproduces the given target capacities exactly (the paper's Figures 8-10
// fix C = 16%, 19%, 31%, 34%). It assumes equal per-node bandwidth; CPU and
// memory fractions are set to (3·C_k − 1/K)/2 each.
func fixedCapacityLoads(c *cluster.Cluster, caps []float64) error {
	k := float64(c.NumNodes())
	if len(caps) != c.NumNodes() {
		return fmt.Errorf("exp: %d capacities for %d nodes", len(caps), c.NumNodes())
	}
	fracs := make([]float64, len(caps))
	maxFrac := 0.0
	for i, ck := range caps {
		f := (3*ck - 1/k) / 2
		if f <= 0 {
			return fmt.Errorf("exp: capacity %g too small to realize with equal weights", ck)
		}
		fracs[i] = f
		if f > maxFrac {
			maxFrac = f
		}
	}
	// Scale so the largest node is 90% available.
	scale := 0.9 / maxFrac
	for i, f := range fracs {
		avail := f * scale
		node := c.Node(i)
		cpuLoad := 1 - avail
		memFree := node.Spec.MemoryMB * avail
		node.ClearLoad()
		node.AddLoad(cluster.Step{CPU: cpuLoad, MemMB: node.Spec.MemoryMB - memFree})
	}
	return nil
}

// paperCapacities are the four-node relative capacities used throughout the
// paper's controlled experiments.
func paperCapacities() []float64 { return []float64{0.16, 0.19, 0.31, 0.34} }

// paperConfig is the paper's run: the RM3D hierarchy and oracle workload
// under ACEHeterogeneous, regridding every 5 iterations and sensing once
// before the start. Each study changes only the fields it varies.
func paperConfig(name string, iters int) engine.Config {
	return engine.Config{
		Name:        name,
		Hierarchy:   RM3DHierarchy(),
		App:         engine.NewRM3DOracle(),
		Partitioner: partition.NewHetero(),
		Iterations:  iters,
		RegridEvery: 5,
		Obs:         obsRT,
	}
}

// workstations is the paper's hardware: n identical Linux workstations.
func workstations(n int) []cluster.NodeSpec {
	return cluster.Uniform(n, cluster.LinuxWorkstation())
}

// run executes cfg from a cold cluster of the given nodes, with loads
// applied first (nil = idle).
func run(cfg engine.Config, nodes []cluster.NodeSpec, loads func(*cluster.Cluster)) (*runlog.RunTrace, error) {
	clus, err := cluster.New(nodes, cluster.DefaultParams())
	if err != nil {
		return nil, err
	}
	if loads != nil {
		loads(clus)
	}
	e, err := engine.New(cfg, clus)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// versusDefault runs cfg, then the same run under the GrACE default
// partitioner (ACEComposite), the comparison behind Figure 7.
func versusDefault(cfg engine.Config, nodes []cluster.NodeSpec, loads func(*cluster.Cluster)) (ht, dt *runlog.RunTrace, err error) {
	if ht, err = run(cfg, nodes, loads); err != nil {
		return nil, nil, err
	}
	cfg.Name = "default"
	cfg.Partitioner = partition.NewComposite(2)
	dt, err = run(cfg, nodes, loads)
	return ht, dt, err
}

// ftAdvection is the crash studies' SPMD run: 2-D advection on 16 tiles over
// 4 equal ranks with membership on, repartitioning and checkpointing
// (synchronously, into dir) every 4 iterations.
func ftAdvection(iters int, dir string) engine.SPMDConfig {
	return engine.SPMDConfig{
		Domain:       geom.Box2(0, 0, 31, 31),
		TileSize:     8,
		Kernel:       solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1),
		BaseGrid:     solver.UniformGrid(1.0 / 32),
		Partitioner:  partition.NewHetero(),
		CapsAt:       func(int) []float64 { return []float64{0.25, 0.25, 0.25, 0.25} },
		Iterations:   iters,
		RepartEvery:  4,
		RecvDeadline: 500 * time.Millisecond,
		Obs:          obsRT,
		FT: engine.FTConfig{
			Enabled:         true,
			CheckpointEvery: 4,
			CheckpointDir:   dir,
			SyncCheckpoint:  true,
		},
	}
}

// runGroup runs cfg on every rank of an in-process group of n and returns
// the ranks' results. With faulty, each endpoint sits behind a (fault-free)
// transport.Faulty, which a crash schedule in cfg needs to silence a rank.
func runGroup(n int, cfg engine.SPMDConfig, faulty bool) ([]*engine.SPMDResult, error) {
	eps, err := transport.NewGroup(n)
	if err != nil {
		return nil, err
	}
	if faulty {
		for i, ep := range eps {
			eps[i] = transport.NewFaulty(ep, transport.FaultSpec{})
		}
	}
	results := make([]*engine.SPMDResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = engine.RunSPMDRank(eps[r], cfg)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// composeField gathers the interior cells of field 0 from every rank that
// finished the run.
func composeField(results []*engine.SPMDResult) map[geom.Point]float64 {
	field := map[geom.Point]float64{}
	for _, r := range results {
		if r.Crashed {
			continue
		}
		for _, p := range r.Patches {
			p.EachInterior(func(pt geom.Point) { field[pt] = p.At(0, pt) })
		}
	}
	return field
}

// sameField reports that two composed fields hold the same cells, bit for
// bit.
func sameField(got, want map[geom.Point]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for pt, w := range want {
		if got[pt] != w {
			return false
		}
	}
	return true
}
