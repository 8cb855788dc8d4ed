// Package exp defines the paper's experiments — every table and figure of
// the evaluation section — as reusable, deterministic functions over the
// virtual cluster. cmd/experiments renders them; the package's own tests
// assert the *shape* criteria recorded in EXPERIMENTS.md (who wins, by
// roughly what factor, where the optima fall).
package exp

import (
	"fmt"

	"samrpart/internal/amr"
	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
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

// runConfig bundles one engine run.
type runConfig struct {
	name        string
	nodes       int
	loads       func(*cluster.Cluster)
	partitioner partition.Partitioner
	iterations  int
	regridEvery int
	senseEvery  int
	hierarchy   *amr.Config // nil = RM3DHierarchy
}

// run executes one configuration from a cold cluster.
func run(rc runConfig) (*runlog.RunTrace, error) {
	clus, err := NewCluster(rc.nodes)
	if err != nil {
		return nil, err
	}
	if rc.loads != nil {
		rc.loads(clus)
	}
	h := RM3DHierarchy()
	if rc.hierarchy != nil {
		h = *rc.hierarchy
	}
	cfg := engine.Config{
		Name:        rc.name,
		Hierarchy:   h,
		App:         engine.NewRM3DOracle(),
		Partitioner: rc.partitioner,
		Iterations:  rc.iterations,
		RegridEvery: rc.regridEvery,
		SenseEvery:  rc.senseEvery,
		Obs:         obsRT,
	}
	e, err := engine.New(cfg, clus)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
