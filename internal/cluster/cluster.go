// Package cluster models a heterogeneous, dynamic workstation cluster in
// virtual time: per-node CPU speed, memory and link bandwidth, perturbed by
// synthetic background-load generators (the paper's controlled-experiment
// setup), plus the execution-time model the runtime charges compute,
// communication and sensing against.
//
// The real experiments ran on a 32-node Linux cluster on fast Ethernet; this
// model substitutes deterministic analytic nodes so that both partitioners
// see identical, reproducible system dynamics — exactly the role of the
// paper's synthetic load generator.
package cluster

import (
	"fmt"
)

// NodeSpec is the static hardware description of one cluster node.
type NodeSpec struct {
	// Name identifies the node ("node07").
	Name string
	// SpeedMFlops is the peak compute rate at 100% CPU availability.
	SpeedMFlops float64
	// MemoryMB is the total physical memory.
	MemoryMB float64
	// BandwidthMBps is the NIC bandwidth (fast Ethernet ~ 12.5 MB/s).
	BandwidthMBps float64
}

// validate checks that the spec is physically meaningful.
func (s NodeSpec) validate() error {
	if s.SpeedMFlops <= 0 || s.MemoryMB <= 0 || s.BandwidthMBps <= 0 {
		return fmt.Errorf("cluster: non-positive resource in spec %+v", s)
	}
	return nil
}

// minAvail floors CPU availability: even a thrashing node makes some
// progress, and a zero floor would produce infinite step times.
const minAvail = 0.02

// Node couples a hardware spec with background-load generators. Load
// generators consume CPU and memory as functions of virtual time.
type Node struct {
	Spec NodeSpec
	gens []LoadGenerator
}

// newNode returns a node with no background load.
func newNode(spec NodeSpec) (*Node, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &Node{Spec: spec}, nil
}

// AddLoad attaches a background-load generator to the node; multiple
// generators compose additively (the paper runs several per node to create
// "interesting load dynamics").
func (n *Node) AddLoad(g LoadGenerator) { n.gens = append(n.gens, g) }

// ClearLoad removes all generators.
func (n *Node) ClearLoad() { n.gens = nil }

// CPUAvail returns the fraction of CPU available to the application at
// virtual time t, in [minAvail, 1].
func (n *Node) CPUAvail(t float64) float64 {
	load := 0.0
	for _, g := range n.gens {
		load += g.CPULoad(t)
	}
	avail := 1 - load
	if avail < minAvail {
		avail = minAvail
	}
	if avail > 1 {
		avail = 1
	}
	return avail
}

// FreeMemoryMB returns the memory available to the application at time t
// (never below 1% of physical).
func (n *Node) FreeMemoryMB(t float64) float64 {
	used := 0.0
	for _, g := range n.gens {
		used += g.MemoryMB(t)
	}
	free := n.Spec.MemoryMB - used
	if min := 0.01 * n.Spec.MemoryMB; free < min {
		free = min
	}
	return free
}

// Bandwidth returns the link bandwidth available at time t. Background load
// is assumed CPU/memory bound (as in the paper's load generator), so the
// static NIC bandwidth is returned.
func (n *Node) Bandwidth(t float64) float64 { return n.Spec.BandwidthMBps }

// effectiveSpeed returns the application-visible compute rate at time t, in
// MFlop/s.
func (n *Node) effectiveSpeed(t float64) float64 {
	return n.Spec.SpeedMFlops * n.CPUAvail(t)
}

// Params tunes the execution-time model.
type Params struct {
	// latencySec is the per-message latency (fast Ethernet ~ 100 us).
	latencySec float64
	// probeCostSec is the virtual-time cost of probing the resource
	// monitor for one node and recomputing its capacity (the paper
	// measures ~0.5 s).
	probeCostSec float64
	// RegridCostSec is the fixed cost of one regrid+repartition cycle
	// (clustering, list exchange).
	RegridCostSec float64
}

// DefaultParams matches the paper's cluster: fast Ethernet latency and the
// measured 0.5 s NWS probe cost.
func DefaultParams() Params {
	return Params{
		latencySec:    100e-6,
		probeCostSec:  0.5,
		RegridCostSec: 0.05,
	}
}

// Cluster is a set of nodes sharing a virtual clock.
type Cluster struct {
	nodes  []*Node
	params Params
	clock  float64
}

// New builds a cluster from node specs.
func New(specs []NodeSpec, params Params) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	c := &Cluster{params: params}
	for _, s := range specs {
		n, err := newNode(s)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns node k.
func (c *Cluster) Node(k int) *Node { return c.nodes[k] }

// Params returns the time-model parameters.
func (c *Cluster) Params() Params { return c.params }

// Now returns the current virtual time in seconds.
func (c *Cluster) Now() float64 { return c.clock }

// Advance moves the virtual clock forward by dt seconds.
func (c *Cluster) Advance(dt float64) {
	if dt < 0 {
		panic("cluster: negative time advance")
	}
	c.clock += dt
}

// thrashFloor bounds the slowdown of a fully swapping node.
const thrashFloor = 0.08

// ComputeTimeMem returns how long node k needs for mflops floating point
// operations (in Mflops) at the current instant's availability, under
// memory pressure: when the working set exceeds the node's free memory the
// node pages, and its effective speed degrades proportionally to the
// resident fraction (floored — a year-2001 workstation swapping to disk
// still made some progress). This is the mechanism that makes the capacity
// metric's memory term (w_m) matter.
func (c *Cluster) ComputeTimeMem(k int, mflops, workingSetMB float64) float64 {
	speed := c.nodes[k].effectiveSpeed(c.clock)
	if free := c.nodes[k].FreeMemoryMB(c.clock); workingSetMB > free && workingSetMB > 0 {
		resident := free / workingSetMB
		if resident < thrashFloor {
			resident = thrashFloor
		}
		speed *= resident
	}
	return mflops / speed
}

// CommTime returns the time node k needs to transfer bytes split over msgs
// messages.
func (c *Cluster) CommTime(k int, bytes float64, msgs int) float64 {
	bw := c.nodes[k].Bandwidth(c.clock) * 1e6
	return bytes/bw + float64(msgs)*c.params.latencySec
}

// SenseTime returns the virtual-time overhead of one full sensing sweep
// (probing every node, as the paper's capacity calculator does).
func (c *Cluster) SenseTime() float64 {
	return c.params.probeCostSec * float64(len(c.nodes))
}

// Uniform builds n identical nodes, the homogeneous-hardware configuration
// of the paper's cluster (heterogeneity comes from background load).
func Uniform(n int, spec NodeSpec) []NodeSpec {
	specs := make([]NodeSpec, n)
	for i := range specs {
		s := spec
		s.Name = fmt.Sprintf("node%02d", i)
		specs[i] = s
	}
	return specs
}

// LinuxWorkstation is a year-2001 Linux cluster node: ~300 MFlop/s
// sustained, 256 MB memory, fast Ethernet.
func LinuxWorkstation() NodeSpec {
	return NodeSpec{SpeedMFlops: 300, MemoryMB: 256, BandwidthMBps: 12.5}
}
