package engine

import (
	"math"
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/cluster"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
)

func rmDomain() geom.Box { return geom.Box3(0, 0, 0, 127, 31, 31) }

func rm3dHierarchyConfig() amr.Config {
	return amr.Config{
		Domain:        rmDomain(),
		RefineRatio:   2,
		MaxLevels:     3,
		NestingBuffer: 1,
		Cluster:       amr.ClusterOptions{Efficiency: 0.7, MinSide: 4, MaxSide: 32},
	}
}

func newCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Uniform(nodes, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func baseConfig() Config {
	return Config{
		Hierarchy:   rm3dHierarchyConfig(),
		App:         NewRM3DOracle(),
		Partitioner: partition.NewHetero(),
		Iterations:  20,
		RegridEvery: 5,
	}
}

func TestConfigValidation(t *testing.T) {
	clus := newCluster(t, 4)
	bad := []func(*Config){
		func(c *Config) { c.App = nil },
		func(c *Config) { c.Partitioner = nil },
		func(c *Config) { c.Iterations = 0 },
		func(c *Config) { c.RegridEvery = 0 },
		func(c *Config) { c.SenseEvery = -1 },
		func(c *Config) { c.Hierarchy.RefineRatio = 1 },
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := New(cfg, clus); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOracleFlagsTrackFeatures(t *testing.T) {
	o := NewRM3DOracle()
	h, err := amr.New(rm3dHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	flags, err := o.Flags(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(flags) == 0 || flags[0].Count() == 0 {
		t.Fatal("oracle produced no flags")
	}
	b0, _ := flags[0].FlaggedBounds(flags[0].Box)
	// Later iteration: the fast feature has moved right.
	flags2, _ := o.Flags(h, 12)
	b1, _ := flags2[0].FlaggedBounds(flags2[0].Box)
	if b1.Hi[0] <= b0.Hi[0] {
		t.Errorf("feature did not advance: %v -> %v", b0, b1)
	}
	// Flags stay inside the domain.
	if !b0.Intersect(h.LevelDomain(0)).Equal(b0) {
		t.Error("flags escape domain")
	}
}

func TestFeatureBounces(t *testing.T) {
	f := feature{pos: 0, speed: 1}
	nx := 128.0
	for iter := 0; iter < 600; iter++ {
		p := f.positionAt(iter, nx)
		if p < 0 || p > nx-1 {
			t.Fatalf("position %g out of range at iter %d", p, iter)
		}
	}
	// After a full period the feature returns to start.
	if p := f.positionAt(254, nx); math.Abs(p-0) > 1e-9 {
		t.Errorf("period mismatch: %g", p)
	}
}

func TestFeatureWidthFloor(t *testing.T) {
	f := feature{halfWidth: 0.5, pulsate: 0.9}
	for iter := 0; iter < 50; iter++ {
		if f.widthAt(iter) < 1 {
			t.Fatal("width below floor")
		}
	}
}

func TestEngineRunProducesTrace(t *testing.T) {
	clus := newCluster(t, 4)
	clus.Node(0).AddLoad(cluster.Step{CPU: 0.6, MemMB: 100})
	cfg := baseConfig()
	cfg.Name = "unit"
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Regrids at iter 0, 5, 10, 15 -> 4 records.
	if len(tr.Records) != 4 {
		t.Errorf("records = %d, want 4", len(tr.Records))
	}
	if tr.ExecTime <= 0 || tr.ComputeTime <= 0 {
		t.Errorf("times: exec %g compute %g", tr.ExecTime, tr.ComputeTime)
	}
	if tr.Senses != 1 {
		t.Errorf("senses = %d, want 1 (static)", tr.Senses)
	}
	if tr.Name != "unit" || tr.Nodes != 4 || tr.Iterations != 20 {
		t.Errorf("trace metadata wrong: %+v", tr)
	}
	// Capacities in effect sum to 1 and penalize the loaded node.
	caps := e.Capacities()
	sum := 0.0
	for _, c := range caps {
		sum += c
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("caps sum %g", sum)
	}
	if caps[0] >= caps[1] {
		t.Errorf("loaded node not penalized: %v", caps)
	}
	// Hierarchy developed refinement; assignment covers it.
	if e.Hierarchy().NumLevels() < 2 {
		t.Error("no refinement developed")
	}
	boxes := e.Hierarchy().AllBoxes()
	if err := e.assign.Validate(boxes, partition.SubcycledWork(2)); err != nil {
		t.Errorf("final assignment invalid: %v", err)
	}
	var total float64
	for _, b := range boxes {
		total += partition.SubcycledWork(2)(b)
	}
	if math.Abs(e.assign.TotalWork()-total) > 1e-6*total {
		t.Error("assignment does not cover hierarchy work")
	}
}

func TestEngineSensingIntervalCounts(t *testing.T) {
	clus := newCluster(t, 4)
	cfg := baseConfig()
	cfg.SenseEvery = 5
	cfg.Iterations = 20
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Senses at start + iters 5, 10, 15 = 4.
	if tr.Senses != 4 {
		t.Errorf("senses = %d, want 4", tr.Senses)
	}
	if tr.SenseTime <= 0 {
		t.Error("sense time not charged")
	}
}

func TestDynamicSensingBeatsStaticUnderRamp(t *testing.T) {
	// Table II's shape in miniature: load ramps up during the run; dynamic
	// sensing adapts, static does not.
	run := func(senseEvery int) float64 {
		clus := newCluster(t, 4)
		clus.Node(0).AddLoad(cluster.Ramp{Start: 5, Rate: 0.05, Target: 0.85, MemTargetMB: 150})
		clus.Node(1).AddLoad(cluster.Ramp{Start: 10, Rate: 0.05, Target: 0.7, MemTargetMB: 120})
		cfg := baseConfig()
		cfg.Iterations = 60
		cfg.SenseEvery = senseEvery
		e, err := New(cfg, clus)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tr.ExecTime
	}
	static := run(0)
	dynamic := run(10)
	if dynamic >= static {
		t.Errorf("dynamic sensing (%.1fs) not better than static (%.1fs)", dynamic, static)
	}
}

func TestHeteroBeatsCompositeOnLoadedCluster(t *testing.T) {
	run := func(p partition.Partitioner) float64 {
		clus := newCluster(t, 4)
		clus.Node(0).AddLoad(cluster.Step{CPU: 0.6, MemMB: 120})
		clus.Node(1).AddLoad(cluster.Step{CPU: 0.4, MemMB: 80})
		cfg := baseConfig()
		cfg.Partitioner = p
		cfg.Iterations = 30
		e, err := New(cfg, clus)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tr.ExecTime
	}
	hetero := run(partition.NewHetero())
	composite := run(partition.NewComposite(2))
	if hetero >= composite {
		t.Errorf("hetero (%.1fs) not faster than composite (%.1fs)", hetero, composite)
	}
}

func TestUtilizationTracksBalance(t *testing.T) {
	run := func(p partition.Partitioner) float64 {
		clus := newCluster(t, 4)
		clus.Node(0).AddLoad(cluster.Step{CPU: 0.7, MemMB: 100})
		cfg := baseConfig()
		cfg.Partitioner = p
		e, err := New(cfg, clus)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Utilization) != 4 {
			t.Fatalf("utilization for %d nodes", len(tr.Utilization))
		}
		for k, u := range tr.Utilization {
			if u <= 0 || u > 1+1e-9 {
				t.Fatalf("node %d utilization %g out of (0,1]", k, u)
			}
		}
		return tr.MeanUtilization()
	}
	hetero := run(partition.NewHetero())
	composite := run(partition.NewComposite(2))
	// Capacity-aware assignment keeps all nodes busier: higher mean
	// utilization than the equal-split default on a skewed cluster.
	if hetero <= composite {
		t.Errorf("hetero utilization %.2f not above composite %.2f", hetero, composite)
	}
	// Equal capacity weights deliberately under-correct pure-CPU skew (see
	// the weights ablation), so utilization is well below 1 but must stay
	// clearly above an idle-heavy default.
	if hetero < 0.5 {
		t.Errorf("hetero utilization %.2f suspiciously low", hetero)
	}
}

func TestMovedBytes(t *testing.T) {
	b1 := geom.Box2(0, 0, 7, 7)
	b2 := geom.Box2(8, 0, 15, 7)
	old := &partition.Assignment{
		Boxes:  geom.BoxList{b1, b2},
		Owners: []int{0, 1},
		Work:   []float64{64, 64},
		Ideal:  []float64{64, 64},
	}
	nw := &partition.Assignment{
		Boxes:  geom.BoxList{b1, b2},
		Owners: []int{1, 1}, // b1 moved 0 -> 1
		Work:   []float64{0, 128},
		Ideal:  []float64{64, 64},
	}
	moved, retained := movedBytes(old, nw, 8, 2)
	if moved[0] != 0 || moved[1] != 64*8 {
		t.Errorf("moved = %v", moved)
	}
	if retained != 64*8 { // b2 stayed on node 1
		t.Errorf("retained = %v, want %v", retained, 64*8)
	}
	// No movement: zero bytes moved, everything retained.
	same, kept := movedBytes(old, old, 8, 2)
	if same[0] != 0 || same[1] != 0 {
		t.Errorf("no-op move = %v", same)
	}
	if kept != 128*8 {
		t.Errorf("no-op retained = %v, want %v", kept, 128*8)
	}
}

func TestStepCostReflectsLoad(t *testing.T) {
	clus := newCluster(t, 2)
	cfg := baseConfig()
	cfg.Iterations = 1
	cfg.RegridEvery = 1
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	c1, _, _ := e.stepCost()
	// Load node 0 heavily: capacities are stale (sensed once), so the
	// same assignment now costs more.
	clus.Node(0).AddLoad(cluster.Step{CPU: 0.9})
	c2, _, _ := e.stepCost()
	if c2 <= c1 {
		t.Errorf("step cost ignored load: %g vs %g", c1, c2)
	}
}

func TestSimAppAdvectionEndToEnd(t *testing.T) {
	// Real numerics through the engine: 2D advection on a small domain.
	k := solver.NewAdvection2D(1.0, 0.4, 0.25, 0.25, 0.08)
	app := NewSimApp(k, solver.UniformGrid(1.0/32), 0.08)
	clus := newCluster(t, 2)
	cfg := Config{
		Hierarchy: amr.Config{
			Domain:        geom.Box2(0, 0, 31, 31),
			RefineRatio:   2,
			MaxLevels:     2,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.6, MinSide: 2},
		},
		App:         app,
		Partitioner: partition.NewHetero(),
		Iterations:  8,
		RegridEvery: 2,
	}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ExecTime <= 0 {
		t.Error("no virtual time elapsed")
	}
	h := e.Hierarchy()
	if h.NumLevels() < 2 {
		t.Fatal("advection pulse did not trigger refinement")
	}
	// Every hierarchy box has a patch; solution respects the max principle.
	for _, b := range h.AllBoxes() {
		p, ok := app.Patch(b)
		if !ok {
			t.Fatalf("no patch for %v", b)
		}
		p.EachInterior(func(pt geom.Point) {
			v := p.At(0, pt)
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("solution out of bounds at %v: %g", pt, v)
			}
		})
	}
	// Refined region follows the pulse (pulse started at (8,8) cells and
	// moves +x +y).
	l1 := h.Level(1)
	bb, err := l1.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	if bb.Lo[0] < 4 {
		t.Errorf("refinement did not follow the pulse: %v", bb)
	}
}

func TestSimAppBuckleyEndToEnd(t *testing.T) {
	k := solver.NewBuckleyLeverett(1.0, 0.3)
	app := NewSimApp(k, solver.UniformGrid(1.0/32), 0.1)
	clus := newCluster(t, 3)
	cfg := Config{
		Hierarchy: amr.Config{
			Domain:        geom.Box2(0, 0, 31, 31),
			RefineRatio:   2,
			MaxLevels:     2,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.6, MinSide: 2},
		},
		App:         app,
		Partitioner: partition.NewComposite(2),
		Iterations:  6,
		RegridEvery: 3,
	}
	e, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, b := range e.Hierarchy().AllBoxes() {
		p, _ := app.Patch(b)
		if p == nil {
			t.Fatalf("missing patch %v", b)
		}
		p.EachInterior(func(pt geom.Point) {
			s := p.At(0, pt)
			if s < 0 || s > 1 {
				t.Fatalf("saturation %g out of bounds", s)
			}
		})
	}
}
