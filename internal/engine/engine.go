package engine

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"samrpart/internal/amr"
	"samrpart/internal/capacity"
	"samrpart/internal/checkpoint"
	"samrpart/internal/cluster"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/parallel"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

// Config describes one experiment run.
type Config struct {
	// Name labels the run in traces.
	Name string
	// Hierarchy configures the AMR grid hierarchy.
	Hierarchy amr.Config
	// App supplies flags, optional numerics, and cost coefficients.
	App Application
	// Partitioner distributes the bounding-box list.
	Partitioner partition.Partitioner
	// Weights configure the capacity metric (default: equal).
	Weights capacity.Weights
	// Iterations is the number of coarse time steps to run.
	Iterations int
	// RegridEvery regrids (and repartitions) every N iterations (the
	// paper regrids every 5). Must be >= 1.
	RegridEvery int
	// SenseEvery re-senses system state every N iterations; 0 senses only
	// once before the run starts (the paper's "static" configuration).
	SenseEvery int
	// Forecaster names the monitor's per-resource forecaster ("last",
	// "mean", "median", "ewma", "adaptive"). Empty selects "last": the
	// paper's capacity calculator distributes on the *current* system
	// state as reported by NWS.
	Forecaster string
	// Workers is the intra-node worker count: applications that support
	// patch-level parallelism (WorkerConfigurable) and the monitor's probe
	// sweep fan out over it. 0 uses all cores, 1 forces serial execution.
	// Either way the run is bit-identical.
	Workers int
	// CheckpointEvery writes a checkpoint to CheckpointPath every N
	// iterations (0 disables). The state is captured synchronously at the
	// iteration boundary; the file write happens in the background and is
	// waited on before Run returns.
	CheckpointEvery int
	// CheckpointPath is the checkpoint file (overwritten atomically on each
	// periodic checkpoint). Required when CheckpointEvery > 0.
	CheckpointPath string
	// CheckpointKeep, when > 0, additionally retains the N newest periodic
	// checkpoints as iteration-stamped siblings of CheckpointPath
	// (checkpoint.RotatedPath), so a corrupted primary file can fall back to
	// an earlier intact epoch via checkpoint.LoadFileFallback.
	CheckpointKeep int
	// Faults schedules fault injection on the virtual cluster. A crash
	// saturates the node with an unbounded external load from its iteration
	// on; a rejoin lifts that load again; pause and slow windows are gray
	// failures (the node saturates or dilates for [Iter, Until)). When
	// sensing is enabled (SenseEvery > 0) the engine re-senses and
	// repartitions immediately at a crash or rejoin, so the surviving
	// capacity absorbs the work and flows back afterwards (the
	// virtual-cluster analogue of the SPMD runtime's rank recovery); a
	// static configuration never notices and keeps the dead node's share
	// assigned to it.
	Faults FaultSchedule
	// Straggler enables the gray-failure detector on the control loop: the
	// per-node compute times already charged by the cost model feed an
	// EWMA/MAD slow-node detector, and sensed capacities are demoted by its
	// shed/quarantine factors before partitioning, so work flows off a
	// degrading node before its sensor ever reports trouble. Off, the run
	// is bit-identical to one without the detector.
	Straggler bool
	// SensorFaults, when set, wraps the monitor's prober with deterministic
	// sensor-fault injection (timeouts, dropouts, frozen readings, garbage
	// values) — the sensing-layer analogue of the transport fault spec.
	SensorFaults *monitor.ProbeFaultSpec
	// Hygiene switches on the monitor's sensing hygiene (sanitization, MAD
	// outlier rejection, health tracking, staleness decay). Off keeps the
	// raw pre-hygiene behaviour bit for bit.
	Hygiene bool
	// AffinityRemap relabels each adopted assignment's ownership groups
	// (partition.RemapOwners) so they land on the nodes already holding
	// most of their cells, shrinking redistribution volume without changing
	// the partition's balance.
	AffinityRemap bool
	// RepartitionThreshold is the control loop's hysteresis bound in
	// imbalance percentage points: a sense-triggered repartition is only
	// adopted when it improves the predicted max-imbalance by more than
	// this, so a jittery-but-balanced cluster is not repeatedly thrashed by
	// redistribution whose cost exceeds the imbalance it removes. 0 keeps
	// the always-repartition behaviour. Regrid-triggered repartitions are
	// never skipped (the box list changed).
	RepartitionThreshold float64
	// Obs, when set, receives control-loop metrics and state snapshots, and
	// the loop's phase spans as rank -1 (histograms always, run-log records
	// when the runtime has a log). Nil disables observability entirely; the
	// run is then bit-identical to an uninstrumented one.
	Obs *obs.Runtime
}

func (c Config) validate() error {
	if c.App == nil {
		return fmt.Errorf("engine: nil application")
	}
	if c.Partitioner == nil {
		return fmt.Errorf("engine: nil partitioner")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("engine: iterations %d < 1", c.Iterations)
	}
	if c.RegridEvery < 1 {
		return fmt.Errorf("engine: regrid interval %d < 1", c.RegridEvery)
	}
	if c.SenseEvery < 0 {
		return fmt.Errorf("engine: negative sense interval")
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("engine: negative checkpoint interval")
	}
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("engine: CheckpointEvery set without CheckpointPath")
	}
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("engine: negative checkpoint retention")
	}
	if c.RepartitionThreshold < 0 || math.IsNaN(c.RepartitionThreshold) {
		return fmt.Errorf("engine: repartition threshold %g must be >= 0", c.RepartitionThreshold)
	}
	if c.SensorFaults != nil {
		if err := c.SensorFaults.Validate(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	return c.Hierarchy.Validate()
}

// Engine executes an adaptive application on the virtual cluster: the
// GrACE-style loop of integrate → regrid → sense → partition →
// redistribute, with all costs charged to the cluster's virtual clock.
type Engine struct {
	cfg  Config
	clus *cluster.Cluster
	mon  *monitor.Monitor
	hier *amr.Hierarchy

	caps        []float64
	assign      *partition.Assignment
	tr          *runlog.RunTrace
	busySeconds []float64

	// Fault-schedule state: the open crash load per node (closed again by a
	// rejoin event) and the open gray-failure windows per cfg.Faults index.
	crashGens map[int]*faultWindow
	grayGens  map[int]*faultWindow
	strag     *monitor.StragglerDetector // nil unless cfg.Straggler

	ob    engineObs
	pubMu sync.Mutex
	pub   engineState

	// stepCost scratch, reused every iteration so the cost model allocates
	// nothing on the per-step path.
	costFlops, costBytes, costResident, costPerNode []float64
	costMsgs                                        []int
}

// New builds an engine on the given cluster with an adaptive-forecast
// monitor.
func New(cfg Config, clus *cluster.Cluster) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Weights == (capacity.Weights{}) {
		cfg.Weights = capacity.EqualWeights()
	}
	h, err := amr.New(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	fname := cfg.Forecaster
	if fname == "" {
		fname = "last"
	}
	if _, err := monitor.NewForecaster(fname); err != nil {
		return nil, err
	}
	var prober monitor.Prober = monitor.ClusterProber{C: clus}
	if cfg.SensorFaults != nil {
		prober = monitor.NewFaultyProber(prober, *cfg.SensorFaults)
	}
	mon := monitor.New(prober, func() monitor.Forecaster {
		f, _ := monitor.NewForecaster(fname)
		return f
	})
	mon.SetHygiene(cfg.Hygiene)
	mon.SetWorkers(parallel.Workers(cfg.Workers))
	if wc, ok := cfg.App.(WorkerConfigurable); ok {
		wc.SetWorkers(cfg.Workers)
	}
	if err := cfg.Faults.validate(clus.NumNodes()); err != nil {
		return nil, err
	}
	mon.SetObs(cfg.Obs.Registry())
	e := &Engine{
		cfg:       cfg,
		clus:      clus,
		mon:       mon,
		hier:      h,
		crashGens: make(map[int]*faultWindow),
		grayGens:  make(map[int]*faultWindow),
		ob:        newEngineObs(cfg.Obs, clus.NumNodes()),
	}
	if cfg.Straggler {
		e.strag = monitor.NewStragglerDetector(clus.NumNodes())
	}
	return e, nil
}

// faultWindow is a load generator whose stop time is set after installation
// — cluster.Step fixes its window at construction, but a rejoin or window
// close only learns its virtual timestamp when the event fires.
type faultWindow struct {
	start float64
	stop  float64 // 0 = still open
	cpu   float64
	memMB float64
}

// CPULoad implements cluster.LoadGenerator.
func (w *faultWindow) CPULoad(t float64) float64 {
	if t < w.start || (w.stop > 0 && t >= w.stop) {
		return 0
	}
	return w.cpu
}

// MemoryMB implements cluster.LoadGenerator.
func (w *faultWindow) MemoryMB(t float64) float64 {
	if t < w.start || (w.stop > 0 && t >= w.stop) {
		return 0
	}
	return w.memMB
}

// Hierarchy exposes the current grid hierarchy.
func (e *Engine) Hierarchy() *amr.Hierarchy { return e.hier }

// work returns the box weight function for the hierarchy.
func (e *Engine) work() partition.WorkFunc {
	return partition.SubcycledWork(e.cfg.Hierarchy.RefineRatio)
}

// sense probes the monitor, recomputes capacities and charges the probe
// cost. Dead-sensor nodes are masked out of the capacity metric; a sweep
// whose capacities cannot be computed at all (garbage measurements, every
// sensor dead) keeps the previous capacities — or falls back to a uniform
// split before any are known — instead of aborting the run.
func (e *Engine) sense(iter int) error {
	sp := e.ob.tr.Span(trace.PhaseSense)
	defer sp.End()
	ms := e.mon.Sense(e.clus.Now())
	caps, err := capacity.RelativeMasked(ms, e.cfg.Weights, e.mon.Alive())
	if err == nil && e.strag != nil {
		// Demote shed/quarantined nodes before the capacities are adopted,
		// then renormalize to the unit sum the partitioners require. A
		// quarantined node keeps a tiny floor so quotas stay finite even if
		// every node were quarantined at once.
		sum := 0.0
		for k := range caps {
			if f := e.strag.CapacityFactor(k); f < 1 {
				caps[k] *= f
				if caps[k] < 1e-3 {
					caps[k] = 1e-3
				}
			}
			sum += caps[k]
		}
		for k := range caps {
			caps[k] /= sum
		}
	}
	switch {
	case err == nil:
		e.caps = caps
	case e.caps != nil:
		e.tr.SenseFailures++
		e.ob.senseFailures.Inc()
	case e.cfg.Hygiene:
		e.tr.SenseFailures++
		e.ob.senseFailures.Inc()
		e.caps = partition.UniformCaps(e.clus.NumNodes())
	default:
		// Raw mode before any capacities are known: surface the error, the
		// pre-hygiene contract.
		return fmt.Errorf("engine: capacity: %w", err)
	}
	cost := e.clus.SenseTime()
	e.clus.Advance(cost)
	e.tr.SenseTime += cost
	e.tr.Senses++
	e.ob.senses.Inc()
	e.ob.setCaps(e.caps)
	e.publish(iter)
	return nil
}

// trueCaps computes the ground-truth relative capacities straight from the
// cluster state, bypassing fault injection and forecasting — observability
// only, never fed back into the control loop.
func (e *Engine) trueCaps() []float64 {
	p := monitor.ClusterProber{C: e.clus}
	ms := make([]capacity.Measurement, e.clus.NumNodes())
	// ClusterProber is read-only, so the ground-truth sweep fans out over
	// the worker pool; each probe writes only its own slot and Relative
	// folds the slice in index order, so the result is width-independent.
	parallel.For(e.cfg.Workers, len(ms), func(k int) {
		ms[k] = p.Probe(k)
	})
	caps, err := capacity.Relative(ms, e.cfg.Weights)
	if err != nil {
		return nil
	}
	return caps
}

// partitionValidated runs the configured partitioner and validates its
// output before anything is adopted. On error or invalid output it walks
// the degradation chain — ACEHeterogeneous, then ACEComposite — counting
// every fallback; only when no partitioner produces a valid assignment does
// it return the original error (the caller then decides whether the
// last-good assignment can be kept).
func (e *Engine) partitionValidated(boxes geom.BoxList) (*partition.Assignment, error) {
	work := e.work()
	try := func(p partition.Partitioner) (*partition.Assignment, error) {
		a, err := p.Partition(boxes, e.caps, work)
		if err != nil {
			return nil, err
		}
		if err := a.Validate(boxes, work); err != nil {
			e.tr.Degraded.InvalidRejected++
			e.ob.fallbacks[fbInvalidRejected].Inc()
			return nil, fmt.Errorf("engine: invalid assignment from %s: %w", p.Name(), err)
		}
		return a, nil
	}
	a, err := try(e.cfg.Partitioner)
	if err == nil {
		return a, nil
	}
	e.tr.Degraded.PartitionErrors++
	if _, isHetero := e.cfg.Partitioner.(*partition.Hetero); !isHetero {
		if a, err2 := try(partition.NewHetero()); err2 == nil {
			e.tr.Degraded.FallbackHetero++
			e.ob.fallbacks[fbHetero].Inc()
			return a, nil
		}
	}
	if _, isComposite := e.cfg.Partitioner.(*partition.Composite); !isComposite {
		if a, err2 := try(partition.NewComposite(e.cfg.Hierarchy.RefineRatio)); err2 == nil {
			e.tr.Degraded.FallbackComposite++
			e.ob.fallbacks[fbComposite].Inc()
			return a, nil
		}
	}
	return nil, err
}

// currentImbalance returns the max-imbalance the standing assignment would
// have under the freshly sensed capacities (its work measured against the
// new ideal shares).
func (e *Engine) currentImbalance() float64 {
	total := e.assign.TotalWork()
	ideal := capacity.Shares(e.caps, total)
	return capacity.MaxImbalance(e.assign.Work, ideal)
}

// repartition runs the partitioner over the current hierarchy, charges the
// regrid/redistribution costs, and records the assignment. With maySkip set
// (sense-triggered calls under a positive RepartitionThreshold) the
// hysteresis guard applies: if the standing assignment is already within
// the threshold of ideal under the fresh capacities, or the candidate's
// improvement does not exceed the threshold, the standing assignment is
// kept and no redistribution is charged.
func (e *Engine) repartition(iter int, maySkip bool) error {
	hysteresis := maySkip && e.cfg.RepartitionThreshold > 0 && e.assign != nil
	if hysteresis && e.currentImbalance() <= e.cfg.RepartitionThreshold {
		// Nothing to gain: improvement is bounded by the current imbalance.
		e.tr.RepartitionsSkipped++
		e.ob.repartitionsSkipped.Inc()
		return nil
	}
	boxes := e.hier.AllBoxes()
	psp := e.ob.tr.Span(trace.PhasePartition)
	assign, err := e.partitionValidated(boxes)
	psp.End()
	if err == nil && e.cfg.AffinityRemap && e.assign != nil {
		// Movement-aware relabeling: keep each ownership group on the node
		// already holding most of its cells. Balance is preserved (the remap
		// never exceeds the unmapped max imbalance), so the hysteresis
		// comparison below still sees the partitioner's quality.
		rsp := e.ob.tr.Span(trace.PhaseRemap)
		assign = partition.RemapOwners(e.assign, assign)
		rsp.End()
	}
	if err != nil {
		// Degradation floor: ride the last valid assignment when the box
		// list is unchanged (sense-triggered repartitions); a regrid has no
		// such refuge — its old assignment covers the wrong boxes.
		if maySkip && e.assign != nil {
			e.tr.Degraded.KeptLastGood++
			e.ob.fallbacks[fbKeptLastGood].Inc()
			return nil
		}
		return fmt.Errorf("engine: partition: %w", err)
	}
	if hysteresis {
		// Partitioning work happened either way; charge it even if the
		// result is discarded.
		cost := e.clus.Params().RegridCostSec
		e.clus.Advance(cost)
		e.tr.RegridTime += cost
		if e.currentImbalance()-assign.MaxImbalance() <= e.cfg.RepartitionThreshold {
			e.tr.RepartitionsSkipped++
			e.ob.repartitionsSkipped.Inc()
			return nil
		}
		return e.adopt(iter, assign, false)
	}
	return e.adopt(iter, assign, true)
}

// adopt installs a validated assignment, charging redistribution (and,
// unless already charged by the hysteresis path, regrid) costs and
// recording the event.
func (e *Engine) adopt(iter int, assign *partition.Assignment, chargeRegrid bool) error {
	// Redistribution cost: cells whose owner changed move over the wire.
	if e.assign != nil {
		msp := e.ob.tr.Span(trace.PhaseMigrate)
		moved, retained := movedBytes(e.assign, assign, e.cfg.App.BytesPerCell(), e.clus.NumNodes())
		e.tr.RetainedBytes += retained
		e.ob.retainedBytes.Add(int64(retained))
		maxT := 0.0
		movedTotal := 0.0
		for k, bytes := range moved {
			if bytes == 0 {
				continue
			}
			e.tr.MovedBytes += bytes
			movedTotal += bytes
			if t := e.clus.CommTime(k, bytes, 1+int(bytes/65536)); t > maxT {
				maxT = t
			}
		}
		e.ob.movedBytes.Add(int64(movedTotal))
		e.clus.Advance(maxT)
		e.tr.CommTime += maxT
		msp.EndBytes(int64(movedTotal))
	}
	if chargeRegrid {
		cost := e.clus.Params().RegridCostSec
		e.clus.Advance(cost)
		e.tr.RegridTime += cost
	}
	e.assign = assign
	e.tr.Repartitions++
	e.ob.repartitions.Inc()
	e.ob.imbalance.Set(assign.MaxImbalance())
	e.tr.Records = append(e.tr.Records, runlog.AssignmentRecord{
		Regrid:      len(e.tr.Records) + 1,
		Iter:        iter,
		VirtualTime: e.clus.Now(),
		Caps:        append([]float64(nil), e.caps...),
		Work:        append([]float64(nil), assign.Work...),
		Ideal:       append([]float64(nil), assign.Ideal...),
		Boxes:       len(assign.Boxes),
		TrueCaps:    e.trueCaps(),
	})
	e.publish(iter)
	return nil
}

// movedBytes returns, per destination node, the bytes that change owner
// between two assignments, plus the total bytes that stay put (same owner on
// both sides of the repartition).
func movedBytes(old, new *partition.Assignment, bytesPerCell float64, nodes int) ([]float64, float64) {
	out := make([]float64, nodes)
	retained := 0.0
	idx := geom.NewIndex(old.Boxes)
	var hits []int
	for i, nb := range new.Boxes {
		newOwner := new.Owners[i]
		hits = idx.Query(nb, hits)
		for _, j := range hits {
			ob := old.Boxes[j]
			if ob.Level != nb.Level {
				continue
			}
			bytes := float64(nb.Intersect(ob).Cells()) * bytesPerCell
			if old.Owners[j] == newOwner {
				retained += bytes
			} else {
				out[newOwner] += bytes
			}
		}
	}
	return out, retained
}

// stepCost computes the virtual-time cost of one coarse iteration under the
// current assignment: the slowest node's compute plus ghost-exchange time.
// stepCost also returns each node's compute time so Run can accumulate
// utilization.
func (e *Engine) stepCost() (compute, comm float64, perNode []float64) {
	nodes := e.clus.NumNodes()
	if cap(e.costFlops) < nodes {
		e.costFlops = make([]float64, nodes)
		e.costBytes = make([]float64, nodes)
		e.costResident = make([]float64, nodes)
		e.costPerNode = make([]float64, nodes)
		e.costMsgs = make([]int, nodes)
	}
	flops := e.costFlops[:nodes]
	bytes := e.costBytes[:nodes]
	resident := e.costResident[:nodes] // working set, MB
	msgs := e.costMsgs[:nodes]
	for k := 0; k < nodes; k++ {
		flops[k], bytes[k], resident[k], msgs[k] = 0, 0, 0, 0
	}
	work := e.work()
	fpc := e.cfg.App.FlopsPerCell()
	bpc := e.cfg.App.BytesPerCell()
	ratio := e.cfg.Hierarchy.RefineRatio
	ghost := 1
	boxes := e.assign.Boxes
	owners := e.assign.Owners
	for i, b := range boxes {
		flops[owners[i]] += work(b) * fpc
		resident[owners[i]] += float64(b.Cells()) * bpc / 1e6
		// Ghost traffic: halo overlap with same-level boxes on other
		// nodes, exchanged once per sub-step of this level.
		grown := b.Grow(ghost)
		subSteps := float64(amr.StepsPerCoarse(b.Level, ratio))
		for j, nb := range boxes {
			if i == j || nb.Level != b.Level || owners[j] == owners[i] {
				continue
			}
			overlap := grown.Intersect(nb)
			if overlap.Empty() {
				continue
			}
			bytes[owners[i]] += float64(overlap.Cells()) * bpc * subSteps
			msgs[owners[i]] += int(subSteps)
		}
	}
	perNode = e.costPerNode[:nodes]
	for k := 0; k < nodes; k++ {
		e.tr.MsgsSent += int64(msgs[k])
		c := e.clus.ComputeTimeMem(k, flops[k]/1e6, resident[k])
		perNode[k] = c
		if c > compute {
			compute = c
		}
		if bytes[k] > 0 {
			if c := e.clus.CommTime(k, bytes[k], msgs[k]); c > comm {
				comm = c
			}
		}
	}
	return compute, comm, perNode
}

// Run executes the configured experiment and returns its run log.
func (e *Engine) Run() (*runlog.RunTrace, error) {
	e.tr = &runlog.RunTrace{
		Name:       e.cfg.Name,
		Nodes:      e.clus.NumNodes(),
		Iterations: e.cfg.Iterations,
	}
	if e.tr.Name == "" {
		e.tr.Name = fmt.Sprintf("%s/%s", e.cfg.App.Name(), e.cfg.Partitioner.Name())
	}
	if err := e.cfg.App.Regridded(e.hier); err != nil {
		return nil, err
	}
	start := e.clus.Now()
	// Initial sensing + partition (the paper always senses at least once
	// before the start of the simulation, and its execution times include
	// the sensing overhead).
	if err := e.sense(0); err != nil {
		return nil, err
	}
	if err := e.regridAndPartition(0); err != nil {
		return nil, err
	}
	var ckptWG sync.WaitGroup
	var ckptMu sync.Mutex
	var ckptErr error
	defer ckptWG.Wait()
	for iter := 0; iter < e.cfg.Iterations; iter++ {
		e.ob.iter.Set(float64(iter))
		e.ob.tr.SetPos(0, iter)
		if err := e.applyFaults(iter); err != nil {
			return nil, err
		}
		if e.cfg.SenseEvery > 0 && iter > 0 && iter%e.cfg.SenseEvery == 0 {
			if err := e.sense(iter); err != nil {
				return nil, err
			}
			// Fresh capacities take effect immediately: redistribute.
			if err := e.repartition(iter, true); err != nil {
				return nil, err
			}
		}
		if iter > 0 && iter%e.cfg.RegridEvery == 0 {
			if err := e.regridAndPartition(iter); err != nil {
				return nil, err
			}
		}
		if e.cfg.CheckpointEvery > 0 && iter > 0 && iter%e.cfg.CheckpointEvery == 0 {
			// Serialize synchronously at the iteration boundary — the state
			// references the live hierarchy and patch storage, which the
			// next regrid/Advance mutate — then write the bytes in the
			// background. Writes are serialized (and the latest state always
			// wins) because each waits for the previous one.
			csp := e.ob.tr.Span(trace.PhaseCheckpoint)
			st, err := e.Checkpoint(iter)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := checkpoint.Save(&buf, st); err != nil {
				return nil, err
			}
			csp.EndBytes(int64(buf.Len()))
			ckptWG.Wait()
			ckptWG.Add(1)
			go func(data []byte, iter int) {
				defer ckptWG.Done()
				fail := func(err error) {
					ckptMu.Lock()
					ckptErr = err
					ckptMu.Unlock()
				}
				if err := checkpoint.WriteFileAtomic(e.cfg.CheckpointPath, data); err != nil {
					fail(err)
					return
				}
				if e.cfg.CheckpointKeep > 0 {
					if err := checkpoint.WriteFileAtomic(checkpoint.RotatedPath(e.cfg.CheckpointPath, iter), data); err != nil {
						fail(err)
						return
					}
					if _, err := checkpoint.PruneRotated(e.cfg.CheckpointPath, e.cfg.CheckpointKeep); err != nil {
						fail(err)
					}
				}
			}(buf.Bytes(), iter)
		}
		sp := e.ob.tr.Span(trace.PhaseCompute)
		if err := e.cfg.App.Advance(e.hier, iter); err != nil {
			return nil, err
		}
		sp.End()
		compute, comm, perNode := e.stepCost()
		e.feedStraggler(perNode)
		e.clus.Advance(compute + comm)
		e.tr.ComputeTime += compute
		e.tr.CommTime += comm
		if e.tr.Utilization == nil {
			e.tr.Utilization = make([]float64, len(perNode))
			e.busySeconds = make([]float64, len(perNode))
		}
		for k, c := range perNode {
			e.busySeconds[k] += c
		}
	}
	ckptWG.Wait()
	ckptMu.Lock()
	err := ckptErr
	ckptMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint write: %w", err)
	}
	if e.tr.ComputeTime > 0 {
		for k := range e.tr.Utilization {
			e.tr.Utilization[k] = e.busySeconds[k] / e.tr.ComputeTime
		}
	}
	e.tr.ExecTime = e.clus.Now() - start
	e.snapshotSensorHealth()
	return e.tr, nil
}

// applyFaults fires every scheduled fault event whose boundary is iter:
// crashes saturate the node, rejoins lift the crash load again, and pause/
// slow windows open and close their gray-failure load. Membership events
// react immediately when sensing is on — re-sense so the capacity metric
// sees the change, repartition so work migrates — while gray failures are
// left for the periodic control loop (or the straggler detector) to catch:
// that latency gap is exactly what the detector exists to close.
func (e *Engine) applyFaults(iter int) error {
	react := false
	for evi := range e.cfg.Faults {
		ev := &e.cfg.Faults[evi]
		switch ev.Kind {
		case FaultCrash:
			if iter != ev.Iter {
				continue
			}
			// Saturate CPU and memory with external load from now on
			// (bandwidth is static in the cluster model, so some residual
			// capacity remains).
			node := e.clus.Node(ev.Rank)
			w := &faultWindow{start: e.clus.Now(), cpu: faultCrashLoad, memMB: node.Spec.MemoryMB}
			node.AddLoad(w)
			e.crashGens[ev.Rank] = w
			e.tr.Crashes++
			e.ob.crashes.Inc()
			react = true
		case FaultRejoin:
			if iter != ev.Iter {
				continue
			}
			if w := e.crashGens[ev.Rank]; w != nil {
				w.stop = e.clus.Now()
				delete(e.crashGens, ev.Rank)
			}
			e.tr.Rejoins++
			e.ob.rejoins.Inc()
			react = true
		case FaultPause, FaultSlow:
			if iter == ev.Iter {
				cpu := faultCrashLoad // paused: unresponsive for the window
				if ev.Kind == FaultSlow {
					cpu = 1 - 1/ev.Factor // dilate compute by Factor
				}
				w := &faultWindow{start: e.clus.Now(), cpu: cpu}
				e.clus.Node(ev.Rank).AddLoad(w)
				e.grayGens[evi] = w
			}
			if iter == ev.Until {
				if w := e.grayGens[evi]; w != nil {
					w.stop = e.clus.Now()
					delete(e.grayGens, evi)
				}
			}
		}
	}
	// Adaptive configurations react right away; static ones keep running
	// blind (the paper's static-vs-adaptive contrast).
	if react && e.cfg.SenseEvery > 0 {
		if err := e.sense(iter); err != nil {
			return err
		}
		if err := e.repartition(iter, true); err != nil {
			return err
		}
	}
	return nil
}

// feedStraggler hands one iteration's per-node compute times to the
// detector, normalized to seconds per work unit so heterogeneous work
// assignments do not read as slowness. Transitions are counted into the
// trace and metrics; capacity demotion happens at the next sense.
func (e *Engine) feedStraggler(perNode []float64) {
	if e.strag == nil || e.assign == nil {
		return
	}
	perUnit := make([]float64, len(perNode))
	alive := make([]bool, len(perNode))
	fpc := e.cfg.App.FlopsPerCell()
	for k := range perNode {
		alive[k] = true
		if k < len(e.assign.Work) && e.assign.Work[k] > 0 {
			perUnit[k] = perNode[k] / e.assign.Work[k]
		} else {
			// No work assigned (shed to zero or quarantined): time a
			// synthetic one-unit canary instead, so the node keeps producing
			// samples and can be promoted once it speeds back up.
			perUnit[k] = e.clus.ComputeTimeMem(k, fpc/1e6, 0)
		}
	}
	for _, tr := range e.strag.Observe(perUnit, alive) {
		if tr.To > tr.From {
			e.tr.StragglerDemotions++
			e.ob.demotions.Inc()
		} else {
			e.tr.StragglerPromotions++
			e.ob.promotions.Inc()
		}
		e.ob.stragglerState[tr.Rank].Set(float64(tr.To))
	}
}

// snapshotSensorHealth copies the monitor's sensing counters into the run log.
func (e *Engine) snapshotSensorHealth() {
	st := e.mon.SenseStats()
	dead := 0
	for k := 0; k < e.mon.NumNodes(); k++ {
		if e.mon.Health(k) == monitor.HealthDead {
			dead++
		}
	}
	e.tr.Sensor = runlog.SensorHealth{
		Probes:         st.Probes,
		Timeouts:       st.Timeouts,
		Drops:          st.Drops,
		Panics:         st.Panics,
		Garbage:        st.Garbage,
		Outliers:       st.Outliers,
		StaleFallbacks: st.StaleFallbacks,
		Decays:         st.Decays,
		DeadNodes:      dead,
	}
}

// regridAndPartition runs the flag → regrid → partition pipeline.
func (e *Engine) regridAndPartition(iter int) error {
	flags, err := e.cfg.App.Flags(e.hier, iter)
	if err != nil {
		return err
	}
	if err := e.hier.Regrid(flags); err != nil {
		return err
	}
	if err := e.cfg.App.Regridded(e.hier); err != nil {
		return err
	}
	return e.repartition(iter, false)
}
