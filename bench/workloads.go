package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/capacity"
	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// ranks is the SPMD group size and the AMR worker count of every workload:
// the reference box has two cores, and the harness pins GOMAXPROCS to match.
const ranks = 2

// workload is one closed-loop batch input: each iteration starts when the
// previous one ends, and a repetition is one whole run through the public
// entry points (group construction → RunSPMDRank on every rank → Close, or
// engine.New → Engine.Run).
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// iters is the length of the N-iteration run at scale 1; the
	// 1-iteration run of the two-point rule is always exactly 1.
	iters int
	// smokeIters is the shortest N that still reaches the workload's
	// distinctive step (a repartition, a checkpoint); smoke_test.go runs it.
	smokeIters int
	// run executes one repetition.
	run func(o runOpts) (*outcome, error)
}

// runOpts selects one repetition of a workload.
type runOpts struct {
	seed  int64
	iters int
	// serial selects the reference: 1 rank over the channel transport,
	// non-FT, Workers 1. Timed repetitions must hash equal to it.
	serial bool
	// tr, when non-nil, wraps every interface the engine takes as input in
	// the timing decorators (the traced repetition).
	tr *tracer
	// dir is a scratch directory inside the checkout (checkpoint shards).
	dir string
}

// outcome is what one repetition produced: the wall time, the result hash
// and the exact counters (source C in the README's layer table).
type outcome struct {
	wallS float64
	hash  uint64
	// cellUpdates is the number of cell updates the run performed.
	cellUpdates  float64
	imbalancePct float64
	virtExecS    float64
	c            counters
}

// counters are exact: they repeat bit for bit across repetitions of one
// (workload, seed, iterations) triple, and a repetition that changes one
// counts as failed.
type counters struct {
	Msgs, WireB, MigratedB, RetainedB int64
	Repartitions                      int64
	InteriorSteps, BoundarySteps      int64
	Checkpoints                       int64
	CkptShards, CkptB                 int64
	Senses, SenseFailures             int64
}

var workloads = []*workload{
	{
		name:       "rm3d-compute",
		why:        "Euler3D RM on the paper's 128x32x32 grid, 32 tiles over chan: the kernel dominates, wire and plan build do almost nothing",
		iters:      24,
		smokeIters: 2,
		run: func(o runOpts) (*outcome, error) {
			r := rand.New(rand.NewSource(o.seed))
			k := rmKernel(r)
			return runSPMD(o, false, engine.SPMDConfig{
				Domain: geom.Box3(0, 0, 0, 127, 31, 31),
				// The issue's prototype used 4 tiles of 32³. Their 1.3 MB
				// patches made the run bimodal on the reference box (a
				// shared-cache VM: 26 or 34 ms per step depending on the
				// neighbours, spread 13-20 %); 16³ tiles stay in the private
				// cache and halve the spread at the same kernel share.
				TileSize:    16,
				Kernel:      k,
				BaseGrid:    solver.UniformGrid(4.0 / 128),
				Partitioner: partition.NewSFCHetero(2),
				CapsAt:      uniformCaps,
			})
		},
	},
	{
		name:       "halo-latency",
		why:        "2-D advection on 64 tiny tiles over TCP loopback with a dt all-reduce per step: small-message wire latency and the pack/fill path dominate",
		iters:      6000,
		smokeIters: 40,
		run: func(o runOpts) (*outcome, error) {
			r := rand.New(rand.NewSource(o.seed))
			cx, cy := 0.3+0.4*r.Float64(), 0.3+0.4*r.Float64()
			return runSPMD(o, true, engine.SPMDConfig{
				Domain:      geom.Box2(0, 0, 63, 63),
				TileSize:    8,
				Kernel:      solver.NewAdvection2D(1.0, 0.5, cx, cy, 0.1),
				BaseGrid:    solver.UniformGrid(1.0 / 64),
				Partitioner: partition.NewSFCHetero(2),
				CapsAt:      uniformCaps,
			})
		},
	},
	{
		name:       "adapt-migrate",
		why:        "3-D advection on 2048 tiles over TCP, capacities swinging +-40% every 2 steps: partition, plan build and bulk migration dominate",
		iters:      30,
		smokeIters: 3,
		run: func(o runOpts) (*outcome, error) {
			r := rand.New(rand.NewSource(o.seed))
			cx, cy, cz := 0.3+0.4*r.Float64(), 0.3+0.4*r.Float64(), 0.3+0.4*r.Float64()
			return runSPMD(o, true, engine.SPMDConfig{
				Domain:      geom.Box3(0, 0, 0, 63, 63, 31),
				TileSize:    4,
				Kernel:      solver.NewAdvection3D(1.0, 0.5, 0.25, cx, cy, cz/2, 0.1),
				BaseGrid:    solver.UniformGrid(1.0 / 64),
				Partitioner: partition.NewHetero(),
				CapsAt:      rotatingCaps(r),
				RepartEvery: rotateEvery,
			})
		},
	},
	{
		name:       "ft-ckpt",
		why:        "RM3D through the fault-tolerant step loop over TCP with heartbeats and a synchronous checkpoint every 4 steps, fault-free",
		iters:      40,
		smokeIters: 5,
		run: func(o runOpts) (*outcome, error) {
			r := rand.New(rand.NewSource(o.seed))
			cfg := engine.SPMDConfig{
				Domain:      geom.Box3(0, 0, 0, 63, 31, 31),
				TileSize:    8,
				Kernel:      rmKernel(r),
				BaseGrid:    solver.UniformGrid(4.0 / 64),
				Partitioner: partition.NewSFCHetero(2),
				CapsAt:      uniformCaps,
			}
			if !o.serial {
				cfg.FT = engine.FTConfig{
					Enabled:         true,
					HeartbeatEvery:  1,
					CheckpointEvery: 4,
					CheckpointDir:   filepath.Join(o.dir, "ckpt"),
					SyncCheckpoint:  true,
					CheckpointKeep:  2,
				}
			}
			return runSPMD(o, true, cfg)
		},
	},
	{
		name:       "amr-regrid",
		why:        "the paper's adaptive 3-level RM3D under Engine.Run on a loaded 4-node virtual cluster: regrid, clustering, partition, sensing; no transport",
		iters:      11,
		smokeIters: 2,
		run:        runAMR,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rmKernel is the Richtmyer–Meshkov kernel on the 4:1:1 shock tube with the
// shock plane, interface and corrugation amplitude drawn from the seed.
func rmKernel(r *rand.Rand) *solver.Euler3D {
	k := solver.NewRichtmyerMeshkov([geom.MaxDim]float64{4, 1, 1})
	k.ShockX *= 0.9 + 0.2*r.Float64()
	k.InterfaceX *= 0.95 + 0.1*r.Float64()
	k.Amplitude *= 0.8 + 0.4*r.Float64()
	return k
}

func uniformCaps(int) []float64 { return partition.UniformCaps(ranks) }

// rotateEvery is adapt-migrate's repartition period in iterations.
const rotateEvery = 2

// rotatingCaps swings rank 0's share between 0.5·(1±0.4) every rotateEvery
// iterations. The seed picks
// which rank starts high and jitters each swing by up to 2 % of its
// amplitude, so the schedule differs per seed while the migrated volume —
// and therefore the work per iteration — stays within a fraction of a
// percent of the same value.
func rotatingCaps(r *rand.Rand) func(iter int) []float64 {
	sign := 1.0
	if r.Intn(2) == 1 {
		sign = -1
	}
	jitterSeed := r.Int63()
	return func(iter int) []float64 {
		epoch := iter / rotateEvery
		// The jitter is a pure function of (seed, epoch): CapsAt must return
		// identical vectors on every rank.
		j := rand.New(rand.NewSource(jitterSeed + int64(epoch))).Float64()
		amp := 0.4 * (0.98 + 0.04*j)
		s := sign
		if epoch%2 == 1 {
			s = -s
		}
		c0 := 0.5 * (1 + s*amp)
		caps := make([]float64, ranks)
		caps[0] = c0
		caps[1] = 1 - c0
		return caps
	}
}

// runSPMD executes one repetition of an SPMD workload: build the group,
// run every rank, close the group. The wall time covers all three.
func runSPMD(o runOpts, tcp bool, cfg engine.SPMDConfig) (*outcome, error) {
	n := ranks
	if o.serial {
		n, tcp = 1, false
		cfg.Workers = 1
		// The reference rank owns everything whatever the schedule says.
		cfg.CapsAt = func(int) []float64 { return []float64{1} }
	}
	cfg.Iterations = o.iters
	if cfg.FT.Enabled {
		if err := os.RemoveAll(cfg.FT.CheckpointDir); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var eps []transport.Endpoint
	var err error
	if tcp {
		eps, err = transport.NewTCPGroup(n, "127.0.0.1")
	} else {
		eps, err = transport.NewGroup(n)
	}
	if err != nil {
		return nil, fmt.Errorf("group: %w", err)
	}
	results := make([]*engine.SPMDResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, rcfg := eps[r], cfg
			if o.tr != nil {
				rec := o.tr.rank(r)
				ep = &timedEndpoint{inner: ep.(fullEndpoint), rec: rec}
				rcfg.Kernel = &timedKernel{inner: cfg.Kernel, rec: rec}
				rcfg.Partitioner = &timedPartitioner{inner: cfg.Partitioner, rec: rec}
				t0 := rec.now()
				defer func() { rec.add(spanRun, t0, rec.now(), 0, 1) }()
			}
			results[r], errs[r] = engine.RunSPMDRank(ep, rcfg)
		}(r)
	}
	wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
	wall := time.Since(start).Seconds()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}

	out := &outcome{wallS: wall, cellUpdates: float64(cfg.Domain.Cells()) * float64(o.iters)}
	owned := make([]float64, n)
	patches := map[geom.Box]*amr.Patch{}
	for r, res := range results {
		out.c.Msgs += res.MsgsSent
		out.c.WireB += res.BytesSent
		out.c.MigratedB += res.MigratedBytes
		out.c.RetainedB += res.RetainedBytes
		out.c.InteriorSteps += res.InteriorSteps
		out.c.BoundarySteps += res.BoundarySteps
		out.c.Checkpoints += int64(res.Checkpoints)
		if int64(res.Repartitions) > out.c.Repartitions {
			out.c.Repartitions = int64(res.Repartitions)
		}
		owned[r] = float64(res.OwnedBoxes.TotalCells())
		for b, p := range res.Patches {
			patches[b] = p
		}
	}
	out.hash = hashDense(cfg.Domain, cfg.Kernel.NumFields(), patches)
	// Imbalance of the final ownership against the capacity shares of the
	// last schedule epoch the run partitioned on.
	lastPart := 0
	if cfg.RepartEvery > 0 {
		lastPart = (o.iters - 1) / cfg.RepartEvery * cfg.RepartEvery
	}
	total := float64(cfg.Domain.Cells())
	out.imbalancePct = capacity.MaxImbalance(owned, capacity.Shares(cfg.CapsAt(lastPart), total))
	if cfg.FT.Enabled {
		out.c.CkptShards, out.c.CkptB, err = dirUsage(cfg.FT.CheckpointDir)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dirUsage counts the regular files left in dir and their bytes.
func dirUsage(dir string) (files, bytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		// A run too short to reach its first checkpoint wrote nothing.
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
	}
	return files, bytes, nil
}

// hashDense is FNV-64a over the single-level solution assembled into one
// dense field-major, x-fastest array — independent of how the partitioner
// cut the domain, so a run whose tiles were split still hashes equal to the
// serial reference.
func hashDense(domain geom.Box, fields int, patches map[geom.Box]*amr.Patch) uint64 {
	nx, ny, nz := domain.Size(0), domain.Size(1), 1
	if domain.Rank >= 3 {
		nz = domain.Size(2)
	}
	dense := make([]float64, fields*nx*ny*nz)
	covered := 0
	for b, p := range patches {
		z0, z1 := 0, 0
		if b.Rank >= 3 {
			z0, z1 = b.Lo[2], b.Hi[2]
		}
		for f := 0; f < fields; f++ {
			for z := z0; z <= z1; z++ {
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					row := p.Pencil(f, y, z)[p.PencilIndex(b.Lo[0]) : p.PencilIndex(b.Hi[0])+1]
					off := ((f*nz+(z-domain.Lo[2]))*ny+(y-domain.Lo[1]))*nx + (b.Lo[0] - domain.Lo[0])
					copy(dense[off:off+len(row)], row)
				}
			}
		}
		covered += int(b.Cells())
	}
	h := fnv.New64a()
	if covered != nx*ny*nz {
		// A hole or an overlap is a wrong answer whatever the values are.
		fmt.Fprintf(h, "covered %d of %d cells", covered, nx*ny*nz)
	}
	writeFloats(h, dense)
	return h.Sum64()
}

func writeFloats(h io.Writer, vals []float64) {
	var buf [4096]byte
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		h.Write(buf[:n*8])
		vals = vals[n:]
	}
}

// hashPatches is FNV-64a over every patch interior in sorted box order
// (level, then lower corner): the multi-level form, where the box list
// itself is part of the answer.
func hashPatches(patches map[geom.Box]*amr.Patch) uint64 {
	boxes := make([]geom.Box, 0, len(patches))
	for b := range patches {
		boxes = append(boxes, b)
	}
	sort.Slice(boxes, func(i, j int) bool {
		a, b := boxes[i], boxes[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		for d := geom.MaxDim - 1; d >= 0; d-- {
			if a.Lo[d] != b.Lo[d] {
				return a.Lo[d] < b.Lo[d]
			}
		}
		for d := geom.MaxDim - 1; d >= 0; d-- {
			if a.Hi[d] != b.Hi[d] {
				return a.Hi[d] < b.Hi[d]
			}
		}
		return false
	})
	h := fnv.New64a()
	for _, b := range boxes {
		p := patches[b]
		fmt.Fprintf(h, "%v@%d", b, b.Level)
		for f := 0; f < p.NumFields; f++ {
			for z := b.Lo[2]; z <= b.Hi[2]; z++ {
				for y := b.Lo[1]; y <= b.Hi[1]; y++ {
					writeFloats(h, p.Pencil(f, y, z)[p.PencilIndex(b.Lo[0]):p.PencilIndex(b.Hi[0])+1])
				}
			}
		}
	}
	return h.Sum64()
}

// amrNodes is the virtual cluster size of amr-regrid.
const amrNodes = 4

// runAMR executes one repetition of amr-regrid: engine.New + Engine.Run of
// SimApp RM3D, 3 levels, on a 4-node virtual cluster under the paper's load
// script plus seeded per-node load noise. The physics is the same for every
// seed; the seed moves the capacities the partitioner sees.
func runAMR(o runOpts) (*outcome, error) {
	start := time.Now()
	clus, err := exp.NewCluster(amrNodes)
	if err != nil {
		return nil, err
	}
	exp.PaperLoadScript(clus)
	for k := 0; k < amrNodes; k++ {
		clus.Node(k).AddLoad(cluster.Noise{Seed: o.seed*amrNodes + int64(k), Mean: 0.06, Amplitude: 0.06, SlotSec: 5})
	}
	var kern solver.Kernel = solver.NewRichtmyerMeshkov([geom.MaxDim]float64{4, 1, 1})
	var part partition.Partitioner = partition.NewHetero()
	var rec *recorder
	if o.tr != nil {
		rec = o.tr.rank(0)
		rec.shared = true // the two workers' kernel calls overlap
		kern = &timedKernel{inner: kern, rec: rec}
		part = &timedPartitioner{inner: part, rec: rec}
	}
	sim := engine.NewSimApp(kern, solver.UniformGrid(4.0/64), 0.05)
	var app engine.Application = sim
	if rec != nil {
		app = &timedApp{inner: sim, rec: rec}
	}
	workers := ranks
	if o.serial {
		workers = 1
	}
	e, err := engine.New(engine.Config{
		Name: "amr-regrid",
		Hierarchy: amr.Config{
			Domain:        geom.Box3(0, 0, 0, 63, 15, 15),
			RefineRatio:   2,
			MaxLevels:     3,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.7, MinSide: 4, MaxSide: 32},
		},
		App:         app,
		Partitioner: part,
		Iterations:  o.iters,
		RegridEvery: 5,
		SenseEvery:  10,
		Workers:     workers,
	}, clus)
	if err != nil {
		return nil, err
	}
	tr, err := e.Run()
	if err != nil {
		return nil, err
	}
	end := time.Now()
	if rec != nil {
		rec.add(spanRun, int64(start.Sub(o.tr.epoch)), int64(end.Sub(o.tr.epoch)), 0, 1)
	}
	out := &outcome{
		wallS:        end.Sub(start).Seconds(),
		hash:         hashPatches(sim.ExportPatches()),
		imbalancePct: tr.MeanMaxImbalance(),
		virtExecS:    tr.ExecTime,
	}
	out.c.Repartitions = int64(tr.Repartitions)
	out.c.Senses = int64(tr.Senses)
	out.c.SenseFailures = int64(tr.SenseFailures)
	out.c.Msgs = tr.MsgsSent
	out.c.MigratedB = int64(tr.MovedBytes)
	out.c.RetainedB = int64(tr.RetainedBytes)
	// Cell updates: each record's Σ work (cells × substeps per coarse step)
	// holds from its iteration until the next record's.
	for i, r := range tr.Records {
		until := o.iters
		if i+1 < len(tr.Records) {
			until = tr.Records[i+1].Iter
		}
		sum := 0.0
		for _, w := range r.Work {
			sum += w
		}
		out.cellUpdates += sum * float64(until-r.Iter)
	}
	return out, nil
}
