// Command amrun runs an AMR application on a simulated heterogeneous
// cluster and prints the execution summary and per-regrid assignments.
//
//	go run ./cmd/amrun -nodes 8 -partitioner hetero -iters 100 -load
//	go run ./cmd/amrun -kernel advect2d -nodes 4 -iters 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"samrpart/internal/amr"
	"samrpart/internal/checkpoint"
	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
	"samrpart/internal/solver"
)

// usageError marks a bad command line: exit status 2, as package flag's own
// errors get.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "amrun:", err)
	code := 1
	if errors.As(err, new(usageError)) {
		code = 2
	}
	os.Exit(code)
}

// run is the whole command. Every artefact it opens — run log, profiles,
// observability server — is closed by a deferred call, so a failing run
// leaves them as complete as a successful one. Blocks that defer such a call
// must not shadow err: the deferred calls add their own failures to it.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("amrun", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 4, "cluster size")
		pname     = fs.String("partitioner", "hetero", "hetero | composite | sfchetero | levelwise | hierarchical | greedy | roundrobin")
		groupSize = fs.Int("group-size", 4, "nodes per capacity group for -partitioner hierarchical")
		kernel    = fs.String("kernel", "rm3d", "rm3d (oracle-driven) | advect2d | muscl2d | buckley (real numerics)")
		iters     = fs.Int("iters", 50, "coarse iterations")
		regrid    = fs.Int("regrid", 5, "regrid every N iterations")
		sense     = fs.Int("sense", 0, "re-sense every N iterations (0 = once at start)")
		load      = fs.Bool("load", false, "apply the paper's synthetic background-load script")
		verbose   = fs.Bool("v", false, "print per-level hierarchy statistics and per-regrid assignments")
		forecast  = fs.String("forecaster", "last", "monitor forecaster: last|mean|median|ewma|adaptive")
		saveCkpt  = fs.String("save", "", "write a checkpoint of the final state to this file")
		loadCkpt  = fs.String("restore", "", "restore hierarchy/solution from this checkpoint before running")
		workers   = fs.Int("workers", 0, "solver and probe worker-pool width (0 = all cores, 1 = serial; any value is bit-exact)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		ckEvery   = fs.Int("checkpoint-every", 0, "write a periodic checkpoint every N iterations (0 = off)")
		ckPath    = fs.String("checkpoint-path", "", "periodic checkpoint file (required with -checkpoint-every)")
		faultStr  = fs.String("fault-spec", "",
			"inject ';'-separated faults, e.g. crash:node=2,iter=10;rejoin:node=2,iter=18;slow:node=1,from=5,to=12,factor=4 (kinds: crash|rejoin|pause|slow; see DESIGN.md §13)")
		rejoinOK = fs.Bool("rejoin", true,
			"honor rejoin: events in -fault-spec; false strips them for a fail-stop baseline of the same churn script")
		stragShed = fs.Bool("straggler-shed", false,
			"detect persistently slow nodes (EWMA/MAD with hysteresis) and shed work off them before their sensors report trouble")
		ckKeep = fs.Int("checkpoint-keep", 0,
			"retain the N newest periodic checkpoints as iteration-stamped siblings for corruption fallback (0 = overwrite only)")
		sensorStr = fs.String("sensor-fault-spec", "",
			"inject sensor faults, e.g. sensor:seed=7,frac=0.25,drop=0.1,timeout=0.1,garbage=0.2,freeze=0.02")
		hygiene = fs.Bool("hygiene", false,
			"enable sensing hygiene (health tracking, sanitization, MAD outlier rejection, staleness decay)")
		repartThresh = fs.Float64("repartition-threshold", 0,
			"skip sense-triggered repartitions that improve max-imbalance by less than this many percentage points (0 = always repartition)")
		affinityRemap = fs.Bool("affinity-remap", false,
			"relabel repartition output toward the previous owners (partition.RemapOwners) to cut migration volume at unchanged balance")
		obsAddr = fs.String("obs-addr", "",
			"serve /metrics, /state, /healthz and pprof on this address while running (e.g. 127.0.0.1:9190)")
		obsSeed = fs.Int64("obs-seed", 0, "seed for the run ID on /state and /healthz (0 = wall clock)")
		spmd    = fs.Int("spmd", 0,
			"run an in-process N-rank SPMD group (channel transport, FT on) instead of the virtual-cluster engine; honors -kernel, -iters, -fault-spec, -straggler-shed, -obs-addr, -trace")
		traceOut = fs.String("trace", "",
			"write the run log (JSONL: phase spans, plus messages and clock offsets with -spmd) to this file; render it with cmd/tracepath")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}

	var faults engine.FaultSchedule
	if *faultStr != "" {
		faults, err = engine.ParseFaultSpec(*faultStr)
		if err != nil {
			return usageError{err}
		}
		if !*rejoinOK {
			faults = faults.WithoutRejoins()
		}
	}
	var obsRT *obs.Runtime
	if *obsAddr != "" || *traceOut != "" {
		var tl *trace.Log
		if *traceOut != "" {
			f, cerr := os.Create(*traceOut)
			if cerr != nil {
				return cerr
			}
			tl = trace.NewLog(f)
			defer func() {
				err = errors.Join(err, tl.Flush(), f.Close())
				fmt.Fprintf(os.Stderr, "amrun: run log written to %s (render with cmd/tracepath)\n", *traceOut)
			}()
		}
		obsRT = obs.New(obs.Config{Seed: *obsSeed, Trace: tl})
		if *obsAddr != "" {
			srv, err := obsRT.Serve(*obsAddr)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "amrun: observability on http://%s (run %s)\n",
				srv.Addr(), obsRT.RunIDString())
		}
	}

	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if *memProf != "" {
		defer func() { err = errors.Join(err, writeHeapProfile(*memProf)) }()
	}

	if *spmd > 0 {
		return runSPMD(*spmd, spmdOpts{
			kernel:    *kernel,
			iters:     *iters,
			obs:       obsRT,
			faults:    faults,
			straggler: *stragShed,
		})
	}

	var sensorFaults *monitor.ProbeFaultSpec
	if *sensorStr != "" {
		sensorFaults, err = monitor.ParseProbeFaultSpec(*sensorStr)
		if err != nil {
			return usageError{err}
		}
	}

	var p partition.Partitioner
	switch *pname {
	case "hetero":
		p = partition.NewHetero()
	case "composite":
		p = partition.NewComposite(2)
	case "greedy":
		p = partition.Greedy{}
	case "roundrobin":
		p = partition.RoundRobin{}
	case "sfchetero":
		p = partition.NewSFCHetero(2)
	case "levelwise":
		p = partition.NewLevelWise(2)
	case "hierarchical":
		h := partition.NewHierarchical(2)
		h.GroupSize = *groupSize
		p = h
	default:
		return usageError{fmt.Errorf("unknown partitioner %q", *pname)}
	}

	var app engine.Application
	hier := exp.RM3DHierarchy()
	switch *kernel {
	case "rm3d":
		app = engine.NewRM3DOracle()
	case "advect2d":
		app = engine.NewSimApp(
			solver.NewAdvection2D(1.0, 0.5, 0.25, 0.25, 0.08),
			solver.UniformGrid(1.0/64), 0.08)
		hier = amr.Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     3,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.65, MinSide: 4},
		}
	case "muscl2d":
		app = engine.NewSimApp(
			solver.NewMUSCLAdvection2D(1.0, 0.5, 0.25, 0.25, 0.08),
			solver.UniformGrid(1.0/64), 0.08)
		hier = amr.Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     2,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.65, MinSide: 4},
		}
	case "buckley":
		app = engine.NewSimApp(
			solver.NewBuckleyLeverett(1.0, 0.3),
			solver.UniformGrid(1.0/64), 0.1)
		hier = amr.Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     2,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.65, MinSide: 4},
		}
	default:
		return usageError{fmt.Errorf("unknown kernel %q", *kernel)}
	}

	clus, err := cluster.New(cluster.Uniform(*nodes, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		return err
	}
	if *load {
		exp.PaperLoadScript(clus)
	}
	e, err := engine.New(engine.Config{
		Name:                 fmt.Sprintf("%s/%s", *kernel, p.Name()),
		Hierarchy:            hier,
		App:                  app,
		Partitioner:          p,
		Iterations:           *iters,
		RegridEvery:          *regrid,
		SenseEvery:           *sense,
		Forecaster:           *forecast,
		Workers:              *workers,
		CheckpointEvery:      *ckEvery,
		CheckpointPath:       *ckPath,
		CheckpointKeep:       *ckKeep,
		Faults:               faults,
		Straggler:            *stragShed,
		SensorFaults:         sensorFaults,
		Hygiene:              *hygiene,
		RepartitionThreshold: *repartThresh,
		AffinityRemap:        *affinityRemap,
		Obs:                  obsRT,
	}, clus)
	if err != nil {
		return err
	}
	obsRT.SetState("engine", e.Snapshot)
	if *loadCkpt != "" {
		st, loaded, err := checkpoint.LoadFileFallback(*loadCkpt)
		if err != nil {
			return fmt.Errorf("load checkpoint: %w", err)
		}
		if loaded != *loadCkpt {
			fmt.Fprintf(os.Stderr, "amrun: %s unusable, fell back to %s\n", *loadCkpt, loaded)
		}
		if err := e.Restore(st); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		fmt.Printf("restored checkpoint %s (iter %d, t=%.1fs, %d levels)\n",
			loaded, st.Iter, st.VirtualTime, st.Hierarchy.NumLevels())
	}
	tr, err := e.Run()
	if err != nil {
		return err
	}
	if err := tr.WriteSummary(os.Stdout); err != nil {
		return err
	}
	h := e.Hierarchy()
	fmt.Printf("final hierarchy: %d levels, %d boxes, %d total work units\n",
		h.NumLevels(), len(h.AllBoxes()), h.TotalWork())
	if *verbose {
		fmt.Print(h.Describe())
	}
	if *saveCkpt != "" {
		st, err := e.Checkpoint(*iters)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := checkpoint.SaveFile(*saveCkpt, st); err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		fmt.Printf("checkpoint written to %s\n", *saveCkpt)
	}
	if *verbose {
		labels := make([]string, *nodes)
		for k := range labels {
			labels[k] = fmt.Sprintf("P%d", k)
		}
		s := runlog.NewSeries("\nper-regrid work assignment", "regrid", labels...)
		for i, rec := range tr.Records {
			s.Add(float64(i+1), rec.Work...)
		}
		if err := s.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeHeapProfile writes the heap profile of the live objects to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
