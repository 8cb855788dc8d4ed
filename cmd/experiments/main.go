// Command experiments regenerates every table and figure of the paper's
// evaluation section on the virtual cluster, printing paper-vs-measured
// data. Run with -all, or select individual experiments:
//
//	go run ./cmd/experiments -all
//	go run ./cmd/experiments -fig7 -table3
//	go run ./cmd/experiments -ablations
//
// With -trace the studies append their phase spans to one JSONL run log
// that cmd/tracepath renders; with -obs-addr a live /metrics + /state +
// pprof endpoint serves while the studies run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
)

// renderable is any experiment result that can print itself.
type renderable interface {
	Render(w io.Writer) error
}

// options holds every experiment flag. Registration is split out over a
// *flag.FlagSet so tests can assert that each flag documented in
// EXPERIMENTS.md and README.md actually exists.
type options struct {
	all       *bool
	scaling   *bool
	fig7      *bool
	fig8      *bool
	fig11     *bool
	table2    *bool
	table3    *bool
	ablations *bool
	faultExp  *bool
	faultStr  *string
	elastic   *bool
	traceOver *bool
	sensorExp *bool
	movement  *bool
	sensorStr *string

	weakScaling *bool
	weakRanks   *int
	groupSize   *int
	csvPath     *string
	stage2      *bool
	stage2CSV   *string

	repartThresh *float64
	workers      *int
	cpuProf      *string
	memProf      *string

	obsAddr *string
	trace   *string
	obsSeed *int64
}

// registerFlags declares every flag on fs and returns the bound values.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.all = fs.Bool("all", false, "run every experiment")
	o.scaling = fs.Bool("scaling", false, "strong-scaling study on an idle cluster")
	o.fig7 = fs.Bool("fig7", false, "Figure 7 / Table I: execution time vs cluster size")
	o.fig8 = fs.Bool("fig8", false, "Figures 8-10: assignments and imbalance at fixed capacities")
	o.fig11 = fs.Bool("fig11", false, "Figure 11: dynamic sensing during the run")
	o.table2 = fs.Bool("table2", false, "Table II: dynamic vs static sensing")
	o.table3 = fs.Bool("table3", false, "Table III / Figures 12-15: sensing frequency sweep")
	o.ablations = fs.Bool("ablations", false, "design-choice ablations")
	o.faultExp = fs.Bool("fault", false, "fault study: node crash on the virtual cluster + SPMD rank recovery")
	o.faultStr = fs.String("fault-spec", "crash:rank=2,iter=10", "crash injected by -fault, e.g. crash:rank=2,iter=10")
	o.elastic = fs.Bool("elastic", false, "elastic-membership study: fail-stop vs rejoin vs rejoin+shed under seeded churn, plus checkpoint-corruption survival")
	o.traceOver = fs.Bool("trace-overhead", false, "tracing-overhead study: traced vs untraced SPMD runs across the solver suite (wall-clock, bytes on wire, log volume, bit-exactness)")
	o.sensorExp = fs.Bool("sensorfault", false, "degraded-sensing study: static vs naive vs hygienic adaptive under sensor faults")
	o.movement = fs.Bool("movement", false, "migration-cost study: repartitioning with and without the owner-affinity remap")
	o.sensorStr = fs.String("sensor-fault-spec", "",
		"sensor faults for -sensorfault (default: the study's built-in spec), e.g. sensor:seed=7,frac=0.25,garbage=0.3")
	o.weakScaling = fs.Bool("weak-scaling", false, "weak-scaling study: distributed vs centralized repartition plan construction on virtual clusters")
	o.weakRanks = fs.Int("weak-ranks", 4096, "largest virtual rank count for -weak-scaling (ladder: 16, 64, 256, 1024, 4096)")
	o.groupSize = fs.Int("group-size", 64, "hierarchical partitioner group size for -weak-scaling")
	o.csvPath = fs.String("csv", "", "also write the -weak-scaling sweep as CSV to this file")
	o.stage2 = fs.Bool("stage2", false, "stage-2 decentralization study: replicated vs group-local slicing cost over the -weak-ranks ladder")
	o.stage2CSV = fs.String("stage2-csv", "", "also write the -stage2 sweep as CSV to this file")
	o.repartThresh = fs.Float64("repartition-threshold", 0,
		"hysteresis threshold for the -sensorfault hygiene scenario (imbalance percentage points)")
	o.workers = fs.Int("workers", 0, "cap scheduler threads via GOMAXPROCS (0 = leave as-is); experiment configs drive solver kernels internally, so this bounds their pool width")
	o.cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
	o.memProf = fs.String("memprofile", "", "write a heap profile to this file at exit")
	o.obsAddr = fs.String("obs-addr", "", "serve /metrics, /state, /healthz and pprof on this address while running (e.g. 127.0.0.1:9190)")
	o.trace = fs.String("trace", "", "write the studies' run log (JSONL phase spans) to this file; render it with cmd/tracepath")
	o.obsSeed = fs.Int64("obs-seed", 0, "seed for the run ID on /state and /healthz (0 = wall clock)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if !(*o.all || *o.fig7 || *o.fig8 || *o.fig11 || *o.table2 || *o.table3 ||
		*o.ablations || *o.scaling || *o.faultExp || *o.elastic || *o.traceOver ||
		*o.sensorExp || *o.movement || *o.weakScaling || *o.stage2) {
		flag.Usage()
		os.Exit(2)
	}
	fault, err := engine.ParseFaultSpec(*o.faultStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	var sensorSpec *monitor.ProbeFaultSpec
	if *o.sensorStr != "" {
		sensorSpec, err = monitor.ParseProbeFaultSpec(*o.sensorStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	if *o.workers > 0 {
		runtime.GOMAXPROCS(*o.workers)
	}
	if *o.cpuProf != "" {
		f, err := os.Create(*o.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *o.memProf != "" {
		defer func() {
			f, err := os.Create(*o.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *o.obsAddr != "" || *o.trace != "" {
		var tl *trace.Log
		if *o.trace != "" {
			f, err := os.Create(*o.trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			tl = trace.NewLog(f)
			defer func() {
				if err := tl.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: flush run log:", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: close run log:", err)
				}
			}()
		}
		rt := obs.New(obs.Config{Seed: *o.obsSeed, Trace: tl})
		exp.SetObs(rt)
		if *o.obsAddr != "" {
			srv, err := rt.Serve(*o.obsAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "experiments: observability on http://%s (run %s)\n",
				srv.Addr(), rt.RunIDString())
		}
	}

	type job struct {
		on   bool
		name string
		run  func() (renderable, error)
	}
	jobs := []job{
		{*o.all || *o.fig7, "Figure 7 / Table I", func() (renderable, error) { return exp.Fig7TableI() }},
		{*o.all || *o.fig8, "Figures 8-10", func() (renderable, error) { return exp.Fig8to10() }},
		{*o.all || *o.fig11, "Figure 11", func() (renderable, error) { return exp.Fig11() }},
		{*o.all || *o.table2, "Table II", func() (renderable, error) { return exp.Table2() }},
		{*o.all || *o.table3, "Table III / Figures 12-15", func() (renderable, error) { return exp.Table3() }},
		{*o.all || *o.ablations, "Ablation: capacity weights", func() (renderable, error) { return exp.AblationWeights() }},
		{*o.all || *o.ablations, "Ablation: splitting constraints", func() (renderable, error) { return exp.AblationSplitting() }},
		{*o.all || *o.ablations, "Ablation: SFC choice", func() (renderable, error) { return exp.AblationSFC() }},
		{*o.all || *o.ablations, "Ablation: forecaster", func() (renderable, error) { return exp.AblationForecaster() }},
		{*o.all || *o.ablations, "Ablation: granularity", func() (renderable, error) { return exp.AblationGranularity() }},
		{*o.all || *o.ablations, "Ablation: locality vs balance", func() (renderable, error) { return exp.AblationLocality() }},
		{*o.all || *o.ablations, "Ablation: weights under memory pressure", func() (renderable, error) { return exp.AblationMemoryWeights() }},
		{*o.all || *o.faultExp, "Fault recovery", func() (renderable, error) {
			crashes := fault.Crashes()
			if len(crashes) == 0 {
				return nil, fmt.Errorf("-fault needs a crash event in -fault-spec")
			}
			return exp.FaultRecovery(16, crashes[0].Rank, crashes[0].Iter)
		}},
		{*o.all || *o.elastic, "Elastic membership", func() (renderable, error) { return exp.Elastic(16) }},
		{*o.all || *o.traceOver, "Tracing overhead", func() (renderable, error) { return exp.TraceOverhead(32) }},
		{*o.all || *o.sensorExp, "Degraded sensing", func() (renderable, error) { return exp.SensorFaults(40, sensorSpec, *o.repartThresh) }},
		{*o.all || *o.movement, "Migration cost", func() (renderable, error) { return exp.Movement(16) }},
		{*o.all || *o.weakScaling, "Weak scaling (plan construction)", func() (renderable, error) {
			r, err := exp.WeakScaling(*o.weakRanks, *o.groupSize)
			if err != nil {
				return nil, err
			}
			if *o.csvPath != "" {
				f, err := os.Create(*o.csvPath)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := r.WriteCSV(f); err != nil {
					return nil, err
				}
			}
			return r, nil
		}},
		{*o.all || *o.stage2, "Stage-2 decentralization (replicated vs group-local)", func() (renderable, error) {
			r, err := exp.WeakScalingStage2(*o.weakRanks, *o.groupSize)
			if err != nil {
				return nil, err
			}
			if *o.stage2CSV != "" {
				f, err := os.Create(*o.stage2CSV)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := r.WriteCSV(f); err != nil {
					return nil, err
				}
			}
			return r, nil
		}},
		{*o.all || *o.scaling, "Strong scaling", func() (renderable, error) { return exp.Scalability() }},
		{*o.all || *o.scaling, "Heterogeneity sweep", func() (renderable, error) { return exp.HeterogeneitySweep() }},
		{*o.all || *o.scaling, "Mixed hardware", func() (renderable, error) { return exp.MixedHardware() }},
	}
	for _, j := range jobs {
		if !j.on {
			continue
		}
		fmt.Printf("==== %s ====\n", j.name)
		r, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		if err := r.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: render %s: %v\n", j.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
