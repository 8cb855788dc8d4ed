// Command bench is the repository's benchmark: five whole-run workloads
// timed end to end through the public entry points, each attributed to its
// layers from outside by timing decorators, with every run checked bit for
// bit against a serial reference. See README.md in this directory.
//
// The pipeline runs one workload per invocation (flags as BENCHMARK.json's
// contract gives them):
//
//	bash bench/run.sh --workload halo-latency --seed 1 --seconds 12 --trace 0
//
// Without --workload it runs a whole set — every workload, repetitions
// interleaved round-robin, medians and quartiles — and writes it to -out:
//
//	bash bench/run.sh -seed 1 -out bench/results/latest.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print one JSON result line (pipeline mode)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: BENCHMARK.json's run_seconds in pipeline mode, 6 in set mode)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from decorated repetitions and layer probes")
		reps     = flag.Int("reps", 7, "set mode: runs per workload (local use; the pipeline fixes its own)")
		scale    = flag.Float64("scale", 1, "multiplies every workload's iteration count (local use)")
		out      = flag.String("out", "", "set mode: append the set to this results file")
		compare  = flag.Bool("compare", false, "compare two result files (or the first two sets of one): -compare a.json [b.json]")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	// The reference box has two cores; pinning keeps a bigger box comparable.
	runtime.GOMAXPROCS(ranks)
	root, err := findRoot()
	if err != nil && !*manifest && !*compare {
		fatal(err)
	}

	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
	case *compare:
		ok, err := runCompare(os.Stdout, flag.Args())
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *seconds == 0 {
			*seconds = runSeconds
		}
		m, err := measure(w, measureOpts{
			seed: *seed, seconds: *seconds, traced: *trace != 0,
			iters: scaledIters(w, *scale), minRounds: 3, root: root,
		})
		if err != nil {
			fatal(err)
		}
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
		}
		for _, f := range m.Failures {
			fmt.Fprintln(os.Stderr, "bench: failed repetition:", f)
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{m.Failed == 0, m.Attempted, m.Failed, m.only(defs)})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		if *seconds == 0 {
			*seconds = 6
		}
		ok, err := runSet(root, *seed, *reps, *seconds, *scale, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot returns the checkout root: the nearest directory at or above the
// working directory that holds BENCHMARK.json. Scratch files go under its
// .bench_build/ and trace files under its bench/out/, both git-ignored.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json at or above %s", dir)
		}
	}
}
