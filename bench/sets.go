package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// stat summarises one end-to-end metric over a set's runs. Quartiles are
// Python's statistics.quantiles(values, n=4), which is what the pipeline
// computes its spreads with.
type stat struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func newStat(unit string, v []float64) stat {
	q1, q3 := quartiles(v)
	return stat{Unit: unit, N: len(v), Median: median(v), Q1: q1, Q3: q3, Values: v}
}

// workloadSet is one workload's part of a set.
type workloadSet struct {
	Iters       int                    `json:"iters"`
	Hash        string                 `json:"hash"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]stat        `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

// resultSet is one complete set: every workload, `Runs` runs each.
type resultSet struct {
	When      string                  `json:"when"`
	GitSHA    string                  `json:"git_sha"`
	Seed      int64                   `json:"seed"`
	Runs      int                     `json:"runs"`
	Seconds   float64                 `json:"seconds_per_run"`
	Scale     float64                 `json:"scale"`
	Machine   *machineInfo            `json:"machine"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// resultsFile is what -out appends to and -compare reads.
type resultsFile struct {
	Sets []*resultSet `json:"sets"`
}

// runSet measures every workload `runs` times with tracing off, the runs
// interleaved round-robin across workloads so that drift of the box lands
// on all of them alike, then one traced run each for the per-layer numbers.
// Each run discards its own warm-up. It prints every metric by name with
// its unit and reports whether every repetition was correct.
func runSet(root string, seed int64, runs int, seconds, scale float64, out string) (bool, error) {
	set := &resultSet{
		When: time.Now().UTC().Format(time.RFC3339), GitSHA: gitSHA(root),
		Seed: seed, Runs: runs, Seconds: seconds, Scale: scale,
		Workloads: map[string]*workloadSet{},
	}
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		set.Workloads[w.name] = &workloadSet{EndToEnd: map[string]stat{}, PerLayer: map[string]metricValue{}}
		values[w.name] = map[string][]float64{}
	}
	note := func(w *workload, m *measurement) error {
		ws := set.Workloads[w.name]
		if ws.Hash != "" && ws.Hash != m.Hash {
			return fmt.Errorf("%s: reference hash changed between runs: %s then %s", w.name, ws.Hash, m.Hash)
		}
		ws.Iters, ws.Hash = m.Iters, m.Hash
		ws.Attempted += m.Attempted
		ws.Failed += m.Failed
		for _, f := range m.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: failed repetition: %s\n", w.name, f)
		}
		return nil
	}
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: run %d/%d %s\n", run+1, runs, w.name)
			m, err := measure(w, measureOpts{seed: seed, seconds: seconds, iters: scaledIters(w, scale), minRounds: 3, root: root})
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if err := note(w, m); err != nil {
				return false, err
			}
			for name, v := range m.only(endToEnd) {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: traced run %s\n", w.name)
		m, err := measure(w, measureOpts{seed: seed, seconds: seconds, traced: true, iters: scaledIters(w, scale), minRounds: 3, root: root})
		if err != nil {
			return false, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		if err := note(w, m); err != nil {
			return false, err
		}
		set.Workloads[w.name].PerLayer = m.only(perLayer)
		set.Machine = m.Machine
	}

	ok := true
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, w := range workloads {
		ws := set.Workloads[w.name]
		ws.FailedShare = float64(ws.Failed) / float64(ws.Attempted)
		ok = ok && ws.Failed == 0
		fmt.Fprintf(tw, "\n%s\titers=%d\thash=%s\tfailed_share=%d/%d\n", w.name, ws.Iters, ws.Hash, ws.Failed, ws.Attempted)
		for _, d := range endToEnd {
			s := newStat(d.Unit, values[w.name][d.Name])
			ws.EndToEnd[d.Name] = s
			fmt.Fprintf(tw, "  %s\t%.6g %s\tq1 %.6g\tq3 %.6g\tn=%d\tspread %.1f%% (bound %.0f%%)\n",
				d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, s.spread()*100, d.Bound*100)
		}
		for _, d := range perLayer {
			fmt.Fprintf(tw, "  %s\t%.6g %s\n", d.Name, ws.PerLayer[d.Name].Value, d.Unit)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if mi := set.Machine; mi != nil {
		fmt.Printf("\nmachine: %s, nproc %d, GOMAXPROCS %d, %s; triad %.2f GB/s over 3 arrays of %d B (LLC %d B, %s)\n",
			mi.CPUModel, mi.NProc, mi.GOMAXPROCS, mi.GoVersion, mi.TriadGBps, mi.TriadArrayB, mi.LLCBytes, mi.TriadLabel)
	}
	if out == "" {
		return ok, nil
	}
	var file resultsFile
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return false, fmt.Errorf("%s: %w", out, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return false, err
	}
	file.Sets = append(file.Sets, set)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(out, append(data, '\n'), 0o644)
}

// gitSHA names the commit a set measured (empty outside a git checkout).
func gitSHA(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func loadSets(path string) ([]*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s holds no result set", path)
	}
	return f.Sets, nil
}

// runCompare prints, per (workload, end-to-end metric), both medians, the
// ratio with its base, the bound and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	regressed   it is
//	unresolved  either side's own spread is wider than the bound, so the
//	            two medians cannot be told apart at that resolution
//
// With two files it compares the last set of each; with one, that file's
// first two sets. It reports false on any regressed row or a higher
// failed_share.
func runCompare(w io.Writer, args []string) (bool, error) {
	var a, b *resultSet
	switch len(args) {
	case 1:
		sets, err := loadSets(args[0])
		if err != nil {
			return false, err
		}
		if len(sets) < 2 {
			return false, fmt.Errorf("%s holds one set; need two to compare", args[0])
		}
		a, b = sets[0], sets[1]
	case 2:
		sa, err := loadSets(args[0])
		if err != nil {
			return false, err
		}
		sb, err := loadSets(args[1])
		if err != nil {
			return false, err
		}
		a, b = sa[len(sa)-1], sb[len(sb)-1]
	default:
		return false, fmt.Errorf("-compare takes one or two result files")
	}
	ok := true
	counts := map[string]int{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (base)\tb\tb/a\tspread a\tspread b\tbound\tverdict\n")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from one side", wl.name)
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := (sb.Median - sa.Median) / math.Abs(sa.Median)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			// setup_s is bounded on its median only: its runs are few
			// milliseconds long and their spread says little.
			case d.Name != "setup_s" && math.Max(sa.spread(), sb.spread()) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				ok = false
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.4f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, sa.Median, d.Unit, sb.Median, sb.Median/sa.Median, sa.spread()*100, sb.spread()*100, d.Bound*100, verdict)
		}
		if wb.FailedShare > wa.FailedShare {
			ok = false
			fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\t\t\t\t0%%\tregressed\n", wl.name, wa.FailedShare, wb.FailedShare)
			counts["regressed"]++
		}
		if wa.Hash != wb.Hash && a.Seed == b.Seed && wa.Iters == wb.Iters {
			ok = false
			fmt.Fprintf(tw, "%s\thash\t%s\t%s\t\t\t\t\tchanged\n", wl.name, wa.Hash, wb.Hash)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "\n%d ok, %d regressed, %d unresolved (a: seed %d, %d runs of %gs, %s; b: seed %d, %d runs of %gs, %s)\n",
		counts["ok"], counts["regressed"], counts["unresolved"],
		a.Seed, a.Runs, a.Seconds, short(a.GitSHA), b.Seed, b.Runs, b.Seconds, short(b.GitSHA))
	return ok, nil
}

func short(sha string) string {
	if len(sha) > 10 {
		return sha[:10]
	}
	if sha == "" {
		return "no git"
	}
	return sha
}
