package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatches keeps BENCHMARK.json and the tables in metrics.go and
// workloads.go the same document.
func TestManifestMatches(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, built any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, built) {
		t.Fatal("BENCHMARK.json differs from `-manifest`; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the manifest's limits", len(endToEnd), len(perLayer))
	}
}

// TestSmoke runs every workload at its smallest meaningful size through the
// whole measuring protocol, traced: two rounds, so the hash is checked
// against the serial reference on decorated and undecorated repetitions and
// the exact counters are compared across repetitions; then every declared
// metric must be present exactly once with a finite value.
func TestSmoke(t *testing.T) {
	probeQuick = true
	defer func() { probeQuick = false }()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		m, err := measure(w, measureOpts{seed: 7, traced: true, iters: w.smokeIters, minRounds: 2, root: root})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if m.Failed != 0 {
			t.Errorf("%s: %d of %d repetitions failed: %v", w.name, m.Failed, m.Attempted, m.Failures)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			got := m.only(defs)
			for _, d := range defs {
				v, ok := got[d.Name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", w.name, d.Name)
					continue
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.name, d.Name, v.Value)
				}
				if v.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		if len(m.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(m.Metrics), len(endToEnd)+len(perLayer))
		}
		if m.Metrics["bench.spans_reconcile"].Value != 1 {
			t.Errorf("%s: a rank's child spans do not fit inside its run span", w.name)
		}
		wire := m.Metrics["transport.send_calls"].Value + m.Metrics["transport.recv_calls"].Value
		if (w.name == "amr-regrid") != (wire == 0) {
			t.Errorf("%s: %v transport calls", w.name, wire)
		}
		if (w.name == "ft-ckpt") != (m.Metrics["checkpoint.B_written"].Value > 0) {
			t.Errorf("%s: checkpoint.B_written = %v", w.name, m.Metrics["checkpoint.B_written"].Value)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the pipeline uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32, 64})
	if q1 != 2 || q3 != 32 {
		t.Errorf("quartiles of 7 powers of two = %v, %v; Python gives 2, 32", q1, q3)
	}
}

// TestCompareVerdicts drives -compare over synthetic sets: a steady metric
// passes, a slower one regresses, a noisy one is unresolved.
func TestCompareVerdicts(t *testing.T) {
	mk := func(sPerIter []float64) *resultSet {
		set := &resultSet{Seed: 1, Runs: len(sPerIter), Workloads: map[string]*workloadSet{}}
		for _, w := range workloads {
			ws := &workloadSet{Iters: w.iters, Hash: "h", Attempted: 10, EndToEnd: map[string]stat{}}
			for _, d := range endToEnd {
				ws.EndToEnd[d.Name] = newStat(d.Unit, []float64{1, 1, 1})
			}
			ws.EndToEnd["s_per_iter"] = newStat("s", sPerIter)
			set.Workloads[w.name] = ws
		}
		return set
	}
	write := func(name string, sets ...*resultSet) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(resultsFile{Sets: sets})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []float64{1, 1.01, 0.99, 1, 1.005, 0.995, 1}
	for _, tc := range []struct {
		name    string
		b       []float64
		verdict string
		ok      bool
	}{
		{"steady", []float64{1.02, 1.03, 1.01, 1.02, 1.02, 1.03, 1.01}, "ok", true},
		{"slower", []float64{1.3, 1.31, 1.29, 1.3, 1.3, 1.31, 1.29}, "regressed", false},
		{"noisy", []float64{0.7, 1.4, 0.8, 1.3, 1, 0.6, 1.5}, "unresolved", true},
	} {
		var out bytes.Buffer
		ok, err := runCompare(&out, []string{write("a.json", mk(base)), write("b.json", mk(tc.b))})
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare passed = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " s_per_iter ") && !strings.HasSuffix(strings.TrimSpace(line), tc.verdict) {
				t.Errorf("%s: want verdict %s in row: %s", tc.name, tc.verdict, line)
			}
		}
	}
	// One file holding two sets compares its first two.
	var out bytes.Buffer
	if ok, err := runCompare(&out, []string{write("both.json", mk(base), mk(base))}); err != nil || !ok {
		t.Errorf("self-compare: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
