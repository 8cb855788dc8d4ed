// Package runlog records what the runtime did — per-regrid work assignments,
// capacities, imbalance, and the virtual-time cost breakdown — and renders
// the tables and data series the experiment harness prints. It is the
// bookkeeping behind every figure and table reproduction.
package runlog

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"samrpart/internal/capacity"
)

// AssignmentRecord captures one regrid/repartition event.
type AssignmentRecord struct {
	// Regrid is the ordinal of this regrid (1-based, as in the paper's
	// figures).
	Regrid int
	// Iter is the coarse iteration at which the regrid happened.
	Iter int
	// VirtualTime is the cluster clock at the event.
	VirtualTime float64
	// Caps are the relative capacities used for this partition.
	Caps []float64
	// Work is the per-node assigned load W_k.
	Work []float64
	// Ideal is the per-node capacity share L_k.
	Ideal []float64
	// Boxes is the number of output boxes.
	Boxes int
	// TrueCaps are the ground-truth relative capacities at the event
	// (bypassing any sensor faults and forecasting), when the runtime can
	// observe them; nil otherwise. They expose how far a corrupted or stale
	// capacity estimate drove the partition from where it should be.
	TrueCaps []float64
}

// MaxImbalance returns max_k |W_k - L_k| / L_k * 100 for the record.
func (r AssignmentRecord) MaxImbalance() float64 {
	return capacity.MaxImbalance(r.Work, r.Ideal)
}

// trueMaxImbalance returns the max imbalance of the assigned work against
// the ground-truth capacity shares (NaN when TrueCaps is unavailable). A
// run that partitions on garbage capacities can look balanced against its
// own believed ideal while being badly unbalanced against the truth; this
// is the metric that exposes it.
func (r AssignmentRecord) trueMaxImbalance() float64 {
	if r.TrueCaps == nil {
		return math.NaN()
	}
	total := 0.0
	for _, w := range r.Work {
		total += w
	}
	ideal := capacity.Shares(r.TrueCaps, total)
	return capacity.MaxImbalance(r.Work, ideal)
}

// RunTrace aggregates one experiment run.
type RunTrace struct {
	// Name labels the run ("ACEHeterogeneous/P=32").
	Name string
	// Nodes is the cluster size.
	Nodes int
	// Iterations is the number of coarse iterations executed.
	Iterations int
	// Records holds one entry per regrid.
	Records []AssignmentRecord
	// ExecTime is the total virtual execution time in seconds, the
	// paper's headline metric.
	ExecTime float64
	// Breakdown of ExecTime.
	ComputeTime, CommTime, SenseTime, RegridTime float64
	// Senses is how many sensing sweeps ran.
	Senses int
	// MovedBytes is the total data volume redistributed across all
	// repartitions (owner changes), a locality/affinity metric.
	MovedBytes float64
	// RetainedBytes is the data volume repartitions left in place (same
	// owner before and after); MovedBytes/(MovedBytes+RetainedBytes) is the
	// run's migration fraction.
	RetainedBytes float64
	// MsgsSent is the total ghost-exchange message count across the run
	// under the cost model (one message per neighbor overlap per sub-step).
	MsgsSent int64
	// Utilization[k] is node k's mean busy fraction during compute phases
	// (its compute time over the step's critical path); 1.0 on every node
	// means perfect balance.
	Utilization []float64
	// Repartitions counts adopted repartitions; RepartitionsSkipped counts
	// sense-triggered repartitions the hysteresis guard suppressed.
	Repartitions, RepartitionsSkipped int
	// SenseFailures counts sensing sweeps whose capacity computation failed
	// (degenerate or invalid measurements) so the engine kept the previous
	// capacities instead.
	SenseFailures int
	// Sensor summarizes the monitor's sensing-hygiene counters at run end.
	Sensor SensorHealth
	// Degraded counts the control loop's fallback events.
	Degraded DegradedCounters
	// Crashes and Rejoins count membership events the fault schedule
	// injected (a rejoin lifts a previous crash's load).
	Crashes, Rejoins int
	// StragglerDemotions and StragglerPromotions count the straggler
	// detector's state transitions (shed/quarantine entries and exits).
	StragglerDemotions, StragglerPromotions int
}

// SensorHealth mirrors the monitor's sensing pipeline counters into the
// trace (plain ints so the trace package stays independent of monitor).
type SensorHealth struct {
	// Probes is the number of per-node probe attempts across the run.
	Probes int
	// Timeouts, Drops and Panics are probes that returned no reading.
	Timeouts, Drops, Panics int
	// Garbage and Outliers are readings rejected by sanitization and the
	// MAD filter respectively.
	Garbage, Outliers int
	// StaleFallbacks and Decays are senses answered from the last forecast
	// and from the decayed forecast.
	StaleFallbacks, Decays int
	// DeadNodes is the number of nodes whose sensor was dead at run end.
	DeadNodes int
}

// Degradations returns the total number of readings that did not flow
// cleanly into the capacity metric.
func (s SensorHealth) Degradations() int {
	return s.Timeouts + s.Drops + s.Panics + s.Garbage + s.Outliers
}

// DegradedCounters records how often the repartitioning control loop had to
// fall back instead of adopting the configured partitioner's output.
type DegradedCounters struct {
	// PartitionErrors counts partitioner calls that errored or produced an
	// assignment rejected by Assignment.Validate.
	PartitionErrors int
	// InvalidRejected counts assignments rejected by validation alone.
	InvalidRejected int
	// FallbackHetero / FallbackComposite count successful recoveries via
	// the fallback partitioners; KeptLastGood counts events where no
	// partitioner produced a valid assignment and the previous one was
	// retained.
	FallbackHetero, FallbackComposite, KeptLastGood int
}

// Total returns the number of degradation events.
func (d DegradedCounters) Total() int {
	return d.FallbackHetero + d.FallbackComposite + d.KeptLastGood
}

// MeanTrueMaxImbalance averages the per-regrid maximum imbalance against
// ground-truth capacities over the records that carry them (NaN if none
// do).
func (t *RunTrace) MeanTrueMaxImbalance() float64 {
	sum, n := 0.0, 0
	for _, r := range t.Records {
		if r.TrueCaps == nil {
			continue
		}
		sum += r.trueMaxImbalance()
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MeanUtilization averages the per-node utilization.
func (t *RunTrace) MeanUtilization() float64 {
	if len(t.Utilization) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range t.Utilization {
		sum += u
	}
	return sum / float64(len(t.Utilization))
}

// MeanMaxImbalance averages the per-regrid maximum imbalance.
func (t *RunTrace) MeanMaxImbalance() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range t.Records {
		sum += r.MaxImbalance()
	}
	return sum / float64(len(t.Records))
}

// Summary formats the headline numbers.
func (t *RunTrace) Summary() string {
	return fmt.Sprintf("%s: %d nodes, %d iters, exec %.1fs (compute %.1f, comm %.1f, sense %.1f, regrid %.1f), mean max imbalance %.1f%%",
		t.Name, t.Nodes, t.Iterations, t.ExecTime,
		t.ComputeTime, t.CommTime, t.SenseTime, t.RegridTime, t.MeanMaxImbalance())
}

// WriteSummary writes the run's full human-readable summary: headline
// timing, migration volume, and — when the run exercised them — the
// sensing and control-loop degradation counters. Unlike Summary it
// propagates writer errors, so callers streaming to files or sockets see
// short writes instead of silently truncated reports.
func (t *RunTrace) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintln(w, t.Summary()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "mean node utilization: %.0f%%, redistributed %.1f MB (%.1f MB retained in place)\n",
		t.MeanUtilization()*100, t.MovedBytes/1e6, t.RetainedBytes/1e6)
	if err != nil {
		return err
	}
	if t.Sensor.Probes > 0 {
		_, err = fmt.Fprintf(w, "sensing: %d probes, %d degraded (%d timeouts, %d drops, %d garbage, %d outliers), %d dead sensors\n",
			t.Sensor.Probes, t.Sensor.Degradations(), t.Sensor.Timeouts,
			t.Sensor.Drops, t.Sensor.Garbage, t.Sensor.Outliers, t.Sensor.DeadNodes)
		if err != nil {
			return err
		}
	}
	if t.Repartitions+t.RepartitionsSkipped+t.Degraded.Total()+t.SenseFailures > 0 {
		_, err = fmt.Fprintf(w, "control loop: %d repartitions adopted, %d skipped, %d fallbacks, %d failed senses\n",
			t.Repartitions, t.RepartitionsSkipped, t.Degraded.Total(), t.SenseFailures)
		if err != nil {
			return err
		}
	}
	return nil
}

// Table is a simple aligned-text / CSV table.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// Add appends a row; it pads or truncates to the header width.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddF appends a row of formatted values: strings pass through, float64
// render with %g-style compact precision, ints with %d.
func (t *Table) AddF(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, strconv.FormatFloat(v, 'f', 1, 64))
		case int:
			row = append(row, strconv.Itoa(v))
		case int64:
			row = append(row, strconv.FormatInt(v, 10))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.Add(row...)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the table as comma-separated values (header first).
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Series is a labelled data series for figure-style output (one line per
// x-value with one column per label).
type Series struct {
	title  string
	xName  string
	labels []string
	x      []float64
	y      [][]float64 // y[i][j] = value of Labels[j] at X[i]
}

// NewSeries creates a series container.
func NewSeries(title, xname string, labels ...string) *Series {
	return &Series{title: title, xName: xname, labels: labels}
}

// Add appends one x row with len(Labels) values.
func (s *Series) Add(x float64, ys ...float64) {
	s.x = append(s.x, x)
	row := make([]float64, len(s.labels))
	copy(row, ys)
	s.y = append(s.y, row)
}

// Render writes the series as an aligned table.
func (s *Series) Render(w io.Writer) error {
	t := NewTable(s.title, append([]string{s.xName}, s.labels...)...)
	for i, x := range s.x {
		cells := make([]string, 0, 1+len(s.labels))
		cells = append(cells, strconv.FormatFloat(x, 'f', -1, 64))
		for _, y := range s.y[i] {
			cells = append(cells, strconv.FormatFloat(y, 'f', 1, 64))
		}
		t.Add(cells...)
	}
	return t.Render(w)
}
