package runlog

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestAssignmentRecordImbalance(t *testing.T) {
	r := AssignmentRecord{
		Work:  []float64{110, 95},
		Ideal: []float64{100, 100},
	}
	if got := r.MaxImbalance(); got != 10 {
		t.Errorf("MaxImbalance = %g", got)
	}
}

func TestRunTraceSummaryAndMean(t *testing.T) {
	tr := RunTrace{
		Name: "test", Nodes: 4, Iterations: 10, ExecTime: 42,
		Records: []AssignmentRecord{
			{Work: []float64{110}, Ideal: []float64{100}},
			{Work: []float64{130}, Ideal: []float64{100}},
		},
	}
	if got := tr.MeanMaxImbalance(); got != 20 {
		t.Errorf("MeanMaxImbalance = %g", got)
	}
	s := tr.Summary()
	if !strings.Contains(s, "test") || !strings.Contains(s, "42.0") {
		t.Errorf("Summary = %q", s)
	}
	var empty RunTrace
	if empty.MeanMaxImbalance() != 0 {
		t.Error("empty trace imbalance != 0")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Results", "name", "value")
	tab.Add("alpha", "1")
	tab.Add("beta-long", "22")
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if lines[0] != "Results" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	// Columns aligned: "alpha    " padded to "beta-long" width.
	if !strings.Contains(lines[3], "alpha      1") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestTableAddPads(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.Add("only")
	if len(tab.rows[0]) != 3 || tab.rows[0][1] != "" {
		t.Errorf("Rows[0] = %v", tab.rows[0])
	}
	tab.Add("1", "2", "3", "4") // extra truncated
	if len(tab.rows[1]) != 3 {
		t.Error("extra cells not truncated")
	}
}

func TestTableAddF(t *testing.T) {
	tab := NewTable("", "s", "f", "i", "i64", "other")
	tab.AddF("x", 3.14159, 7, int64(9), true)
	row := tab.rows[0]
	if row[0] != "x" || row[1] != "3.1" || row[2] != "7" || row[3] != "9" || row[4] != "true" {
		t.Errorf("AddF row = %v", row)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.Add("1", "x,y")
	var sb strings.Builder
	if err := tab.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("Fig", "x", "p0", "p1")
	s.Add(1, 10, 20)
	s.Add(2, 30) // missing value padded with 0
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "30.0") {
		t.Errorf("Series render = %q", out)
	}
	if s.y[1][1] != 0 {
		t.Error("missing value not padded")
	}
}

// failAfter errors once n bytes have been written, like a full disk or a
// closed pipe mid-report.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		room := f.n - f.written
		if room < 0 {
			room = 0
		}
		f.written = f.n
		return room, errors.New("writer full")
	}
	f.written += len(p)
	return len(p), nil
}

func sampleTrace() *RunTrace {
	return &RunTrace{
		Name:       "hetero/P=4",
		Nodes:      4,
		Iterations: 40,
		ExecTime:   12.5, ComputeTime: 9, CommTime: 2, SenseTime: 1, RegridTime: 0.5,
		Senses:        8,
		MovedBytes:    2.5e6,
		RetainedBytes: 7.5e6,
		MsgsSent:      1234,
		Utilization:   []float64{0.9, 0.95, 1, 0.85},
		Repartitions:  3, RepartitionsSkipped: 2, SenseFailures: 1,
		Sensor: SensorHealth{Probes: 32, Timeouts: 2, Garbage: 1, Outliers: 3, DeadNodes: 1},
		Degraded: DegradedCounters{
			PartitionErrors: 2, InvalidRejected: 1,
			FallbackHetero: 1, FallbackComposite: 1, KeptLastGood: 1,
		},
		Records: []AssignmentRecord{
			{
				Regrid: 1, Iter: 5, VirtualTime: 1.5, Boxes: 12,
				Caps:     []float64{0.16, 0.19, 0.31, 0.34},
				TrueCaps: []float64{0.25, 0.25, 0.25, 0.25},
				Work:     []float64{100, 120, 200, 220},
				Ideal:    []float64{102, 122, 198, 218},
			},
			{
				Regrid: 2, Iter: 10, VirtualTime: 3.1, Boxes: 14,
				Caps:  []float64{0.2, 0.2, 0.3, 0.3},
				Work:  []float64{130, 130, 190, 190},
				Ideal: []float64{128, 128, 192, 192},
			},
		},
	}
}

func TestWriteSummary(t *testing.T) {
	tr := sampleTrace()
	var sb strings.Builder
	if err := tr.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"hetero/P=4", "redistributed 2.5 MB", "7.5 MB retained",
		"32 probes", "6 degraded", "1 dead sensors",
		"3 repartitions adopted, 2 skipped, 3 fallbacks, 1 failed senses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// A quiet run (no probes, no control-loop events) prints only the
	// headline lines.
	quiet := &RunTrace{Name: "q", Nodes: 2, Iterations: 1, ExecTime: 1}
	sb.Reset()
	if err := quiet.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "sensing:") || strings.Contains(sb.String(), "control loop:") {
		t.Errorf("quiet run printed degradation lines:\n%s", sb.String())
	}

	for _, budget := range []int{0, 40, 120, 200} {
		if err := tr.WriteSummary(&failAfter{n: budget}); err == nil {
			t.Errorf("no error from writer failing after %d bytes", budget)
		}
	}
}

// TestRunTraceJSONRoundTrip pins the trace's JSON shape: a round trip
// preserves every field, including the nested DegradedCounters and the
// optional per-record TrueCaps.
func TestRunTraceJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back RunTrace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, &back) {
		t.Errorf("round trip changed the trace:\n in: %+v\nout: %+v", tr, &back)
	}
	if back.Degraded != tr.Degraded {
		t.Errorf("DegradedCounters lost: %+v", back.Degraded)
	}
	if !reflect.DeepEqual(back.Records[0].TrueCaps, tr.Records[0].TrueCaps) ||
		back.Records[1].TrueCaps != nil {
		t.Errorf("TrueCaps mis-round-tripped: %+v", back.Records)
	}
}
