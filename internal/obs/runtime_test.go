package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"samrpart/internal/obs/trace"
)

func TestNilRuntimeIsOff(t *testing.T) {
	var rt *Runtime
	if rt.Registry() != nil {
		t.Error("nil runtime must expose nil registry")
	}
	if rt.RunIDString() != "" || rt.uptime() != 0 {
		t.Error("nil runtime metadata must be zero")
	}
	rec := rt.Recorder(0)
	if rec != nil || rec.Logged() {
		t.Error("nil runtime must hand out the nil recorder")
	}
	sp := rec.Span(trace.PhaseCompute)
	sp.End()
	sp.EndBytes(10)
	if rt.PhaseHistogram(trace.PhaseCompute) != nil {
		t.Error("nil runtime must expose nil histograms")
	}
	rt.SetState("x", func() any { return 1 })
}

// TestRuntimeRecorder checks the one-End-two-sinks contract: a span closed
// on a runtime recorder lands in its phase's histogram and, with a run log
// configured, as one record whose extent is the observed duration.
func TestRuntimeRecorder(t *testing.T) {
	var buf bytes.Buffer
	log := trace.NewLog(&buf)
	rt := New(Config{Seed: 42, Trace: log})
	if rt.RunIDString() != runID(42) {
		t.Errorf("run ID = %q, want %q", rt.RunIDString(), runID(42))
	}

	rec := rt.Recorder(3)
	if !rec.Logged() {
		t.Fatal("recorder of a runtime with a log must be logged")
	}
	rec.SetPos(1, 17)
	sp := rec.WaitSpan(trace.PhaseHaloWait, 2)
	time.Sleep(time.Millisecond)
	sp.EndGated(5)
	rec.Span(trace.PhaseMigrate).EndBytes(2048)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := trace.ReadRecords(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d", err, skipped)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	w := recs[0]
	if w.Ph != "halo-wait" || w.R != 3 || w.P != 2 || w.E != 1 || w.I != 17 || w.TS != 5 {
		t.Errorf("wait record = %+v", w)
	}
	h := rt.PhaseHistogram(trace.PhaseHaloWait)
	if h.Count() != 1 || h.Sum() != float64(w.T1-w.T0)/1e9 {
		t.Errorf("halo-wait histogram count=%d sum=%g, record extent %d ns",
			h.Count(), h.Sum(), w.T1-w.T0)
	}
	if m := recs[1]; m.Ph != "migrate" || m.B != 2048 || m.P != -1 {
		t.Errorf("migrate record = %+v", m)
	}
	if rt.PhaseHistogram(trace.PhaseMigrate).Count() != 1 {
		t.Error("migrate span not observed")
	}

	// A runtime without a log still observes, and says it writes nothing.
	quiet := New(Config{Seed: 1})
	qrec := quiet.Recorder(0)
	if qrec == nil || qrec.Logged() {
		t.Fatal("metrics-only recorder must be live but not logged")
	}
	qrec.Span(trace.PhaseCompute).End()
	if quiet.PhaseHistogram(trace.PhaseCompute).Count() != 1 {
		t.Error("metrics-only span not observed")
	}

	// Every vocabulary phase is registered up front so the exposition is
	// stable from the first scrape.
	var exp strings.Builder
	if err := rt.Registry().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if !strings.Contains(exp.String(), `phase="`+p.String()+`"`) {
			t.Errorf("exposition missing phase %q", p)
		}
	}
}

func TestRunIDDeterministic(t *testing.T) {
	if runID(42) != runID(42) {
		t.Error("same seed must give same run ID")
	}
	if runID(1) == runID(2) {
		t.Error("distinct seeds must give distinct run IDs")
	}
	if !strings.HasPrefix(runID(7), "run-") || len(runID(7)) != len("run-")+16 {
		t.Errorf("run ID shape: %q", runID(7))
	}
}
