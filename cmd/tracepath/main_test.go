package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
)

// sampleTrace is a deterministic two-rank log: rank 1 computes late, rank 0
// blocks on its halo, a heartbeat pair yields clock offsets, and a shed
// verdict names rank 1.
const sampleTrace = `{"k":"s","r":0,"ph":"compute","e":0,"i":7,"t0":0,"t1":100000}
{"k":"s","r":0,"p":1,"ph":"halo-wait","e":0,"i":7,"ts":450000,"t0":100000,"t1":500000}
{"k":"s","r":0,"ph":"advance","e":0,"i":7,"t0":500000,"t1":550000}
{"k":"s","r":1,"ph":"compute","e":0,"i":7,"t0":0,"t1":440000}
{"k":"s","r":1,"ph":"pack","e":0,"i":7,"t0":440000,"t1":450000}
{"k":"m","r":1,"p":0,"kd":"h","e":0,"i":7,"b":2048,"ts":450000,"t":450000}
{"k":"v","r":0,"p":1,"kd":"h","e":0,"i":7,"b":2048,"ts":450000,"t":460000}
{"k":"s","r":1,"ph":"advance","e":0,"i":7,"t0":450000,"t1":460000}
{"k":"o","r":0,"p":1,"off":5000,"rtt":900,"t":100}
{"k":"o","r":1,"p":0,"off":-5000,"rtt":900,"t":100}
{"k":"g","r":0,"tgt":1,"e":0,"i":7,"st":"shed","t":100}
{"k":"g","r":1,"tgt":1,"e":0,"i":7,"st":"shed","t":100}
`

// TestTracepathGolden pins the report shape: the critical-path row names the
// blocking chain, attribution charges rank 1, the clock table carries the
// 5µs offset, and the verdict column cross-references the detector.
func TestTracepathGolden(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleTrace), &out, 3, "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"12 records, 2 ranks, 1 iteration windows",
		"per-phase breakdown",
		"per-rank breakdown",
		"per-iteration critical path",
		"100.0%",         // full coverage
		"0:halo-wait<-1", // the wait hop names the blocking peer
		"straggler attribution",
		"shed@(0,7)", // detector verdict cross-check
		"clock alignment",
		"0.005", // 5000ns offset in ms
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
	// Rank 1 must head the attribution ranking: its own compute plus the
	// charged halo-wait dominate the 550µs window.
	shareSec := got[strings.Index(got, "straggler attribution"):]
	line1 := strings.Index(shareSec, "\n1 ")
	line0 := strings.Index(shareSec, "\n0 ")
	if line1 == -1 || (line0 != -1 && line0 < line1) {
		t.Errorf("rank 1 does not head the attribution table:\n%s", shareSec)
	}
}

func TestTracepathCSVAndChrome(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleTrace), &out, 2, "", "causes"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "epoch,") {
		t.Fatalf("causes CSV = %q", out.String())
	}

	chrome := filepath.Join(t.TempDir(), "out.json")
	if err := run(strings.NewReader(sampleTrace), &out, 2, chrome, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ph":"X"`) {
		t.Errorf("chrome export has no span events:\n%s", data)
	}

	if err := run(strings.NewReader(sampleTrace), &out, 2, "", "bogus"); err == nil {
		t.Error("bogus -csv table accepted")
	}
}

// TestTracepathTruncatedInput proves the CLI analyzes a log with a cut
// final line instead of dying on it.
func TestTracepathTruncatedInput(t *testing.T) {
	var out strings.Builder
	in := sampleTrace + `{"k":"s","r":0,"ph":"compute","e":0,"i":8,"t0":600000,"t1`
	if err := run(strings.NewReader(in), &out, 3, "", ""); err != nil {
		t.Fatalf("truncated tail should be skipped: %v", err)
	}
	if !strings.Contains(out.String(), "12 records") {
		t.Errorf("surviving records not analyzed:\n%s", out.String())
	}
}

func TestTracepathEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("garbage\n"), &out, 3, "", ""); err == nil {
		t.Error("want an error on a log with no valid records")
	}
}

// runtimeLog builds a real run log through the obs runtime's recorders, so
// the breakdown tables are tested against the writer's actual wire format:
// two SPMD ranks with compute spans and 1 MiB halo frames over three
// iterations, plus the engine's control loop as rank -1.
func runtimeLog(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	log := trace.NewLog(&buf)
	rt := obs.New(obs.Config{Seed: 42, Trace: log})
	for rank := 0; rank < 2; rank++ {
		rec := rt.Recorder(rank)
		for iter := 0; iter < 3; iter++ {
			rec.SetPos(0, iter)
			rec.Span(trace.PhaseCompute).End()
			w := rec.WaitSpan(trace.PhaseHaloWait, 1-rank)
			rec.Recv(1-rank, trace.KindHalo, 1<<20, 0, int32(iter), rec.Now())
			w.End()
		}
	}
	eng := rt.Recorder(-1)
	eng.Span(trace.PhaseSense).End()
	eng.Span(trace.PhaseMigrate).EndBytes(4 << 20)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestBreakdownTables(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(runtimeLog(t)), &out, 3, "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"20 records, 3 ranks",
		"per-phase breakdown",
		"per-rank breakdown",
		"sense",
		"compute",
		"halo-wait",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
	// 2 ranks x 3 iters x 1 MiB halo frame each: the halo-wait phase row
	// carries 6.291 MB, each rank row half that; the engine's migrate span
	// carries its own 4 MiB.
	for _, mb := range []string{"6.291", "3.146", "4.194"} {
		if !strings.Contains(got, mb) {
			t.Errorf("MB column missing %s:\n%s", mb, got)
		}
	}
	// Phase rows follow the vocabulary, not the order spans were logged in.
	phaseSec := got[strings.Index(got, "per-phase breakdown"):strings.Index(got, "per-rank breakdown")]
	if s, c := strings.Index(phaseSec, "\nsense"), strings.Index(phaseSec, "\ncompute"); s == -1 || c == -1 || s > c {
		t.Errorf("phase rows out of vocabulary order:\n%s", phaseSec)
	}
	// The engine control loop reports as rank -1.
	rankSec := got[strings.Index(got, "per-rank breakdown"):strings.Index(got, "per-iteration critical path")]
	if !strings.Contains(rankSec, "\n-1 ") {
		t.Errorf("rank -1 row missing:\n%s", rankSec)
	}
}

func TestBreakdownCSV(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(runtimeLog(t)), &out, 3, "", "phase"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 { // header + sense + migrate + compute + halo-wait
		t.Fatalf("want 5 phase CSV lines, got %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "phase,spans,") || !strings.HasPrefix(lines[4], "halo-wait,6,") {
		t.Errorf("phase CSV = %q", lines)
	}

	out.Reset()
	if err := run(strings.NewReader(runtimeLog(t)), &out, 3, "", "rank"); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || lines[0] != "rank,spans,sense,migrate,compute,halo-wait,MB" ||
		!strings.HasPrefix(lines[1], "-1,2,") || !strings.HasPrefix(lines[2], "0,6,-,-,") {
		t.Errorf("rank CSV = %q", lines)
	}
}

// TestBreakdownMalformedInput proves the cost tables survive a log whose
// tail was truncated mid-write: the cut line is skipped, the surviving
// records are still broken down.
func TestBreakdownMalformedInput(t *testing.T) {
	var out strings.Builder
	in := runtimeLog(t) + `{"k":"s","r":0,"ph":"compute","e":0,"i":3,"t0":1,"t1`
	if err := run(strings.NewReader(in), &out, 3, "", "phase"); err != nil {
		t.Fatalf("truncated trailing line should be skipped, got %v", err)
	}
	if !strings.Contains(out.String(), "\ncompute,6,") {
		t.Errorf("surviving records not broken down:\n%s", out.String())
	}
}
