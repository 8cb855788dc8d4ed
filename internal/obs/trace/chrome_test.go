package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteChromeGolden pins the exact Chrome trace-event rendering of a
// tiny deterministic two-rank iteration: process metadata, "X" span slices
// on the relative µs axis, and a matched send→recv flow arrow pair.
func TestWriteChromeGolden(t *testing.T) {
	recs := []Record{
		{K: "s", R: 0, P: -1, Ph: PhaseCompute.String(), E: 0, I: 3, T0: 1000, T1: 4000},
		{K: "s", R: 0, P: 1, Ph: PhaseHaloWait.String(), E: 0, I: 3, TS: 5500, T0: 4000, T1: 6000},
		{K: "s", R: 1, P: -1, Ph: PhaseCompute.String(), E: 0, I: 3, T0: 1000, T1: 5000},
		{K: "m", R: 1, P: 0, Kd: KindHalo, E: 0, I: 3, B: 256, TS: 5500, T: 5500},
		{K: "v", R: 0, P: 1, Kd: KindHalo, E: 0, I: 3, B: 256, TS: 5500, T: 5900},
	}
	tl := Stitch(recs, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs, tl); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	got := buf.String()

	want := `[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"rank 0"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"rank 1"}},
{"ph":"X","pid":0,"tid":0,"name":"compute","cat":"phase","ts":0.000,"dur":3.000,"args":{"epoch":0,"iter":3}},
{"ph":"X","pid":1,"tid":0,"name":"compute","cat":"phase","ts":0.000,"dur":4.000,"args":{"epoch":0,"iter":3}},
{"ph":"X","pid":0,"tid":0,"name":"halo-wait","cat":"phase","ts":3.000,"dur":2.000,"args":{"epoch":0,"iter":3,"peer":1}},
{"ph":"s","pid":1,"tid":0,"id":1,"name":"halo","cat":"msg","ts":4.500,"args":{"bytes":256}},
{"ph":"f","bp":"e","pid":0,"tid":0,"id":1,"name":"halo","cat":"msg","ts":4.900}
]
`
	if got != want {
		t.Fatalf("chrome export drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// And the output must be valid JSON end to end.
	var evs []map[string]any
	if err := json.Unmarshal([]byte(got), &evs); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(evs) != 7 {
		t.Fatalf("got %d events, want 7", len(evs))
	}
}

// TestWriteChromeAlignsSkewedRanks proves span timestamps are shifted by the
// stitched per-rank offsets: with rank 1's clock 1µs ahead, its span lands
// on the same aligned axis as rank 0's.
func TestWriteChromeAlignsSkewedRanks(t *testing.T) {
	recs := []Record{
		{K: "s", R: 0, P: -1, Ph: PhaseCompute.String(), E: 0, I: 0, T0: 0, T1: 1000},
		// Rank 1 did the same work over the same true interval, but its
		// local clock reads 1000ns ahead.
		{K: "s", R: 1, P: -1, Ph: PhaseCompute.String(), E: 0, I: 0, T0: 1000, T1: 2000},
		// Symmetric offset observations: each rank estimates the other.
		{K: "o", R: 0, P: 1, Off: 1000, RTT: 10, T: 0},
		{K: "o", R: 1, P: 0, Off: -1000, RTT: 10, T: 0},
	}
	tl := Stitch(recs, 0)
	if tl.Offsets[1] != 1000 {
		t.Fatalf("offset[1] = %d, want 1000", tl.Offsets[1])
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs, tl); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev["ph"] == "X" && ev["ts"].(float64) != 0 {
			t.Errorf("span on rank %v starts at %v µs, want 0 after alignment", ev["pid"], ev["ts"])
		}
	}
}

// TestWriteChromeEngineRank pins how Engine.Run's rank -1 renders: trace
// viewers fold a negative pid into process 0, so the control loop gets its
// own named row after the highest rank, and a span's byte volume rides its
// args. The stitcher must cover the window from rank -1's spans alone.
func TestWriteChromeEngineRank(t *testing.T) {
	recs := []Record{
		{K: "s", R: -1, P: -1, Ph: PhaseSense.String(), E: 0, I: 5, T0: 1000, T1: 2000},
		{K: "s", R: -1, P: -1, Ph: PhaseMigrate.String(), E: 0, I: 5, B: 4096, T0: 2000, T1: 3500},
	}
	tl := Stitch(recs, 0)
	if len(tl.Iters) != 1 || tl.Iters[0].Covered != tl.Iters[0].Wall || tl.Iters[0].Wall != 2500 {
		t.Fatalf("engine-only window = %+v", tl.Iters)
	}
	if len(tl.Shares) != 1 || tl.Shares[0].Rank != -1 {
		t.Fatalf("shares = %+v, want all critical-path time on rank -1", tl.Shares)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs, tl); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	want := `[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"engine"}},
{"ph":"X","pid":0,"tid":0,"name":"sense","cat":"phase","ts":0.000,"dur":1.000,"args":{"epoch":0,"iter":5}},
{"ph":"X","pid":0,"tid":0,"name":"migrate","cat":"phase","ts":1.000,"dur":1.500,"args":{"epoch":0,"iter":5,"bytes":4096}}
]
`
	if got := buf.String(); got != want {
		t.Fatalf("chrome export drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
