package main

import (
	"os"
	"path/filepath"
	"testing"

	"samrpart/internal/obs/trace"
)

// TestSPMDRunWritesCPUProfile: profiles are set up before the mode split, so
// an -spmd run leaves one too.
func TestSPMDRunWritesCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.out")
	if err := run([]string{"-spmd", "2", "-kernel", "advect2d", "-iters", "4", "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile missing or empty after an -spmd run: %v", err)
	}
}

// TestFailedRunKeepsItsRunLog: a run that fails after it has recorded spans
// still returns the error, with every record flushed and the file closed.
func TestFailedRunKeepsItsRunLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.jsonl")
	err := run([]string{"-iters", "4", "-trace", logPath, "-save", filepath.Join(dir, "no-such-dir", "final.ckpt")})
	if err == nil {
		t.Fatal("saving into a missing directory did not fail the run")
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, skipped, err := trace.ReadRecords(f)
	if err != nil || skipped != 0 || len(recs) == 0 {
		t.Fatalf("run log after a failed run: %d records, %d skipped, err %v", len(recs), skipped, err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to check the log was closed:", err)
	}
	open := 0
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == logPath {
			open++
		}
	}
	if open != 1 { // the test's own f
		t.Errorf("%d descriptors on the run log, want only the test's own", open)
	}
}
