package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"samrpart/internal/obs/trace"
)

// TestAllFlagsRegistered asserts registerFlags declares the complete flag
// surface the tooling depends on.
func TestAllFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	o := registerFlags(fs)
	for _, name := range []string{
		"all", "scaling", "fig7", "fig8", "fig11", "table2", "table3",
		"ablations", "fault", "fault-spec", "elastic", "sensorfault", "movement",
		"sensor-fault-spec", "repartition-threshold", "workers",
		"cpuprofile", "memprofile", "obs-addr", "trace", "obs-seed",
		"weak-scaling", "weak-ranks", "group-size", "csv",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if o.all == nil || o.obsAddr == nil || o.trace == nil {
		t.Fatal("options not bound")
	}
}

// TestDocumentedFlagsExist scans EXPERIMENTS.md and README.md for
// `go run ./cmd/experiments -flag ...` invocations and checks that every
// flag the docs mention is actually registered.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	registerFlags(fs)
	invocation := regexp.MustCompile(`go run \./cmd/experiments([^\n` + "`" + `]*)`)
	flagTok := regexp.MustCompile(`-([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"../../EXPERIMENTS.md", "../../README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range invocation.FindAllStringSubmatch(string(data), -1) {
			args, _, _ := strings.Cut(m[1], "#") // drop shell comments
			for _, f := range flagTok.FindAllStringSubmatch(args, -1) {
				if fs.Lookup(f[1]) == nil {
					t.Errorf("%s documents unknown flag -%s (in %q)",
						strings.TrimPrefix(doc, "../../"), f[1], strings.TrimSpace(m[0]))
				}
			}
		}
	}
}

// TestFailedStudyKeepsItsRunLog: a study that fails after others have run
// and recorded spans still returns the error (exit status 1, not a usage
// error), with every record flushed and the run log closed. The fault spec
// below has no crash, so -fault fails after Figures 8-10.
func TestFailedStudyKeepsItsRunLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "run.jsonl")
	err := run([]string{"-fig8", "-fault", "-fault-spec", "slow:rank=1,from=12,to=20,factor=4",
		"-trace", logPath}, io.Discard)
	if err == nil || errors.As(err, new(usageError)) {
		t.Fatalf("a fault spec without a crash: err %v, want a study failure", err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, skipped, err := trace.ReadRecords(f)
	if err != nil || skipped != 0 || len(recs) == 0 {
		t.Fatalf("run log after a failed study: %d records, %d skipped, err %v", len(recs), skipped, err)
	}
}
