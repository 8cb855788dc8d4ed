package engine

import (
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/transport"
)

// tracedIteration returns one full short 2-rank SPMD run (setup + 4
// iterations) over the channel transport, once with tracing off and once
// with every span and message written to a discarded run log.
func tracedIteration() (untraced, traced func() error) {
	program := func(rt *obs.Runtime) func() error {
		cfg := spmdConfig(4)
		cfg.CapsAt = capsSwitcher(2)
		cfg.Obs = rt
		return func() error {
			eps, err := transport.NewGroup(2)
			if err != nil {
				return err
			}
			var wg sync.WaitGroup
			errs := [2]error{}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					_, errs[r] = RunSPMDRank(eps[r], cfg)
				}(r)
			}
			wg.Wait()
			if errs[0] != nil {
				return errs[0]
			}
			return errs[1]
		}
	}
	return program(nil), program(obs.New(obs.Config{Seed: 1, Trace: trace.NewLog(io.Discard)}))
}

// BenchmarkTracedIteration runs the identical program with tracing off and
// on; in practice the gap is a few percent, dominated by the per-record
// JSONL encode.
func BenchmarkTracedIteration(b *testing.B) {
	untraced, traced := tracedIteration()
	for _, tc := range []struct {
		name string
		run  func() error
	}{{"untraced", untraced}, {"traced", traced}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTracingCostsAtMostTwice caps the tracing overhead: traced runs may
// take at most 2x the untraced ones, both in this process. One run is ~0.3 ms
// and its wall time is mostly how the two rank goroutines happened to be
// scheduled, so a sample is a batch of runs and each side is the median of
// its interleaved batches: over hundreds of trials a lucky batch took the
// ratio of minima to 2.0 and one stall took the ratio of totals to 3.0.
func TestTracingCostsAtMostTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	untraced, traced := tracedIteration()
	batch := func(run func() error) time.Duration {
		t0 := time.Now()
		for i := 0; i < 10; i++ {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	var off, on [7]time.Duration
	for i := range off {
		off[i], on[i] = batch(untraced), batch(traced)
	}
	slices.Sort(off[:])
	slices.Sort(on[:])
	if offMed, onMed := off[len(off)/2], on[len(on)/2]; onMed > 2*offMed {
		t.Errorf("10 traced runs %v, untraced %v: %.2fx, want <= 2x", onMed, offMed, onMed.Seconds()/offMed.Seconds())
	}
}
