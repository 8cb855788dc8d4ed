package engine

import (
	"io"
	"sync"
	"testing"

	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/transport"
)

// BenchmarkTracedIteration runs the identical 2-rank SPMD program with
// tracing off and on; each op is a full short run (setup + 4 iterations)
// over the channel transport. cmd/benchguard gates untraced/traced ≥ 0.5,
// capping the tracing overhead at 2x — in practice the gap is a few percent,
// dominated by the per-record JSONL encode.
func BenchmarkTracedIteration(b *testing.B) {
	run := func(b *testing.B, rt *obs.Runtime) {
		cfg := spmdConfig(4)
		cfg.CapsAt = capsSwitcher(2)
		cfg.Obs = rt
		for i := 0; i < b.N; i++ {
			eps, err := transport.NewGroup(2)
			if err != nil {
				b.Fatal(err)
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
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		run(b, nil)
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		run(b, obs.New(obs.Config{Seed: 1, Trace: trace.NewLog(io.Discard)}))
	})
}
