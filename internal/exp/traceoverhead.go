package exp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// traceOverheadRow is one application's traced-vs-untraced comparison.
type traceOverheadRow struct {
	app string
	// untracedMS/TracedMS are wall-clock for the full run (ms). On an
	// oversubscribed test machine the delta is noisy; the honest overhead
	// signal is the byte columns plus the benchmark gate in CI.
	untracedMS float64
	tracedMS   float64
	// wireBytes/TracedWireBytes are total transport payload bytes across all
	// ranks; the difference is exactly the piggybacked trace contexts.
	wireBytes       int64
	tracedWireBytes int64
	// logBytes and Records measure the JSONL trace log the run produced.
	logBytes int64
	records  int
	// bitExact reports the traced solution matched the untraced one
	// cell-bitwise — tracing observes, never perturbs.
	bitExact bool
}

// wirePct is the relative bytes-on-wire overhead (percent).
func (r traceOverheadRow) wirePct() float64 {
	if r.wireBytes == 0 {
		return 0
	}
	return 100 * float64(r.tracedWireBytes-r.wireBytes) / float64(r.wireBytes)
}

// TraceOverheadResult is the tracing-overhead mini-study across the solver
// suite.
type TraceOverheadResult struct {
	ranks, iters int
	rows         []traceOverheadRow
}

// countingWriter tallies bytes and JSONL records written to the trace log.
type countingWriter struct{ n, lines int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return len(p), nil
}

// TraceOverhead measures what distributed tracing costs: the same 4-rank
// SPMD run per application, tracing off then on, comparing wall-clock,
// bytes on the wire (the piggybacked contexts), trace-log volume, and
// bit-exactness of the solution.
func TraceOverhead(iters int) (*TraceOverheadResult, error) {
	if iters < 8 {
		iters = 8
	}
	const ranks = 4
	res := &TraceOverheadResult{ranks: ranks, iters: iters}

	apps := []struct {
		name   string
		kernel solver.Kernel
		domain geom.Box
		grid   solver.Grid
		tile   int
	}{
		{"advect2d", solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1), geom.Box2(0, 0, 31, 31), solver.UniformGrid(1.0 / 32), 8},
		{"muscl2d", solver.NewMUSCLAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1), geom.Box2(0, 0, 31, 31), solver.UniformGrid(1.0 / 32), 8},
		{"buckley", solver.NewBuckleyLeverett(1.0, 0.3), geom.Box2(0, 0, 31, 31), solver.UniformGrid(1.0 / 32), 8},
		{"euler3d", solver.NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1}), geom.Box3(0, 0, 0, 15, 15, 15), solver.UniformGrid(1.0 / 16), 4},
	}

	for _, app := range apps {
		cfg := engine.SPMDConfig{
			Domain:      app.domain,
			TileSize:    app.tile,
			Kernel:      app.kernel,
			BaseGrid:    app.grid,
			Partitioner: partition.NewHetero(),
			CapsAt: func(iter int) []float64 {
				caps := []float64{0.25, 0.25, 0.25, 0.25}
				if iter >= iters/2 {
					// Shift a third of rank 0's share so every run exercises
					// a traced redistribution, not just halo exchange.
					caps = []float64{0.25 - 0.25/3, 0.25, 0.25, 0.25 + 0.25/3}
				}
				return caps
			},
			Iterations:  iters,
			RepartEvery: 4,
		}

		// The study compares no runtime against a private runtime that only
		// carries the run log; the injected obsRT stays out of it, because a
		// run log on obsRT would put trace contexts on the baseline's wire too.
		runOnce := func(rt *obs.Runtime) ([]*engine.SPMDResult, time.Duration, error) {
			eps, err := transport.NewGroup(ranks)
			if err != nil {
				return nil, 0, err
			}
			cfg := cfg
			cfg.Obs = rt
			results := make([]*engine.SPMDResult, ranks)
			errs := make([]error, ranks)
			start := time.Now()
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[r], errs[r] = engine.RunSPMDRank(eps[r], cfg)
				}()
			}
			wg.Wait()
			wall := time.Since(start)
			for _, err := range errs {
				if err != nil {
					return nil, 0, err
				}
			}
			return results, wall, nil
		}

		plain, plainWall, err := runOnce(nil)
		if err != nil {
			return nil, fmt.Errorf("exp: trace overhead %s untraced: %w", app.name, err)
		}
		cw := &countingWriter{}
		tl := trace.NewLog(cw)
		traced, tracedWall, err := runOnce(obs.New(obs.Config{Trace: tl}))
		if err != nil {
			return nil, fmt.Errorf("exp: trace overhead %s traced: %w", app.name, err)
		}
		if err := tl.Flush(); err != nil {
			return nil, err
		}

		row := traceOverheadRow{
			app:        app.name,
			untracedMS: float64(plainWall.Microseconds()) / 1e3,
			tracedMS:   float64(tracedWall.Microseconds()) / 1e3,
			logBytes:   cw.n,
			bitExact:   true,
		}
		fields := [2]map[geom.Point]float64{{}, {}}
		for i, results := range [][]*engine.SPMDResult{plain, traced} {
			for _, r := range results {
				for _, p := range r.Patches {
					p.EachInterior(func(pt geom.Point) { fields[i][pt] = p.At(0, pt) })
				}
				if i == 0 {
					row.wireBytes += r.BytesSent
				} else {
					row.tracedWireBytes += r.BytesSent
				}
			}
		}
		if len(fields[0]) != len(fields[1]) {
			row.bitExact = false
		}
		for pt, w := range fields[0] {
			if fields[1][pt] != w {
				row.bitExact = false
				break
			}
		}
		row.records = int(cw.lines)
		if row.records == 0 {
			return nil, fmt.Errorf("exp: trace overhead %s: traced run produced no trace records", app.name)
		}
		if row.tracedWireBytes <= row.wireBytes {
			return nil, fmt.Errorf("exp: trace overhead %s: traced run sent %d bytes <= untraced %d (contexts missing)",
				app.name, row.tracedWireBytes, row.wireBytes)
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// Render writes the tracing-overhead table.
func (r *TraceOverheadResult) Render(w io.Writer) error {
	tab := runlog.NewTable(
		fmt.Sprintf("Tracing overhead: %d ranks, %d iterations (wall-clock on a shared machine is indicative only)", r.ranks, r.iters),
		"App", "Untraced ms", "Traced ms", "Wire MB", "Traced wire MB", "Wire +%", "Log MB", "Records", "Bit-exact")
	for _, row := range r.rows {
		tab.Add(row.app,
			fmt.Sprintf("%.1f", row.untracedMS),
			fmt.Sprintf("%.1f", row.tracedMS),
			fmt.Sprintf("%.3f", float64(row.wireBytes)/1e6),
			fmt.Sprintf("%.3f", float64(row.tracedWireBytes)/1e6),
			fmt.Sprintf("%.2f%%", row.wirePct()),
			fmt.Sprintf("%.3f", float64(row.logBytes)/1e6),
			fmt.Sprint(row.records),
			fmt.Sprint(row.bitExact))
	}
	return tab.Render(w)
}
