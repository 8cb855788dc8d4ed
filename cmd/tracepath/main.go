// Command tracepath renders a run log (JSONL, written by amrun or
// experiments with -trace, in engine or -spmd mode). From the span records
// it prints the per-phase and per-rank cost breakdown — how much wall time
// each phase of the vocabulary consumed, how it spread across ranks (rank -1
// is the engine's control loop), and the bytes each moved — and the
// per-iteration critical paths: for every (epoch, iteration) the chain of
// (rank, phase, blocking peer) hops that bounded wall-clock, the top causes
// with their share of the iteration, clock-offset/RTT estimates per rank,
// and the cross-run straggler attribution ranking — cross-checked against
// the straggler detector's own shed verdicts recorded in the log.
//
//	go run ./cmd/amrun -spmd 4 -trace run.trace ... && go run ./cmd/tracepath run.trace
//	go run ./cmd/tracepath -top 3 -chrome run.json run.trace   # Perfetto export
//	go run ./cmd/tracepath -csv phase run.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"samrpart/internal/obs/trace"
	"samrpart/internal/runlog"
)

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// causeTable builds the per-iteration critical-path table: one row per
// (epoch, iter) with its wall-clock, coverage, and top causes.
func causeTable(tl *trace.Timeline, top int) *runlog.Table {
	t := runlog.NewTable("per-iteration critical path",
		"epoch", "iter", "wall ms", "covered", "top causes (rank:phase[<-peer] share)")
	for _, w := range tl.Iters {
		covered := 1.0
		if w.Wall > 0 {
			covered = float64(w.Covered) / float64(w.Wall)
		}
		causes := ""
		for i, c := range w.Causes {
			if i >= top {
				break
			}
			if i > 0 {
				causes += "  "
			}
			causes += fmt.Sprintf("%d:%s", c.Rank, c.Phase)
			if c.Peer >= 0 {
				causes += fmt.Sprintf("<-%d", c.Peer)
			}
			causes += " " + pct(c.Frac)
		}
		t.Add(fmt.Sprint(w.Epoch), fmt.Sprint(w.Iter), ms(w.Wall), pct(covered), causes)
	}
	return t
}

// offsetTable lists the stitched per-rank clock model.
func offsetTable(tl *trace.Timeline) *runlog.Table {
	t := runlog.NewTable("clock alignment (vs reference rank)", "rank", "offset ms", "hb rtt ms")
	for _, r := range tl.Ranks {
		rtt := "-"
		if v, ok := tl.RTTs[r]; ok {
			rtt = ms(v)
		}
		t.Add(fmt.Sprint(r), ms(tl.Offsets[r]), rtt)
	}
	return t
}

// shareTable is the straggler attribution ranking: critical-path time
// charged to each rank (wait hops blame the blocking peer), annotated with
// the straggler detector's own verdicts about that rank from the same log.
func shareTable(tl *trace.Timeline) *runlog.Table {
	verdicts := map[int]string{}
	for _, v := range tl.Verdicts {
		s := fmt.Sprintf("%s@(%d,%d)", v.State, v.Epoch, v.Iter)
		if prev := verdicts[v.Target]; prev != "" {
			s = prev + " " + s
		}
		verdicts[v.Target] = s
	}
	t := runlog.NewTable("straggler attribution (critical-path time charged per rank)",
		"rank", "ms", "share", "detector verdicts")
	for _, s := range tl.Shares {
		vd := verdicts[s.Rank]
		if vd == "" {
			vd = "-"
		}
		t.Add(fmt.Sprint(s.Rank), ms(s.NS), pct(s.Frac), vd)
	}
	return t
}

// phaseStats is the span population of one phase on one rank (or, in
// breakdown.phases, on all of them).
type phaseStats struct {
	spans      int
	total, max int64 // ns
	bytes      int64
}

// breakdown is the cost of a run by phase and by (rank, phase), from the
// same records the stitcher reads. A phase's bytes are the volume on its
// span records (Engine.Run's migrate) plus, for the two wait phases, the
// frames whose arrival the rank logged: halo frames under halo-wait,
// migration frames under mig-wait.
type breakdown struct {
	phases map[string]phaseStats
	ranks  map[int]map[string]phaseStats
	order  []string // vocabulary order, then unknown phase names sorted
}

// add charges spans closed spans of total length dur, and bytes moved, to
// (rank, ph) and to ph's all-rank row.
func (b *breakdown) add(rank int, ph string, spans int, dur, bytes int64) {
	if b.ranks[rank] == nil {
		b.ranks[rank] = map[string]phaseStats{}
	}
	for _, m := range []map[string]phaseStats{b.phases, b.ranks[rank]} {
		s := m[ph]
		s.spans += spans
		s.total += dur
		s.max = max(s.max, dur)
		s.bytes += bytes
		m[ph] = s
	}
}

func buildBreakdown(recs []trace.Record) *breakdown {
	b := &breakdown{phases: map[string]phaseStats{}, ranks: map[int]map[string]phaseStats{}}
	for _, r := range recs {
		switch r.K {
		case "s":
			b.add(r.R, r.Ph, 1, r.T1-r.T0, r.B)
		case "v":
			ph := trace.PhaseHaloWait
			if r.Kd == trace.KindMig {
				ph = trace.PhaseMigWait
			}
			b.add(r.R, ph.String(), 0, 0, r.B)
		}
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if _, ok := b.phases[p.String()]; ok {
			b.order = append(b.order, p.String())
		}
	}
	known := len(b.order)
	for ph := range b.phases {
		if !slices.Contains(b.order[:known], ph) {
			b.order = append(b.order, ph)
		}
	}
	sort.Strings(b.order[known:])
	return b
}

func mb(n int64) string { return fmt.Sprintf("%.3f", float64(n)/1e6) }

// phaseTable is the per-phase cost table: one row per phase in the log.
func (b *breakdown) phaseTable() *runlog.Table {
	t := runlog.NewTable("per-phase breakdown", "phase", "spans", "total ms", "mean ms", "max ms", "MB")
	for _, ph := range b.order {
		s := b.phases[ph]
		mean := int64(0)
		if s.spans > 0 {
			mean = s.total / int64(s.spans)
		}
		t.Add(ph, fmt.Sprint(s.spans), ms(s.total), ms(mean), ms(s.max), mb(s.bytes))
	}
	return t
}

// rankTable is the per-rank cost table: one row per rank (ascending, as the
// stitcher lists them), one duration column per phase in the log. Rank -1
// is the engine control loop.
func (b *breakdown) rankTable(ranks []int) *runlog.Table {
	header := append(append([]string{"rank", "spans"}, b.order...), "MB")
	t := runlog.NewTable("per-rank breakdown (ms)", header...)
	for _, r := range ranks {
		spans, bytes := 0, int64(0)
		cells := []string{fmt.Sprint(r), ""}
		for _, ph := range b.order {
			s, ok := b.ranks[r][ph]
			if !ok {
				cells = append(cells, "-")
				continue
			}
			spans += s.spans
			bytes += s.bytes
			cells = append(cells, ms(s.total))
		}
		cells[1] = fmt.Sprint(spans)
		t.Add(append(cells, mb(bytes))...)
	}
	return t
}

func run(in io.Reader, out io.Writer, top int, chromePath, csv string) error {
	recs, skipped, err := trace.ReadRecords(in)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no trace records in input (%d malformed lines)", skipped)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "tracepath: skipped %d malformed line(s) (truncated log?)\n", skipped)
	}
	tl := trace.Stitch(recs, skipped)
	bd := buildBreakdown(recs)

	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, recs, tl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracepath: wrote Chrome trace JSON to %s (open in Perfetto)\n", chromePath)
	}

	if csv != "" {
		switch csv {
		case "phase":
			return bd.phaseTable().CSV(out)
		case "rank":
			return bd.rankTable(tl.Ranks).CSV(out)
		case "causes":
			return causeTable(tl, top).CSV(out)
		case "shares":
			return shareTable(tl).CSV(out)
		case "offsets":
			return offsetTable(tl).CSV(out)
		default:
			return fmt.Errorf("unknown -csv table %q (want phase, rank, causes, shares or offsets)", csv)
		}
	}

	fmt.Fprintf(out, "%d records, %d ranks, %d iteration windows\n",
		len(recs), len(tl.Ranks), len(tl.Iters))
	for _, t := range []*runlog.Table{bd.phaseTable(), bd.rankTable(tl.Ranks), causeTable(tl, top), shareTable(tl)} {
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return offsetTable(tl).Render(out)
}

func main() {
	top := flag.Int("top", 3, "causes shown per iteration row")
	chrome := flag.String("chrome", "", "also write Chrome trace-event JSON (Perfetto-viewable) to this path")
	csv := flag.String("csv", "", "emit one table as CSV instead of text: phase | rank | causes | shares | offsets")
	flag.Parse()
	in := io.Reader(os.Stdin)
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "tracepath: at most one trace-log path (or stdin)")
		os.Exit(2)
	}
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracepath:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, *top, *chrome, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "tracepath:", err)
		os.Exit(1)
	}
}
