package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/runlog"
	"samrpart/internal/transport"
)

// loggedRuntime builds a runtime whose recorders write to an in-memory run
// log; read returns the log's records once the run is over.
func loggedRuntime(t *testing.T, seed int64) (rt *obs.Runtime, read func() []trace.Record) {
	t.Helper()
	var buf bytes.Buffer
	log := trace.NewLog(&buf)
	return obs.New(obs.Config{Seed: seed, Trace: log}), func() []trace.Record {
		t.Helper()
		if err := log.Flush(); err != nil {
			t.Fatalf("run log flush: %v", err)
		}
		recs, skipped, err := trace.ReadRecords(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("run log read: err=%v skipped=%d", err, skipped)
		}
		return recs
	}
}

// tappedEndpoint is what the membership-mode step loop needs of a rank's
// endpoint; wireTap forwards all of it.
type tappedEndpoint interface {
	transport.TimedEndpoint
	transport.Poller
}

// sentMsg is one message a rank handed to its transport.
type sentMsg struct {
	to      int
	tag     string
	payload []byte
}

// wireTap records every payload its rank sends, in order. Only the rank's
// own goroutine sends, so the slice needs no lock.
type wireTap struct {
	tappedEndpoint
	sent []sentMsg
}

func (w *wireTap) Send(to int, tag string, payload []byte) error {
	w.sent = append(w.sent, sentMsg{to, tag, append([]byte(nil), payload...)})
	return w.tappedEndpoint.Send(to, tag, payload)
}

// tapGroup wraps a fresh n-rank channel group in wire taps.
func tapGroup(t *testing.T, n int) ([]transport.Endpoint, []*wireTap) {
	t.Helper()
	eps, err := transport.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	taps := make([]*wireTap, n)
	for i, ep := range wrapFaulty(eps) {
		taps[i] = &wireTap{tappedEndpoint: ep.(tappedEndpoint)}
		eps[i] = taps[i]
	}
	return eps, taps
}

// TestSPMDBitIdenticalWithObs proves the zero-value-off guarantee's flip
// side: turning observability ON changes nothing either. The same 3-rank
// membership-mode run with no runtime, with a metrics-only runtime and with
// a runtime that also keeps a run log must agree bit for bit on the solution
// and on every counter — and the metrics-only run must put exactly the
// uninstrumented run's bytes on the wire, frame for frame: the trace context
// follows the log, not the metrics.
func TestSPMDBitIdenticalWithObs(t *testing.T) {
	const iters = 12
	run := func(rt *obs.Runtime) ([]*SPMDResult, []*wireTap) {
		eps, taps := tapGroup(t, 3)
		cfg := ftConfig(t, iters, t.TempDir())
		cfg.CapsAt = capsSwitcher(3)
		cfg.Obs = rt
		return runSPMD(t, eps, cfg), taps
	}
	off, offWire := run(nil)
	metricsRT := obs.New(obs.Config{Seed: 99})
	on, onWire := run(metricsRT)
	loggedRT, readLog := loggedRuntime(t, 99)
	logged, _ := run(loggedRT)

	for r := range off {
		for _, v := range []struct {
			label string
			b     *SPMDResult
			wire  bool // frames carry no trace context: byte counters match too
		}{{"metrics-only", on[r], true}, {"logged", logged[r], false}} {
			a, b := off[r], v.b
			if a.L1Sum != b.L1Sum {
				t.Errorf("rank %d %s: L1 %.17g (off) != %.17g (on)", r, v.label, a.L1Sum, b.L1Sum)
			}
			if a.MsgsSent != b.MsgsSent || a.msgsRecvd != b.msgsRecvd || (v.wire && a.BytesSent != b.BytesSent) {
				t.Errorf("rank %d %s: transport counters differ: off=%+v on=%+v", r, v.label, a, b)
			}
			if a.MigratedBytes != b.MigratedBytes || a.RetainedBytes != b.RetainedBytes {
				t.Errorf("rank %d %s: migration counters differ", r, v.label)
			}
			if a.InteriorSteps != b.InteriorSteps || a.BoundarySteps != b.BoundarySteps {
				t.Errorf("rank %d %s: step counters differ", r, v.label)
			}
		}
		if logged[r].BytesSent <= off[r].BytesSent {
			t.Errorf("rank %d: logged run sent %d bytes <= unlogged %d (trace contexts missing)",
				r, logged[r].BytesSent, off[r].BytesSent)
		}
	}

	// Frame-for-frame wire equality of the metrics-only run. The one field
	// allowed to differ is the heartbeat's gossiped per-cell step time
	// (bytes 8..16 of an hb payload): it is a wall-clock measurement.
	for r := range offWire {
		a, b := offWire[r].sent, onWire[r].sent
		if len(a) != len(b) {
			t.Fatalf("rank %d sent %d messages uninstrumented, %d metrics-only", r, len(a), len(b))
		}
		for i := range a {
			pa, pb := a[i].payload, b[i].payload
			if strings.Contains(a[i].tag, "hb") && len(pa) >= 16 && len(pb) >= 16 {
				pa, pb = append([]byte(nil), pa...), append([]byte(nil), pb...)
				clear(pa[8:16])
				clear(pb[8:16])
			}
			if a[i].to != b[i].to || a[i].tag != b[i].tag || !bytes.Equal(pa, pb) {
				t.Fatalf("rank %d message %d differs: uninstrumented (to %d, %q, %d B) vs metrics-only (to %d, %q, %d B)",
					r, i, a[i].to, a[i].tag, len(pa), b[i].to, b[i].tag, len(pb))
			}
		}
	}

	// The instrumented run must have mirrored its counters into the registry.
	var exp strings.Builder
	if err := metricsRT.Registry().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	wantSent := int64(0)
	for _, r := range on {
		wantSent += r.BytesSent
	}
	gotSent := int64(0)
	for rank := 0; rank < 3; rank++ {
		gotSent += metricsRT.Registry().Counter("samr_spmd_bytes_sent_total", "",
			obs.Label{Key: "rank", Value: string(rune('0' + rank))}).Value()
	}
	if gotSent != wantSent {
		t.Errorf("registry bytes sent %d, results say %d", gotSent, wantSent)
	}
	for _, want := range []string{
		`samr_spmd_msgs_sent_total{rank="0"}`,
		`samr_spmd_peer_bytes_total{peer=`,
		`samr_phase_seconds_bucket{phase="compute",le=`,
		`samr_phase_seconds_bucket{phase="mig-wait",le=`,
	} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// And the logged run's records name the phases on every rank.
	phases := map[string]bool{}
	ranks := map[int]bool{}
	for _, rec := range readLog() {
		if rec.K == "s" {
			phases[rec.Ph] = true
			ranks[rec.R] = true
		}
	}
	for _, p := range []trace.Phase{trace.PhaseCompute, trace.PhaseHaloWait, trace.PhasePartition,
		trace.PhaseMigrate, trace.PhaseCheckpoint} {
		if !phases[p.String()] {
			t.Errorf("run log has no %q spans", p)
		}
	}
	for rank := 0; rank < 3; rank++ {
		if !ranks[rank] {
			t.Errorf("run log has no spans from rank %d", rank)
		}
	}
}

// spineRuns produces the two logs the spine tests read: a 3-rank channel run
// in membership mode (heartbeats, checkpoints) with a mid-run repartition,
// and one Engine.Run with re-sensing and affinity remap — between them every
// span site in the repo fires.
func spineRuns(t *testing.T) (spmdRT *obs.Runtime, spmd []trace.Record, engRT *obs.Runtime, eng []trace.Record) {
	t.Helper()
	spmdRT, readSPMD := loggedRuntime(t, 7)
	eps, err := transport.NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig(t, 12, t.TempDir())
	cfg.CapsAt = capsSwitcher(3)
	cfg.Obs = spmdRT
	for _, res := range runSPMD(t, wrapFaulty(eps), cfg) {
		if res.Repartitions == 0 || res.Checkpoints == 0 {
			t.Fatalf("rank %d: %d repartitions, %d checkpoints; the run must exercise both",
				res.Rank, res.Repartitions, res.Checkpoints)
		}
	}

	engRT, readEng := loggedRuntime(t, 8)
	ecfg := baseConfig()
	ecfg.SenseEvery = 2
	ecfg.AffinityRemap = true
	ecfg.CheckpointEvery = 5
	ecfg.CheckpointPath = t.TempDir() + "/engine.ckpt"
	ecfg.Obs = engRT
	e, err := New(ecfg, newCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return spmdRT, readSPMD(), engRT, readEng()
}

// TestSpineReconciles is the one-End-two-sinks oracle on real runs: for
// every phase, samr_phase_seconds' count equals the number of that phase's
// span records and its sum equals their summed t1-t0 — so a /metrics scrape
// and the run log cannot describe a phase with different extents.
func TestSpineReconciles(t *testing.T) {
	spmdRT, spmdRecs, engRT, engRecs := spineRuns(t)
	for _, run := range []struct {
		name string
		rt   *obs.Runtime
		recs []trace.Record
	}{{"spmd", spmdRT, spmdRecs}, {"engine", engRT, engRecs}} {
		count := map[string]int64{}
		sum := map[string]float64{}
		for _, rec := range run.recs {
			if rec.K == "s" {
				count[rec.Ph]++
				sum[rec.Ph] += float64(rec.T1-rec.T0) / 1e9
			}
		}
		for p := trace.Phase(0); p < trace.NumPhases; p++ {
			h := run.rt.PhaseHistogram(p)
			if h.Count() != count[p.String()] {
				t.Errorf("%s %s: histogram count %d, %d span records", run.name, p, h.Count(), count[p.String()])
			}
			// Ranks interleave their observations, so the two sums add the
			// same terms in different orders: equal to round-off.
			if want := sum[p.String()]; math.Abs(h.Sum()-want) > 1e-9*math.Max(want, 1e-6) {
				t.Errorf("%s %s: histogram sum %.12g s, span records sum %.12g s", run.name, p, h.Sum(), want)
			}
			delete(count, p.String())
		}
		for ph, n := range count {
			t.Errorf("%s: %d span records in phase %q, which is not in the vocabulary", run.name, n, ph)
		}
	}
}

// TestSpineCloses checks the vocabulary is closed over both execution paths:
// the two runs emit only vocabulary phases, between them every phase is
// used, and the stitcher attributes each iteration's wall-clock to recorded
// spans (plus idle gaps) — Engine.Run's rank -1 included. The only untracked
// time it may report is a rank's life before its first span (its goroutine
// had not started recording yet); none may appear once span sites are live.
func TestSpineCloses(t *testing.T) {
	_, spmdRecs, _, engRecs := spineRuns(t)
	vocab := map[string]bool{}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		vocab[p.String()] = true
	}
	used := map[string]bool{}
	for _, run := range []struct {
		name  string
		recs  []trace.Record
		ranks []int
	}{{"spmd", spmdRecs, []int{0, 1, 2}}, {"engine", engRecs, []int{-1}}} {
		for _, rec := range run.recs {
			if rec.K != "s" {
				continue
			}
			if !vocab[rec.Ph] {
				t.Fatalf("%s: span record in phase %q, which is not in the vocabulary", run.name, rec.Ph)
			}
			used[rec.Ph] = true
		}
		tl := trace.Stitch(run.recs, 0)
		if !reflect.DeepEqual(tl.Ranks, run.ranks) {
			t.Errorf("%s: stitched ranks %v, want %v", run.name, tl.Ranks, run.ranks)
		}
		requireCoverage(t, tl)
		firstSpan := map[int]int64{} // aligned start of each rank's first span
		for _, rec := range run.recs {
			if at := rec.T0 - tl.Offsets[rec.R]; rec.K == "s" {
				if first, ok := firstSpan[rec.R]; !ok || at < first {
					firstSpan[rec.R] = at
				}
			}
		}
		for _, w := range tl.Iters {
			for _, seg := range w.Chain {
				if seg.Phase == trace.PhaseUntracked && seg.End > firstSpan[seg.Rank] {
					t.Errorf("%s iter (%d,%d): %d ns untracked on rank %d after its span sites went live",
						run.name, w.Epoch, w.Iter, seg.Dur(), seg.Rank)
				}
			}
		}
	}
	for ph := range vocab {
		if !used[ph] {
			t.Errorf("phase %q has no span site on either execution path", ph)
		}
	}
}

// TestEngineObsMetrics runs the virtual-cluster engine with observability
// live and checks that the control-loop metrics, the run log and the /state
// snapshot mirror the run's own result.
func TestEngineObsMetrics(t *testing.T) {
	rt, readLog := loggedRuntime(t, 5)
	clus := newCluster(t, 4)
	cfg := baseConfig()
	cfg.SenseEvery = 2
	cfg.Obs = rt
	eng, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetState("engine", eng.Snapshot)
	tr, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	reg := rt.Registry()
	if got := reg.Counter("samr_engine_senses_total", "").Value(); got != int64(tr.Senses) {
		t.Errorf("senses metric %d, trace %d", got, tr.Senses)
	}
	if got := reg.Counter("samr_engine_repartitions_total", "").Value(); got != int64(tr.Repartitions) {
		t.Errorf("repartitions metric %d, trace %d", got, tr.Repartitions)
	}
	if got := rt.PhaseHistogram(trace.PhaseSense).Count(); got != int64(tr.Senses) {
		t.Errorf("sense spans %d, trace senses %d", got, tr.Senses)
	}
	if rt.PhaseHistogram(trace.PhaseCompute).Count() != int64(cfg.Iterations) {
		t.Errorf("compute spans %d, want %d",
			rt.PhaseHistogram(trace.PhaseCompute).Count(), cfg.Iterations)
	}

	// The same spans are in the run log as rank -1, epoch 0, and the migrate
	// records carry the volume the moved-bytes counter totals.
	senses, computeIters, moved := 0, map[int]bool{}, int64(0)
	for _, rec := range readLog() {
		if rec.K != "s" || rec.R != -1 || rec.E != 0 {
			t.Fatalf("engine run log holds %+v, want only rank -1 epoch 0 spans", rec)
		}
		switch rec.Ph {
		case trace.PhaseSense.String():
			senses++
		case trace.PhaseCompute.String():
			computeIters[rec.I] = true
		case trace.PhaseMigrate.String():
			moved += rec.B
		}
	}
	if senses != tr.Senses || len(computeIters) != cfg.Iterations {
		t.Errorf("run log: %d sense spans over %d compute iterations, want %d over %d",
			senses, len(computeIters), tr.Senses, cfg.Iterations)
	}
	if got := reg.Counter("samr_engine_moved_bytes_total", "").Value(); got != moved || moved == 0 {
		t.Errorf("migrate records carry %d bytes, moved-bytes counter %d", moved, got)
	}

	st, ok := eng.Snapshot().(engineState)
	if !ok {
		t.Fatalf("snapshot type %T", eng.Snapshot())
	}
	if st.Repartitions != tr.Repartitions || st.Senses != tr.Senses {
		t.Errorf("snapshot %+v does not mirror trace (%d repartitions, %d senses)",
			st, tr.Repartitions, tr.Senses)
	}
	if len(st.Capacities) != clus.NumNodes() || len(st.Health) != clus.NumNodes() {
		t.Errorf("snapshot capacities/health sized %d/%d, want %d",
			len(st.Capacities), len(st.Health), clus.NumNodes())
	}
	if st.Boxes == 0 || math.IsNaN(st.ImbalancePct) {
		t.Errorf("snapshot assignment fields empty: %+v", st)
	}
}

// TestEngineBitIdenticalWithObs runs the same engine config with and
// without observability (metrics and run log both on) and compares the
// traces exactly: the virtual clock, the cost model and every counter must
// be untouched by instrumentation.
func TestEngineBitIdenticalWithObs(t *testing.T) {
	run := func(rt *obs.Runtime) *runlog.RunTrace {
		clus := newCluster(t, 4)
		cfg := baseConfig()
		cfg.SenseEvery = 2
		cfg.Hygiene = true
		cfg.RepartitionThreshold = 5
		cfg.AffinityRemap = true
		cfg.Obs = rt
		e, err := New(cfg, clus)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	off := run(nil)
	rt, readLog := loggedRuntime(t, 1)
	on := run(rt)
	if !reflect.DeepEqual(off, on) {
		t.Errorf("traces differ with observability on:\noff: %+v\non:  %+v", off, on)
	}
	if len(readLog()) == 0 {
		t.Error("instrumented run wrote no run-log records")
	}
}

// desyncHalo rewrites the nth halo frame its rank sends so the first region
// names the wrong destination box — what a sender/receiver plan desync looks
// like on the wire. The receiver's plan check must refuse the frame.
type desyncHalo struct {
	tappedEndpoint
	nth, seen int
}

func (d *desyncHalo) Send(to int, tag string, payload []byte) error {
	if strings.HasSuffix(tag, "gx") {
		if d.seen++; d.seen-1 == d.nth {
			regions, vals, tc, traced, err := transport.DecodeFrameCtx(payload, nil, nil)
			if err != nil {
				return err
			}
			regions[0].Dst++
			ctx := &tc
			if !traced {
				ctx = nil
			}
			payload = transport.AppendFrameCtx(nil, regions, vals, ctx)
		}
	}
	return d.tappedEndpoint.Send(to, tag, payload)
}

// TestFailedExchangeClosesItsSpans forces a plan desync at iteration 3 of a
// logged 2-rank run: rank 0 refuses rank 1's frame while unpacking, and rank
// 1, one iteration on, times out waiting for the rank that gave up. Both
// failing spans — the iteration someone will want to look at — must be in the
// run log: the last unpack record of rank 0 and the last halo-wait record of
// rank 1 belong to the iterations that failed.
func TestFailedExchangeClosesItsSpans(t *testing.T) {
	const failAt = 3
	rt, readLog := loggedRuntime(t, 3)
	eps, err := transport.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	eps = wrapFaulty(eps)
	eps[1] = &desyncHalo{tappedEndpoint: eps[1].(tappedEndpoint), nth: failAt}
	cfg := spmdConfig(8)
	cfg.CapsAt = func(int) []float64 { return []float64{0.5, 0.5} }
	cfg.RepartEvery = 0
	cfg.dt = 1e-3 // no dt reduce: the only blocking receive of a step is the halo's
	cfg.RecvDeadline = 200 * time.Millisecond
	cfg.Obs = rt
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = RunSPMDRank(eps[r], cfg)
		}(r)
	}
	wg.Wait()
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "does not match plan") {
		t.Fatalf("rank 0: %v, want a plan-mismatch error", errs[0])
	}
	if !errors.Is(errs[1], transport.ErrRankDown) {
		t.Fatalf("rank 1: %v, want ErrRankDown", errs[1])
	}
	last := map[[2]string]int{} // (rank, phase) -> iteration of the last span record
	for _, rec := range readLog() {
		if rec.K == "s" {
			last[[2]string{fmt.Sprint(rec.R), rec.Ph}] = rec.I
		}
	}
	for _, want := range []struct {
		rank string
		ph   trace.Phase
		iter int
	}{{"0", trace.PhaseUnpack, failAt}, {"1", trace.PhaseHaloWait, failAt + 1}} {
		if got, ok := last[[2]string{want.rank, want.ph.String()}]; !ok || got != want.iter {
			t.Errorf("rank %s: last %s span record is at iteration %d (present %v), want the failing iteration %d",
				want.rank, want.ph, got, ok, want.iter)
		}
	}
}
