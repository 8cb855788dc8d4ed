package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/checkpoint"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs/trace"
	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// defaultRecvDeadline bounds blocking receives when SPMDConfig.RecvDeadline
// is unset. It is deliberately generous: it exists to turn a hung cluster
// into a diagnosable ErrRankDown, not to race healthy ranks.
const defaultRecvDeadline = 30 * time.Second

// rejoinDeadline bounds how long a restarted rank waits for the survivors'
// welcome before giving up on re-admission.
const rejoinDeadline = 10 * time.Second

// maxRecoveries bounds how many rank failures a run absorbs before giving
// up. Re-admissions do not count.
const maxRecoveries = 3

// rejoinPollEvery is the announce/welcome polling interval of the rejoin
// handshake. It only bounds handshake latency, never correctness.
const rejoinPollEvery = 2 * time.Millisecond

// Fixed rejoin handshake tags. They are deliberately epoch-free: a restarted
// rank cannot know the survivors' current epoch, and survivors only consume
// announces from ranks they already agreed are dead, so stale traffic cannot
// be confused with live protocol messages.
const (
	tagRejoinAnnounce = "rejoin-announce"
	tagRejoinWelcome  = "rejoin-welcome"
)

// FTConfig turns the step loop's membership mode on and tunes it.
//
// Failure model: a rank crashes at an iteration boundary — it goes silent
// before sending its heartbeat for iteration k (transport.Faulty's Kill and
// the engine's fault schedule both inject exactly this). Every survivor's
// heartbeat receive from the dead rank then times out in the same round, so
// detection is deterministic and collective. Mid-iteration communication
// failures (a peer dying with ghost messages half-exchanged) are NOT
// recovered: they surface as an ErrRankDown error from the run, failing fast
// rather than risking a torn state.
type FTConfig struct {
	// Enabled turns heartbeats, checkpoints, recovery and re-admission on.
	Enabled bool
	// HeartbeatEvery runs failure detection every N iterations (default 1).
	// Heartbeats are collective: they also act as the agreement step that
	// keeps every survivor's dead-rank set identical.
	HeartbeatEvery int
	// CheckpointEvery writes a distributed checkpoint (one shard per rank in
	// CheckpointDir) every N iterations. 0 disables checkpointing — recovery
	// then restarts from initial conditions.
	CheckpointEvery int
	// CheckpointDir is the shared directory holding per-rank shards. Every
	// rank must see the same filesystem (in-process groups trivially do; a
	// real deployment uses a shared mount, as GrACE-era clusters did).
	CheckpointDir string
	// CheckpointKeep, when > 0, retains only that many checkpoint epochs per
	// rank at or below the agreed stable point, pruning older shards after
	// each write. Epochs above the stable point are never pruned — they are
	// what the stable point advances into. 0 keeps everything.
	CheckpointKeep int
	// SyncCheckpoint blocks the step loop until the shard is durable instead
	// of writing asynchronously. Deterministic tests use this so the set of
	// restorable iterations is exact.
	SyncCheckpoint bool
	// ResumeFrom, when > 0, loads the iteration's shards from CheckpointDir
	// at startup instead of calling Kernel.Init — a cold restart of a
	// previously checkpointed run. If the shards turn out corrupt, startup
	// falls back to the newest intact earlier epoch (counted in
	// SPMDResult.CkptFallbacks), re-initializing when none survives.
	ResumeFrom int
}

func (c FTConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.HeartbeatEvery < 0 || c.CheckpointEvery < 0 {
		return fmt.Errorf("engine: negative FT interval")
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("engine: CheckpointEvery set without CheckpointDir")
	}
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("engine: negative CheckpointKeep")
	}
	if c.ResumeFrom < 0 {
		return fmt.Errorf("engine: negative ResumeFrom")
	}
	if c.ResumeFrom > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("engine: ResumeFrom set without CheckpointDir")
	}
	return nil
}

// killEndpoint crashes the rank's endpoint through transport.Killer.
func killEndpoint(ep transport.Endpoint) error {
	k, ok := ep.(transport.Killer)
	if !ok {
		return fmt.Errorf("engine: a crash fault requires a transport.Killer endpoint (wrap it in transport.Faulty)")
	}
	k.Kill()
	return nil
}

// welcomeMsg is the survivors' re-admission grant: everything a restarted
// rank needs to re-enter the collective at an iteration boundary. Boxes and
// Owners describe the STANDING assignment (pre-admission); immediately after
// adopting it, both sides run the identical admission repartition, with the
// joiner as a pure receiver.
type welcomeMsg struct {
	// Iter is the iteration the admission happened at; the joiner resumes
	// the step loop there, skipping the control phase it was admitted in.
	Iter int
	// Epoch is the post-admission tag epoch every member now uses.
	Epoch int
	// Stable is the collective restore point. The joiner adopts it as its
	// own durable mark — its pre-crash shards at Stable are on disk (the
	// stable point is the minimum durable iteration ALL ranks advertised),
	// and advertising anything older would drag the collective backwards.
	Stable int
	// Alive is the post-admission membership, joiners included.
	Alive []bool
	// Boxes/Owners are the standing assignment the admission repartition
	// starts from.
	Boxes  geom.BoxList
	Owners []int
}

// spmdRun is the mutable state of one SPMD rank: the one runtime behind
// RunSPMDRank and RejoinSPMDRank. Without FT.Enabled the membership fields
// simply never change (all alive, epoch 0).
type spmdRun struct {
	cfg   SPMDConfig
	tiles geom.BoxList // cfg.tiles(), every (re)partition's read-only input
	ep    transport.TimedEndpoint
	res   *SPMDResult
	data  time.Duration // data-plane receive deadline (dt reduce, ghosts)
	ctrl  time.Duration // control-plane deadline (heartbeats, admission)

	alive    []bool
	epoch    int // bumped per recovery/admission; namespaces all tags
	lastPart int // iteration of the last (re)partition
	// prefix is the epoch's tag namespace ("e<epoch>-") and dtTag the dt
	// reduce's tag under it, both rebuilt by setEpoch. One dt tag per epoch
	// suffices: the inbox is FIFO per (from, tag), the same argument the
	// fixed halo tag relies on.
	prefix, dtTag string
	// dtBuf/dtVals are the dt reduce's pooled encode/decode buffers.
	dtBuf  []byte
	dtVals []float64

	// pendingJoin is the sticky set of dead ranks whose rejoin announce has
	// been seen (locally or via a peer's heartbeat). It survives dirty
	// rounds and is drained only when a clean round admits its members.
	pendingJoin map[int]bool

	// faultFired marks schedule events already executed, so a rollback
	// replaying the crash iteration does not re-fire the crash.
	faultFired []bool

	// strag is this rank's replica of the shared straggler detector. Every
	// rank feeds it the identical heartbeat-gossiped timing vector on clean
	// rounds only, so all replicas transition in lockstep and shedding
	// needs no extra agreement round.
	strag *monitor.StragglerDetector
	// stepPS is the rank's latest per-cell step time (picoseconds),
	// piggybacked on the next heartbeat. 0 = no sample yet.
	stepPS int64
	// canaryCur/canaryNext are the private probe patch of a workless rank
	// (see canaryProbe).
	canaryCur, canaryNext *amr.Patch

	assign *asnView
	plan   *ghostPlan
	// cur and spare are the rank's patch slots, indexed by box index in
	// assign (nil where the rank does not own the box): the patch holding the
	// current solution and its retired double buffer. Plan entries name
	// patches by these indexes, so assign, plan, cur and spare only ever
	// change together (install).
	cur, spare []*amr.Patch
	// sc pools the communication buffers across steps, plan rebuilds and
	// redistributions (see commScratch).
	sc commScratch

	// stable is the restore point every participant agreed on at the last
	// clean heartbeat: the minimum durable checkpoint advertised by ALL
	// ranks alive in that round. Updating it only on clean rounds guarantees
	// a rank that dies later has its shards on disk at `stable`.
	stable int

	ckptMu  sync.Mutex
	ckptWG  sync.WaitGroup
	durable int // latest shard known written (guarded by ckptMu)
	ckptErr error
}

// newSPMDRun validates the config against the endpoint and builds the
// per-rank state (everything alive, epoch 0). Every blocking receive of the
// run is bounded from here on, so a silently-dead peer yields
// transport.ErrRankDown within the deadline instead of hanging the rank.
func newSPMDRun(ep transport.Endpoint, cfg SPMDConfig) (*spmdRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.validate(ep.Size()); err != nil {
		return nil, err
	}
	ted, ok := ep.(transport.TimedEndpoint)
	if !ok {
		return nil, fmt.Errorf("engine: the SPMD runner requires a transport.TimedEndpoint")
	}
	ted.SetDeadline(cfg.recvDeadline())
	r := &spmdRun{
		cfg: cfg, tiles: cfg.tiles(), ep: ted,
		res:         &SPMDResult{Rank: ep.Rank(), RestoredFrom: -1},
		data:        cfg.recvDeadline(),
		ctrl:        cfg.controlDeadline(),
		alive:       make([]bool, ep.Size()),
		pendingJoin: map[int]bool{},
		faultFired:  make([]bool, len(cfg.Faults)),
	}
	r.sc.om = newSPMDObs(cfg.Obs, ep.Rank())
	r.sc.tr = cfg.Obs.Recorder(ep.Rank())
	r.sc.workers = cfg.Workers
	for i := range r.alive {
		r.alive[i] = true
	}
	r.setEpoch(0)
	r.resetStraggler()
	return r, nil
}

// RejoinSPMDRank re-enters a previously crashed rank into a running SPMD
// group: it announces itself to every peer, waits for the survivors'
// welcome (granted at the next clean heartbeat after they agreed the rank
// was dead), adopts the collective state it carries, receives its share of
// the admission repartition, and runs the remaining iterations as a full
// member. The caller is the restarted process; ep must be the same rank
// slot the crashed process held and implement transport.TimedEndpoint and
// transport.Poller (transport.Faulty over the built-in transports does).
func RejoinSPMDRank(ep transport.Endpoint, cfg SPMDConfig) (*SPMDResult, error) {
	if !cfg.FT.Enabled {
		return nil, fmt.Errorf("engine: rejoin requires FT.Enabled")
	}
	r, err := newSPMDRun(ep, cfg)
	if err != nil {
		return nil, err
	}
	w, err := r.rejoin()
	if err != nil {
		return nil, err
	}
	r.res.rejoined = true
	return r.loop(w.Iter, true)
}

// loop runs the step loop from start: per iteration, scheduled faults, then
// — only with FT.Enabled — heartbeat agreement (recovering or admitting as
// it dictates) and checkpointing, then one step. skipCtl skips the
// fault/heartbeat control phase of the FIRST iteration only: a
// just-admitted rank was implicitly part of the round that admitted it, so
// it must go straight to the checkpoint/step half the survivors are about to
// execute.
func (r *spmdRun) loop(start int, skipCtl bool) (*SPMDResult, error) {
	cfg, res := r.cfg, r.res
	hbEvery := cfg.FT.HeartbeatEvery
	if hbEvery < 1 {
		hbEvery = 1
	}
	for iter := start; iter < cfg.Iterations; {
		if !skipCtl {
			if ev := r.faultAt(iter); ev != nil {
				if err := killEndpoint(r.ep); err != nil {
					return nil, err
				}
				// A pause is a gray failure: the rank goes silent at the
				// boundary (peers will declare it dead and recover) and
				// immediately asks back in. A crash with a scheduled rejoin
				// models the process being restarted; without one — always,
				// with membership off — it is fail-stop.
				if ev.Kind == FaultCrash && !r.rejoinScheduled(iter) {
					res.Crashed = true
					r.ckptWG.Wait()
					return res, nil
				}
				w, err := r.rejoin()
				if err != nil {
					return nil, err
				}
				res.rejoined = true
				iter = w.Iter
				skipCtl = true
				continue
			}
			if cfg.FT.Enabled && iter%hbEvery == 0 {
				newDead, joins, err := r.heartbeat(iter)
				if err != nil {
					return nil, err
				}
				if len(newDead) > 0 {
					if res.Recoveries >= maxRecoveries {
						return nil, fmt.Errorf("engine: rank %d: giving up after %d recoveries (lost %v)",
							r.me(), res.Recoveries, newDead)
					}
					actual, err := r.recoverAt(r.stable)
					if err != nil {
						return nil, err
					}
					res.Recoveries++
					res.RestoredFrom = actual
					iter = actual
					continue
				}
				if len(joins) > 0 {
					if err := r.admit(iter, joins); err != nil {
						return nil, err
					}
				}
			}
		}
		skipCtl = false
		if cfg.FT.Enabled && cfg.FT.CheckpointEvery > 0 && iter > 0 && iter%cfg.FT.CheckpointEvery == 0 {
			if err := r.writeCheckpoint(iter); err != nil {
				return nil, err
			}
		}
		if err := r.step(iter); err != nil {
			return nil, err
		}
		iter++
	}
	r.ckptWG.Wait()
	r.ckptMu.Lock()
	ckptErr := r.ckptErr
	r.ckptMu.Unlock()
	if ckptErr != nil {
		return nil, fmt.Errorf("engine: async checkpoint failed: %w", ckptErr)
	}
	res.deadRanks = r.deadList()
	finalizeSPMD(res, r.owned())
	r.sc.om.sync(res)
	return res, nil
}

func (r *spmdRun) me() int { return r.ep.Rank() }

// setEpoch moves the rank to a tag epoch: every tag carries the epoch's
// prefix, so messages from before a rollback or admission can never be
// mistaken for the replay's.
func (r *spmdRun) setEpoch(e int) {
	r.epoch = e
	r.prefix = fmt.Sprintf("e%d-", e)
	r.dtTag = r.prefix + "dt"
}

// faultAt returns the crash/pause schedule event firing for this rank at
// iter, at most once per event: after a rejoin the rollback replays the
// crash iteration, and the fault must not re-fire on the replay.
func (r *spmdRun) faultAt(iter int) *FaultEvent {
	me := r.me()
	for i := range r.cfg.Faults {
		ev := &r.cfg.Faults[i]
		if r.faultFired[i] || ev.Rank != me || ev.Iter != iter {
			continue
		}
		if ev.Kind != FaultCrash && ev.Kind != FaultPause {
			continue
		}
		r.faultFired[i] = true
		return ev
	}
	return nil
}

// rejoinScheduled reports whether the schedule rejoins this rank after a
// crash at the given iteration. The rejoin's own Iter is honored only as an
// ordering constraint at the SPMD level: the restarted process announces
// immediately and the survivors admit it at their next clean heartbeat.
func (r *spmdRun) rejoinScheduled(after int) bool {
	for _, ev := range r.cfg.Faults {
		if ev.Kind == FaultRejoin && ev.Rank == r.me() && ev.Iter > after {
			return true
		}
	}
	return false
}

// slowFactor returns the compute dilation the schedule applies to this rank
// at iter (1 = none).
func (r *spmdRun) slowFactor(iter int) float64 {
	f := 1.0
	for _, ev := range r.cfg.Faults {
		if ev.Kind == FaultSlow && ev.Rank == r.me() && ev.Iter <= iter && iter < ev.Until && ev.Factor > f {
			f = ev.Factor
		}
	}
	return f
}

// resetStraggler (re)creates the detector replica. Admission resets it on
// every member: the joiner has no EWMA history, and replicas must stay
// identical for shedding decisions to agree without coordination.
func (r *spmdRun) resetStraggler() {
	if r.cfg.FT.Enabled && r.cfg.Straggler {
		r.strag = monitor.NewStragglerDetector(r.ep.Size())
	}
}

// eligibleCaps computes the capacity vector and work-eligibility mask for a
// repartition: quarantined ranks stay members but receive zero work, and
// shed ranks keep a demoted capacity share. Every input is replicated state
// (caps, alive, detector), so all ranks derive identical vectors.
func (r *spmdRun) eligibleCaps(iter int) (caps []float64, mask []bool) {
	caps = append([]float64(nil), r.cfg.CapsAt(iter)...)
	mask = r.alive
	if r.strag != nil {
		elig := make([]bool, len(r.alive))
		any := false
		for k := range elig {
			elig[k] = r.alive[k] && r.strag.WorkEligible(k)
			any = any || elig[k]
		}
		if any { // all-quarantined guard: fall back to plain membership
			mask = elig
		}
		sum := 0.0
		for k := range caps {
			if f := r.strag.CapacityFactor(k); f < 1 {
				caps[k] *= f
				if caps[k] < 1e-3 {
					caps[k] = 1e-3
				}
			}
			sum += caps[k]
		}
		if sum > 0 {
			for k := range caps {
				caps[k] /= sum
			}
		}
	}
	return caps, mask
}

// partitionEligible partitions the tiles over the live, non-quarantined
// membership, fully replicated: every rank computes the identical assignment
// from shared state with zero messages (with every rank alive it is exactly
// Partitioner.Partition). Recovery paths (setup, recoverAt) must use this
// form — they run when the group is not known to be synchronized, so they
// may not communicate.
func (r *spmdRun) partitionEligible(iter int) (*partition.Assignment, error) {
	caps, mask := r.eligibleCaps(iter)
	return partition.PartitionAlive(r.cfg.Partitioner, r.tiles, caps, mask, partition.CellWork)
}

// gatherGroups is the decentralized stage 2 of the hierarchical partitioner:
// each eligible rank computes the replicated stage-1 plan over the compacted
// (alive, non-quarantined) capacity vector — a sort plus a quota walk — but
// slices only its own group's SFC segment, O(boxes/groups · log) instead of
// O(boxes · log) per rank. Group leaders ship their segment to the root (the
// lowest alive rank), which assembles and re-expands to global node ids.
// CompactAlive/ExpandAlive and GroupPlan.Assemble are exactly the pieces
// PartitionAlive composes over Hierarchical.Partition, so the root's
// assignment is bit-identical to the replicated decision. It is returned on
// the root and nil elsewhere. Quarantined ranks own no compact slot and send
// nothing. Sends are control-plane: bytes counted, message counters
// untouched.
func (r *spmdRun) gatherGroups(h *partition.Hierarchical, iter, root int) (*partition.Assignment, error) {
	caps, mask := r.eligibleCaps(iter)
	compact, global, err := partition.CompactAlive(caps, mask)
	if err != nil {
		return nil, err
	}
	plan, err := h.PlanGroups(r.tiles, compact, partition.CellWork)
	if err != nil {
		return nil, err
	}
	me := r.me()
	globalOf := func(ci int) int {
		if global == nil {
			return ci
		}
		return global[ci]
	}
	myCompact := -1
	if global == nil {
		myCompact = me
	} else {
		for ci, gk := range global {
			if gk == me {
				myCompact = ci
				break
			}
		}
	}
	segTag := fmt.Sprintf("%ss2seg-%d", r.prefix, iter)
	var mySeg partition.GroupSegment
	if myCompact >= 0 {
		g := plan.GroupOf(myCompact)
		boxes, owners := plan.PartitionGroup(g)
		mySeg = partition.GroupSegment{Boxes: boxes, Owners: owners}
		if leader := globalOf(plan.Members[g][0]); leader == me && me != root {
			payload, err := transport.EncodeGob(mySeg)
			if err != nil {
				return nil, err
			}
			if err := r.ep.Send(root, segTag, payload); err != nil {
				return nil, err
			}
			r.res.BytesSent += int64(len(payload))
		}
	}
	if me != root {
		return nil, nil
	}
	segs := make([]partition.GroupSegment, plan.NumGroups())
	for gi := range segs {
		leader := globalOf(plan.Members[gi][0])
		if leader == me {
			segs[gi] = mySeg
			continue
		}
		payload, err := r.ep.Recv(leader, segTag)
		if err != nil {
			return nil, err
		}
		if err := transport.DecodeGob(payload, &segs[gi]); err != nil {
			return nil, err
		}
		if len(segs[gi].Boxes) != len(segs[gi].Owners) {
			return nil, fmt.Errorf("engine: rank %d sent a segment of %d boxes with %d owners",
				leader, len(segs[gi].Boxes), len(segs[gi].Owners))
		}
	}
	asn, err := plan.Assemble(segs)
	if err != nil {
		return nil, err
	}
	if global != nil {
		asn = partition.ExpandAlive(asn, global, len(caps))
	}
	return asn, nil
}

// partitionGroupLocal agrees on the next assignment under a hierarchical
// partitioner with one gather and one fan-out: the root assembles the
// group-local segments (gatherGroups), relabels for movement affinity — it
// alone holds the fresh Ideal vector RemapOwners needs — and ships every
// other alive rank the owner delta against the standing assignment (the
// full table only when the tiling changed). Every rank, the root included,
// rebuilds its view from that wire form. Only repartitionNow may call this —
// all alive ranks enter it synchronously — never the recovery paths, which
// must stay communication-free.
func (r *spmdRun) partitionGroupLocal(h *partition.Hierarchical, iter int) (*asnView, error) {
	me, root := r.me(), r.lowestAlive()
	asn, err := r.gatherGroups(h, iter, root)
	if err != nil {
		return nil, err
	}
	asnTag := fmt.Sprintf("%ss2asn-%d", r.prefix, iter)
	var wire wireAssignment
	if me == root {
		if !r.cfg.NoAffinityRemap {
			asn = partition.RemapOwners(r.assign.Assignment, asn)
		}
		wire = encodeAssignment(r.assign, asn)
		payload, err := transport.EncodeGob(wire)
		if err != nil {
			return nil, err
		}
		for p, a := range r.alive {
			if !a || p == me {
				continue
			}
			if err := r.ep.Send(p, asnTag, payload); err != nil {
				return nil, err
			}
			r.res.BytesSent += int64(len(payload))
		}
	} else {
		payload, err := r.ep.Recv(root, asnTag)
		if err != nil {
			return nil, err
		}
		if err := transport.DecodeGob(payload, &wire); err != nil {
			return nil, err
		}
	}
	return decodeAssignment(r.assign, &wire, me, r.ep.Size())
}

// setup (re)builds the run's distribution state for the given iteration and
// returns the iteration actually restored: partition over the currently
// eligible ranks, ghost plan, and patches — from Kernel.Init at iteration 0,
// from checkpoint shards otherwise. A corrupt epoch falls back to the newest
// intact earlier one (every rank scans the same shared directory, so all
// ranks land on the same epoch without coordination), re-initializing when
// none survives.
func (r *spmdRun) setup(iter int) (int, error) {
	for {
		err := r.setupAt(iter)
		if err == nil {
			return iter, nil
		}
		if iter <= 0 || !errors.Is(err, checkpoint.ErrCorrupt) {
			return 0, err
		}
		r.res.CkptFallbacks++
		prev := checkpoint.PrevShardIter(r.cfg.FT.CheckpointDir, iter)
		if prev < 0 {
			prev = 0
		}
		iter = prev
	}
}

// setupAt is one restoration attempt at exactly iter.
func (r *spmdRun) setupAt(iter int) error {
	k := r.cfg.Kernel
	r.sc.tr.SetPos(r.epoch, iter)
	psp := r.sc.tr.Span(trace.PhasePartition)
	asn, err := r.partitionEligible(iter)
	psp.End()
	if err != nil {
		return err
	}
	v := newAsnView(asn, r.me())
	var cur []*amr.Patch
	if iter == 0 {
		cur = make([]*amr.Patch, len(asn.Boxes))
		for _, i := range v.mine {
			cur[i] = amr.NewPatch(asn.Boxes[i], k.Ghost(), k.NumFields())
			k.Init(cur[i], r.cfg.BaseGrid)
		}
	} else {
		merged, err := checkpoint.LoadShards(r.cfg.FT.CheckpointDir, iter)
		if err != nil {
			return fmt.Errorf("engine: rank %d restore at %d: %w", r.me(), iter, err)
		}
		if cur, err = assemblePatches(v, k.Ghost(), k.NumFields(), merged); err != nil {
			return err
		}
	}
	r.install(v, cur, iter)
	return nil
}

// install makes v the standing assignment as of iter, with cur as the rank's
// patches under it. Ghost-plan entries and patch slots are only meaningful
// against the assignment they were built from, so the four change together,
// here and nowhere else. Ownership moved, so the old spares retire to the
// free list and every owned slot draws one back (stale cells: stepPatch
// writes the interior, the next exchange the halo), keeping that allocation
// out of the next step's timed compute window; a slot the list cannot serve
// stays nil for stepPatch to allocate.
func (r *spmdRun) install(v *asnView, cur []*amr.Patch, iter int) {
	k, sc := r.cfg.Kernel, &r.sc
	sc.freeCap = max(sc.freeCap, 2*len(v.mine))
	for _, p := range r.spare {
		sc.retire(p)
	}
	r.assign, r.cur = v, cur
	r.spare = make([]*amr.Patch, len(v.Boxes))
	for _, i := range v.mine {
		r.spare[i] = sc.recycled(v.Boxes[i], k.Ghost(), k.NumFields())
	}
	r.lastPart = iter
	sp := sc.tr.Span(trace.PhasePlan)
	sc.retired = r.plan
	r.plan = buildGhostPlan(v, r.me(), k.Ghost(), r.prefix, sc)
	sp.End()
}

// owned returns the rank's current patches keyed by interior box — the form
// in which they leave the runtime (checkpoint shards, SPMDResult.Patches).
func (r *spmdRun) owned() map[geom.Box]*amr.Patch {
	out := make(map[geom.Box]*amr.Patch, len(r.assign.mine))
	for _, i := range r.assign.mine {
		out[r.assign.Boxes[i]] = r.cur[i]
	}
	return out
}

// assemblePatches builds the rank's patch slots (indexed by box index) from
// a merged shard map. Shard boxes may be split differently than the new
// assignment's (ownership changed hands), so each new patch is stitched from
// every overlapping shard region, with full interior coverage verified cell
// by cell. Overlapping shard regions are safe: bit-exact determinism makes
// their values identical wherever they intersect.
func assemblePatches(v *asnView, ghost, fields int, merged map[geom.Box]*amr.Patch) ([]*amr.Patch, error) {
	patches := make([]*amr.Patch, len(v.Boxes))
	var vals []float64
	for _, i := range v.mine {
		nb := v.Boxes[i]
		p := amr.NewPatch(nb, ghost, fields)
		covered := make([]bool, nb.Cells())
		for ob, op := range merged {
			region := nb.Intersect(ob)
			if region.Empty() {
				continue
			}
			vals = op.AppendRegion(vals[:0], region)
			if err := apply(p, region, vals); err != nil {
				return nil, err
			}
			forEachCell(region, func(pt geom.Point) {
				covered[boxIndex(nb, pt)] = true
			})
		}
		for _, c := range covered {
			if !c {
				return nil, fmt.Errorf("engine: checkpoint shards do not cover box %v", nb)
			}
		}
		patches[i] = p
	}
	return patches, nil
}

// boxIndex linearizes pt within b (x fastest), for coverage bitmaps.
func boxIndex(b geom.Box, pt geom.Point) int {
	idx, stride := 0, 1
	for d := 0; d < b.Rank; d++ {
		idx += (pt[d] - b.Lo[d]) * stride
		stride *= b.Size(d)
	}
	return idx
}

// pollAnnounces drains rejoin announcements from ranks currently agreed
// dead. Announces from ranks not (yet) declared dead stay queued: a rank
// that revives faster than its death is detected is admitted only after the
// collective has processed the death, keeping the membership history linear.
func (r *spmdRun) pollAnnounces() {
	po, ok := r.ep.(transport.Poller)
	if !ok {
		return
	}
	for p, a := range r.alive {
		if a || r.pendingJoin[p] {
			continue
		}
		if _, got, err := po.TryRecv(p, tagRejoinAnnounce); err == nil && got {
			r.pendingJoin[p] = true
		}
	}
}

// joinList returns the pending joins, sorted.
func (r *spmdRun) joinList() []int {
	if len(r.pendingJoin) == 0 {
		return nil
	}
	out := make([]int, 0, len(r.pendingJoin))
	for p := range r.pendingJoin {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// heartbeat runs the two-round failure detection + agreement protocol for an
// iteration and returns the newly-dead ranks and, on a clean round, the
// joins to admit.
//
// Round 1: every alive rank all-gathers an hbMsg; a receive timing out marks
// the sender suspect. Under the boundary-crash failure model a dead rank
// sent nothing this iteration, so every survivor times out on it in this
// round. Round 2: ranks exchange their round-1 suspect sets and union what
// they receive, so all survivors leave with an identical dead set even if
// their local observations differed. Pending joins ride the same two rounds:
// any locally-discovered announce is advertised to everyone in round 1, so
// all ranks finish the round with the identical sticky join set. On a clean
// round the agreed restore point advances to the minimum durable checkpoint
// advertised by all participants, the straggler detector replicas consume
// the identical gossiped timing vector, and the pending joins are admitted.
func (r *spmdRun) heartbeat(iter int) (newDead, joins []int, err error) {
	me := r.me()
	r.sc.tr.SetPos(r.epoch, iter)
	r.pollAnnounces()
	suspects := map[int]bool{}
	ckpts := []int{r.durableCkpt()}
	perCell := make([]float64, len(r.alive))
	perCell[me] = float64(r.stepPS)

	send := func(round int, dead []int) error {
		m := hbMsg{Ckpt: r.durableCkpt(), StepPS: r.stepPS, Dead: dead, Join: r.joinList()}
		payload := encodeHb(m)
		tag := fmt.Sprintf("%shb%d-%d", r.prefix, round, iter)
		for p := range r.alive {
			if p == me || !r.alive[p] || suspects[p] {
				continue
			}
			if r.sc.tr.Logged() {
				// The clock-sync extension is per-receiver (the echoed delta
				// belongs to one pairwise link), so traced heartbeats are
				// re-encoded per peer; the tracing-off path keeps the single
				// shared encoding above.
				m.HasTrace = true
				m.DeltaNS = r.sc.tr.HBDelta(p)
				m.SendNS = r.sc.tr.Now()
				payload = encodeHb(m)
			}
			if err := r.ep.Send(p, tag, payload); err != nil {
				return err
			}
			r.res.BytesSent += int64(len(payload))
		}
		return nil
	}
	recv := func(round int) error {
		tag := fmt.Sprintf("%shb%d-%d", r.prefix, round, iter)
		for p := range r.alive {
			if p == me || !r.alive[p] || suspects[p] {
				continue
			}
			payload, err := r.ep.RecvTimeout(p, tag, r.ctrl)
			if errors.Is(err, transport.ErrRankDown) {
				suspects[p] = true
				continue
			}
			if err != nil {
				return err
			}
			m, err := decodeHb(payload)
			if err != nil {
				return err
			}
			if m.HasTrace {
				r.sc.tr.ObserveHeartbeat(p, m.SendNS, m.DeltaNS)
			}
			if round == 1 {
				ckpts = append(ckpts, m.Ckpt)
				perCell[p] = float64(m.StepPS)
			}
			for _, d := range m.Dead {
				if d >= 0 && d < len(r.alive) && r.alive[d] && d != me {
					suspects[d] = true
				}
			}
			for _, j := range m.Join {
				if j >= 0 && j < len(r.alive) && !r.alive[j] {
					r.pendingJoin[j] = true
				}
			}
		}
		return nil
	}

	if err := send(1, r.deadList()); err != nil {
		return nil, nil, err
	}
	if err := recv(1); err != nil {
		return nil, nil, err
	}
	round2Dead := r.deadList()
	for p := range suspects {
		round2Dead = append(round2Dead, p)
	}
	sort.Ints(round2Dead)
	if err := send(2, round2Dead); err != nil {
		return nil, nil, err
	}
	if err := recv(2); err != nil {
		return nil, nil, err
	}

	if len(suspects) == 0 {
		stable := ckpts[0]
		for _, c := range ckpts[1:] {
			if c < stable {
				stable = c
			}
		}
		r.stable = stable
		if r.strag != nil {
			for _, trans := range r.strag.Observe(perCell, r.alive) {
				if trans.To > trans.From {
					r.res.StragglerDemotions++
				} else {
					r.res.StragglerPromotions++
				}
				r.sc.tr.Verdict(trans.Rank, trans.To.String())
			}
		}
		joins = r.joinList()
		clear(r.pendingJoin)
		return nil, joins, nil
	}
	newDead = make([]int, 0, len(suspects))
	for p := range suspects {
		r.alive[p] = false
		newDead = append(newDead, p)
	}
	sort.Ints(newDead)
	return newDead, nil, nil
}

// lowestAlive returns the lowest alive rank — the host of admissions and the
// root of the partition gather. The caller itself is alive, so one exists.
func (r *spmdRun) lowestAlive() int {
	p := 0
	for !r.alive[p] {
		p++
	}
	return p
}

// deadList returns the currently-dead ranks, sorted.
func (r *spmdRun) deadList() []int {
	var dead []int
	for p, a := range r.alive {
		if !a {
			dead = append(dead, p)
		}
	}
	return dead
}

// admit re-admits the agreed joins at an iteration boundary. Every survivor
// marks them alive, bumps the epoch, and resets its straggler replica (the
// joiners start with no history, and replicas must stay identical); the
// lowest-ranked survivor grants the welcome carrying the collective state.
// All members — joiners included, as pure receivers — then run the identical
// admission repartition, so the work the dead rank shed flows back.
func (r *spmdRun) admit(iter int, joins []int) error {
	host := r.lowestAlive()
	for _, j := range joins {
		r.alive[j] = true
	}
	r.setEpoch(r.epoch + 1)
	r.resetStraggler()
	r.res.Admissions += len(joins)
	if r.me() == host {
		w := welcomeMsg{
			Iter: iter, Epoch: r.epoch, Stable: r.stable,
			Alive: append([]bool(nil), r.alive...),
			Boxes: r.assign.Boxes, Owners: r.assign.Owners,
		}
		payload, err := transport.EncodeGob(w)
		if err != nil {
			return err
		}
		for _, j := range joins {
			if err := r.ep.Send(j, tagRejoinWelcome, payload); err != nil {
				return err
			}
			r.res.BytesSent += int64(len(payload))
		}
	}
	return r.repartitionNow(iter)
}

// rejoin is the restarted rank's half of the re-admission protocol: revive
// the transport slot, announce to every peer, wait for the survivors'
// welcome, adopt the collective state it carries, and receive this rank's
// share of the admission repartition.
func (r *spmdRun) rejoin() (*welcomeMsg, error) {
	po, ok := r.ep.(transport.Poller)
	if !ok {
		return nil, fmt.Errorf("engine: rejoin requires a transport.Poller endpoint")
	}
	// Pre-crash async shard writes settle first: the restarted process must
	// not race its former self on the checkpoint directory.
	r.ckptWG.Wait()
	if rv, ok := r.ep.(transport.Reviver); ok {
		rv.Revive()
	}
	for p := 0; p < r.ep.Size(); p++ {
		if p == r.me() {
			continue
		}
		if err := r.ep.Send(p, tagRejoinAnnounce, nil); err != nil {
			return nil, err
		}
	}
	var w welcomeMsg
	found := false
	for waited := time.Duration(0); !found && waited < rejoinDeadline; {
		for p := 0; p < r.ep.Size() && !found; p++ {
			if p == r.me() {
				continue
			}
			payload, got, err := po.TryRecv(p, tagRejoinWelcome)
			if err != nil {
				return nil, err
			}
			if !got {
				continue
			}
			if err := transport.DecodeGob(payload, &w); err != nil {
				return nil, err
			}
			found = true
		}
		if !found {
			time.Sleep(rejoinPollEvery)
			waited += rejoinPollEvery
		}
	}
	if !found {
		return nil, fmt.Errorf("engine: rank %d: no rejoin welcome within %v", r.me(), rejoinDeadline)
	}
	if len(w.Alive) != len(r.alive) {
		return nil, fmt.Errorf("engine: rank %d: malformed rejoin welcome", r.me())
	}
	standing, err := assignmentOf(w.Boxes, w.Owners, len(r.alive))
	if err != nil {
		return nil, fmt.Errorf("engine: rank %d: malformed rejoin welcome: %w", r.me(), err)
	}
	// Adopt the collective state the survivors agreed on. Durable is set to
	// the collective stable point: this rank's pre-crash shards at that
	// iteration are on disk by the stable point's construction, and
	// advertising anything older would drag the whole group backwards.
	copy(r.alive, w.Alive)
	r.alive[r.me()] = true
	r.setEpoch(w.Epoch)
	r.stable = w.Stable
	r.ckptMu.Lock()
	r.durable = w.Stable
	r.ckptErr = nil
	r.ckptMu.Unlock()
	r.install(newAsnView(standing, r.me()), make([]*amr.Patch, len(standing.Boxes)), w.Iter)
	r.stepPS = 0
	r.resetStraggler()
	// Join the admission repartition as a pure receiver (this rank owns
	// nothing in the standing assignment).
	if err := r.repartitionNow(w.Iter); err != nil {
		return nil, err
	}
	return &w, nil
}

// repartitionNow repartitions over the current eligible membership, remaps
// for movement affinity, and redistributes patch data — the shared tail of
// scheduled repartitions and admissions (recoveries go through setup). The
// decision is replicated — PartitionAlive is deterministic and RemapOwners a
// pure function of two assignments, so every rank derives the same labels
// with zero messages — unless the partitioner is hierarchical, where stage 2
// is sliced group-locally and agreed through one gather and one delta
// fan-out (safe here, and only here: all alive ranks enter synchronously).
func (r *spmdRun) repartitionNow(iter int) error {
	cfg := r.cfg
	r.sc.tr.SetPos(r.epoch, iter)
	psp := r.sc.tr.Span(trace.PhasePartition)
	var newView *asnView
	var err error
	if h, ok := cfg.Partitioner.(*partition.Hierarchical); ok && r.ep.Size() > 1 {
		newView, err = r.partitionGroupLocal(h, iter)
	} else {
		var asn *partition.Assignment
		if asn, err = r.partitionEligible(iter); err == nil {
			if !cfg.NoAffinityRemap {
				asn = partition.RemapOwners(r.assign.Assignment, asn)
			}
			if asn.Boxes.Equal(r.assign.Boxes) {
				asn.Boxes = r.assign.Boxes // alias: later same-tiling checks are O(1)
			}
			newView = newAsnView(asn, r.me())
		}
	}
	psp.End()
	if err != nil {
		return err
	}
	cur, err := redistribute(r.ep, r.assign, newView, r.cur, cfg.Kernel, iter, r.res, r.prefix, &r.sc)
	if err != nil {
		return err
	}
	r.install(newView, cur, iter)
	r.res.Repartitions++
	return nil
}

// recoverAt rolls the rank back to the agreed restore iteration: bump the
// epoch (namespacing all future tags away from pre-crash traffic),
// re-partition the tiles over the survivors, and restore patches from the
// checkpoint shards (or re-initialize when restore == 0). It returns the
// iteration actually restored — older than asked when the newest shards
// were corrupt and setup fell back.
func (r *spmdRun) recoverAt(restore int) (int, error) {
	// Let any in-flight shard write settle before re-reading the directory.
	r.ckptWG.Wait()
	r.ckptMu.Lock()
	err := r.ckptErr
	r.ckptMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("engine: async checkpoint failed before recovery: %w", err)
	}
	r.setEpoch(r.epoch + 1)
	actual, err := r.setup(restore)
	if err != nil {
		return 0, err
	}
	if actual < restore {
		// The epoch we believed durable was not: demote both marks so the
		// next heartbeat re-agrees on a stable point that actually exists.
		r.stable = actual
		r.ckptMu.Lock()
		if r.durable > actual {
			r.durable = actual
		}
		r.ckptMu.Unlock()
	}
	return actual, nil
}

// writeCheckpoint snapshots the rank's owned patches as a shard for iter.
// Patches are cloned synchronously (the cut point), then serialized and
// written asynchronously unless SyncCheckpoint is set. Writes are serialized
// per rank so durability is monotonic in iteration order. With retention
// enabled, shards strictly below the agreed stable point are pruned down to
// CheckpointKeep epochs — never at or above it, since the stable point (and
// the corruption fallback chain under it) is what recovery restores from.
func (r *spmdRun) writeCheckpoint(iter int) error {
	r.ckptWG.Wait() // serialize with the previous async write
	r.ckptMu.Lock()
	err := r.ckptErr
	r.ckptMu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: async checkpoint failed: %w", err)
	}
	// The checkpoint span covers the synchronous cut: cloning always, the
	// shard write too when SyncCheckpoint blocks on it.
	ksp := r.sc.tr.Span(trace.PhaseCheckpoint)
	clones := r.owned()
	for b, p := range clones {
		clones[b] = p.Clone()
	}
	sh := &checkpoint.SPMDShard{Iter: iter, Rank: r.me(), Size: r.ep.Size(), Patches: clones}
	dir := r.cfg.FT.CheckpointDir
	stable := r.stable // capture: the async writer must not race the loop
	r.res.Checkpoints++
	if r.cfg.FT.SyncCheckpoint {
		err := checkpoint.SaveShard(dir, sh)
		if err == nil {
			r.setDurable(iter)
		}
		ksp.End()
		if err != nil {
			return err
		}
		return r.pruneShards(stable)
	}
	ksp.End()
	r.ckptWG.Add(1)
	go func() {
		defer r.ckptWG.Done()
		if err := checkpoint.SaveShard(dir, sh); err != nil {
			r.ckptMu.Lock()
			r.ckptErr = err
			r.ckptMu.Unlock()
			return
		}
		r.setDurable(iter)
		if err := r.pruneShards(stable); err != nil {
			r.ckptMu.Lock()
			r.ckptErr = err
			r.ckptMu.Unlock()
		}
	}()
	return nil
}

// pruneShards enforces CheckpointKeep retention below the stable point.
func (r *spmdRun) pruneShards(stable int) error {
	keep := r.cfg.FT.CheckpointKeep
	if keep <= 0 {
		return nil
	}
	_, err := checkpoint.PruneShards(r.cfg.FT.CheckpointDir, r.me(), stable, keep)
	return err
}

func (r *spmdRun) setDurable(iter int) {
	r.ckptMu.Lock()
	if iter > r.durable {
		r.durable = iter
	}
	r.ckptMu.Unlock()
}

func (r *spmdRun) durableCkpt() int {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return r.durable
}

// step executes one iteration: scheduled repartition, ghost exchange with
// compute/communication overlap, global dt agreement over the alive ranks,
// and patch advances, with injected compute dilation and per-cell step
// timing for the straggler gossip.
func (r *spmdRun) step(iter int) error {
	cfg, k := r.cfg, r.cfg.Kernel
	r.sc.tr.SetPos(r.epoch, iter)
	if cfg.RepartEvery > 0 && iter > 0 && iter%cfg.RepartEvery == 0 && iter != r.lastPart {
		if err := r.repartitionNow(iter); err != nil {
			return err
		}
	}
	// Ghost exchange, phase 1: post remote sends, fill everything that is
	// locally available (outflow fallback + same-rank copies).
	if err := r.plan.postSends(r.ep, r.cur, r.res); err != nil {
		return err
	}
	// Global stable dt. MaxDT reads interiors only, so computing it while
	// halos are in flight matches the serial value bit-exactly; the reduce
	// also gives the network time to progress.
	dt := cfg.dt
	if dt == 0 {
		local := math.Inf(1)
		for _, i := range r.assign.mine {
			if d := k.MaxDT(r.cur[i], cfg.BaseGrid); d < local {
				local = d
			}
		}
		dsp := r.sc.tr.Span(trace.PhaseDtWait)
		var err error
		dt, err = r.allReduceMin(local)
		dsp.End()
		if err != nil {
			return err
		}
		if math.IsInf(dt, 1) {
			dt = 0
		}
	}
	// Overlap: advance interior patches while remote halos are in flight.
	var cells int64
	csp := r.sc.tr.Span(trace.PhaseCompute)
	t0 := time.Now()
	for _, i := range r.plan.interior {
		stepPatch(k, cfg.BaseGrid, r.cur, r.spare, i, dt)
		r.res.InteriorSteps++
		cells += r.cur[i].Box.Cells()
	}
	computeDur := time.Since(t0)
	csp.End()
	// Ghost exchange, phase 2: block on the remote regions, then finish the
	// boundary patches.
	if err := r.plan.finishRecvs(r.ep, r.cur, r.res); err != nil {
		return err
	}
	bsp := r.sc.tr.Span(trace.PhaseAdvance)
	t1 := time.Now()
	for _, i := range r.plan.boundary {
		stepPatch(k, cfg.BaseGrid, r.cur, r.spare, i, dt)
		r.res.BoundarySteps++
		cells += r.cur[i].Box.Cells()
	}
	computeDur += time.Since(t1)
	bsp.End()
	// Injected gray failure: dilate this iteration's compute proportionally
	// to the measured work, so the rank's per-cell time reads Factor× its
	// natural speed on any machine.
	if f := r.slowFactor(iter); f > 1 && computeDur > 0 {
		pad := time.Duration(float64(computeDur) * (f - 1))
		time.Sleep(pad)
		computeDur += pad
	}
	if cells > 0 {
		r.stepPS = perCellPS(computeDur, cells)
	} else if r.strag != nil {
		r.canaryProbe(dt, r.slowFactor(iter))
	}
	r.sc.om.sync(r.res)
	return nil
}

// perCellPS converts a compute duration over a cell count to picoseconds
// per cell, clamped to >= 1 so "has a sample" is distinguishable from 0.
func perCellPS(d time.Duration, cells int64) int64 {
	ps := d.Nanoseconds() * 1000 / cells
	if ps < 1 {
		ps = 1
	}
	return ps
}

// canaryProbe keeps a workless (quarantined) rank producing comparable
// step-time samples: it advances a small private patch nobody else sees and
// reports that per-cell time. Without the probe a quarantined rank would
// emit no samples, its EWMA would freeze at the value that condemned it, and
// it could never be exonerated. An injected slow window scales the probe's
// reading the same way it dilates real work, so a still-slow rank keeps
// looking slow. Only runs with the straggler detector on consume the sample.
func (r *spmdRun) canaryProbe(dt, factor float64) {
	k := r.cfg.Kernel
	if r.canaryCur == nil {
		b := geom.Box{Rank: r.cfg.Domain.Rank}
		for d := 0; d < b.Rank; d++ {
			b.Lo[d] = r.cfg.Domain.Lo[d]
			b.Hi[d] = r.cfg.Domain.Lo[d] + 7
		}
		r.canaryCur = amr.NewPatch(b, k.Ghost(), k.NumFields())
		k.Init(r.canaryCur, r.cfg.BaseGrid)
		r.canaryNext = amr.NewPatch(b, k.Ghost(), k.NumFields())
	}
	t0 := time.Now()
	k.Step(r.canaryNext, r.canaryCur, r.cfg.BaseGrid, dt)
	dur := time.Since(t0)
	r.canaryCur, r.canaryNext = r.canaryNext, r.canaryCur
	if factor > 1 {
		dur = time.Duration(float64(dur) * factor)
	}
	r.stepPS = perCellPS(dur, r.canaryCur.Box.Cells())
}

// allReduceMin agrees on the global minimum of a float64 across the alive
// ranks: every rank sends its 8 raw bytes to every other and folds what it
// receives, under the epoch's dt tag with deadline-bounded receives. Float
// min is order-independent, so the result is bit-identical on every rank
// regardless of arrival order.
func (r *spmdRun) allReduceMin(local float64) (float64, error) {
	me := r.me()
	r.dtVals = append(r.dtVals[:0], local)
	r.dtBuf = transport.AppendFloats(r.dtBuf[:0], r.dtVals)
	for p := range r.alive {
		if p == me || !r.alive[p] {
			continue
		}
		if err := r.ep.Send(p, r.dtTag, r.dtBuf); err != nil {
			return 0, err
		}
		r.res.BytesSent += int64(len(r.dtBuf))
	}
	minVal := local
	for p := range r.alive {
		if p == me || !r.alive[p] {
			continue
		}
		got, err := r.ep.RecvTimeout(p, r.dtTag, r.data)
		if err != nil {
			return 0, err
		}
		r.dtVals, err = transport.DecodeFloats(got, r.dtVals)
		if err != nil {
			return 0, err
		}
		if len(r.dtVals) != 1 {
			return 0, fmt.Errorf("engine: dt reduce got %d values", len(r.dtVals))
		}
		if r.dtVals[0] < minVal {
			minVal = r.dtVals[0]
		}
	}
	return minVal, nil
}
