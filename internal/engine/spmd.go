package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/parallel"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// SPMDConfig configures a genuinely parallel single-level (domain
// decomposed) run over a transport group: every rank owns the patches the
// partitioner assigns it, exchanges ghost regions with neighbors through the
// transport, agrees on a global stable dt, and redistributes patch data when
// the capacities change. The multi-level AMR pipeline runs in-process in
// SimApp; this runner demonstrates and tests the distributed substrate
// (transport + partition + redistribution) with real numerics.
type SPMDConfig struct {
	// Domain is the computational domain, pre-split into Tiles x Tiles...
	// boxes to give the partitioner granularity.
	Domain geom.Box
	// TileSize is the edge length of the fixed decomposition tiles.
	TileSize int
	// Kernel and BaseGrid define the numerics.
	Kernel   solver.Kernel
	BaseGrid solver.Grid
	// Partitioner distributes the tiles (capacity aware).
	Partitioner partition.Partitioner
	// CapsAt returns the relative capacities at an iteration; it must be
	// identical on every rank (e.g. driven by the shared monitor). Called
	// at iteration 0 and every RepartEvery iterations.
	CapsAt func(iter int) []float64
	// Iterations is the number of time steps.
	Iterations int
	// RepartEvery repartitions every N iterations (0 = never after start).
	RepartEvery int
	// dt fixes the time step; 0 derives a global stable dt each step.
	dt float64
	// RecvDeadline bounds every blocking data-plane receive in the step loop
	// (ghost exchange, dt agreement, migration, partition gather) so a
	// silently-dead peer surfaces as transport.ErrRankDown instead of a
	// hang. 0 selects defaultRecvDeadline.
	RecvDeadline time.Duration
	// ControlDeadline bounds the control-plane receives (heartbeats and
	// admission rounds). Failure detection latency is this deadline, so it
	// is usually much shorter than RecvDeadline: a tight control deadline
	// detects deaths fast without racing bulk data transfers. 0 inherits
	// the resolved RecvDeadline.
	ControlDeadline time.Duration
	// Workers bounds the worker pool used for plan construction and frame
	// pack/unpack inside a rank. Unlike the engine Config knob, 0 (the zero
	// value) keeps the serial path — an SPMD rank usually shares its host
	// with peer ranks, so intra-rank fan-out is opt-in; values > 1 enable
	// that many workers. Every parallel site merges in a fixed order, so
	// results are bit-identical at any width.
	Workers int
	// NoAffinityRemap disables the movement-aware owner relabeling
	// (partition.RemapOwners) applied after each scheduled repartition, so
	// experiments can measure the migration volume it saves.
	NoAffinityRemap bool
	// FT turns membership on: heartbeat failure detection, checkpoints,
	// rollback recovery and re-admission. Off, the same step loop runs with
	// every rank alive at epoch 0 and never heartbeats or checkpoints.
	FT FTConfig
	// Faults is the fault schedule (crash, rejoin, slow, pause — see
	// ParseFaultSpec). A crash event kills the rank's endpoint at the start
	// of its iteration, so the endpoint must implement transport.Killer
	// (wrap it in transport.Faulty); it is fail-stop unless a later rejoin
	// event re-admits the rank through the elastic-membership protocol.
	// Non-crash kinds require FT.Enabled.
	Faults FaultSchedule
	// Straggler enables the replicated slow-rank detector: per-rank step
	// timings gossiped on heartbeats feed identical detector replicas, and
	// demoted/quarantined ranks lose capacity (or all work) at the next
	// repartition. Requires FT.Enabled to have any effect.
	Straggler bool
	// Obs, when set, receives the rank's transport counters and hands out
	// its span recorder: every phase span feeds samr_phase_seconds and, when
	// the runtime has a run log, lands there beside message-level send/recv
	// records and pairwise clock-offset estimates. Only a logged run
	// piggybacks a trace context on coalesced frames and heartbeats; a
	// metrics-only run's wire traffic equals an uninstrumented one's. Nil
	// disables observability. The simulation output is bit-identical in all
	// three cases (the context extends wire headers, never applied payload).
	Obs *obs.Runtime
}

// SPMDResult reports one rank's outcome.
type SPMDResult struct {
	Rank       int
	OwnedBoxes geom.BoxList
	// L1Sum is Σ|u| over owned interiors (field 0), a cheap global check.
	L1Sum float64
	// BytesSent counts transport payload bytes this rank sent.
	BytesSent int64
	// MsgsSent and MsgsRecvd count the point-to-point data-plane messages
	// this rank exchanged (halo regions and migration payloads; control
	// broadcasts and dt/heartbeat collectives are excluded). Under the
	// coalesced exchange MsgsSent is exactly one per communicating rank pair
	// per iteration.
	MsgsSent  int64
	msgsRecvd int64
	// MigratedBytes counts patch payload bytes this rank shipped to other
	// ranks during redistributions; RetainedBytes counts the payload bytes
	// repartitions let it keep in place. Together they expose the movement
	// cost of adapting the partition.
	MigratedBytes int64
	RetainedBytes int64
	// Repartitions counts how many times ownership changed hands.
	Repartitions int
	// InteriorSteps counts patch steps taken while remote halo data was
	// still in flight (compute/communication overlap); BoundarySteps counts
	// steps that had to wait for remote regions first.
	InteriorSteps int64
	BoundarySteps int64
	// Crashed reports this rank executed an injected fail-stop crash and
	// returned early (its other counters stop at the crash point).
	Crashed bool
	// rejoined reports this rank crashed (or paused) and was re-admitted
	// into the group through the elastic-membership protocol.
	rejoined bool
	// Admissions counts dead ranks this rank helped re-admit.
	Admissions int
	// StragglerDemotions/StragglerPromotions count slow-rank state
	// transitions this rank's detector replica observed (demotions move
	// toward shed/quarantined, promotions back toward normal).
	StragglerDemotions  int
	StragglerPromotions int
	// CkptFallbacks counts corrupt checkpoint epochs skipped during
	// restores (each is one step back in the retention chain).
	CkptFallbacks int
	// Recoveries counts completed rank-failure recoveries; RestoredFrom is
	// the iteration the latest recovery rolled back to (0 = re-initialized).
	Recoveries   int
	RestoredFrom int
	// deadRanks lists the ranks this rank agreed were lost.
	deadRanks []int
	// Checkpoints counts distributed checkpoint shards this rank wrote.
	Checkpoints int
	// Patches are the rank's owned patches at exit, keyed by interior box,
	// so callers can reassemble and compare the global solution exactly.
	Patches map[geom.Box]*amr.Patch
}

func (c SPMDConfig) validate() error {
	if c.Domain.Empty() {
		return fmt.Errorf("engine: spmd empty domain")
	}
	if c.TileSize < 1 {
		return fmt.Errorf("engine: spmd tile size %d", c.TileSize)
	}
	if c.Kernel == nil || c.Partitioner == nil || c.CapsAt == nil {
		return fmt.Errorf("engine: spmd missing kernel/partitioner/caps")
	}
	for d := 0; d < c.Domain.Rank; d++ { // frame headers and the halo graph hold cell bounds as int32
		if c.Domain.Lo[d] < math.MinInt32/2 || c.Domain.Hi[d] > math.MaxInt32/2 {
			return fmt.Errorf("engine: spmd domain %v exceeds the int32 cell range", c.Domain)
		}
	}
	if c.Iterations < 1 {
		return fmt.Errorf("engine: spmd iterations %d", c.Iterations)
	}
	if c.RecvDeadline < 0 {
		return fmt.Errorf("engine: negative recv deadline")
	}
	if c.ControlDeadline < 0 {
		return fmt.Errorf("engine: negative control deadline")
	}
	if err := c.FT.validate(); err != nil {
		return err
	}
	if !c.FT.Enabled {
		for _, ev := range c.Faults {
			if ev.Kind != FaultCrash {
				return fmt.Errorf("engine: fault kind %v requires FT.Enabled", ev.Kind)
			}
		}
	}
	return nil
}

// recvDeadline resolves the configured data-plane receive bound.
func (c SPMDConfig) recvDeadline() time.Duration {
	if c.RecvDeadline > 0 {
		return c.RecvDeadline
	}
	return defaultRecvDeadline
}

// controlDeadline resolves the control-plane (heartbeat) receive bound,
// inheriting the data-plane bound when unset.
func (c SPMDConfig) controlDeadline() time.Duration {
	if c.ControlDeadline > 0 {
		return c.ControlDeadline
	}
	return c.recvDeadline()
}

// tiles decomposes the domain into fixed tiles.
func (c SPMDConfig) tiles() geom.BoxList {
	var out geom.BoxList
	d := c.Domain
	switch d.Rank {
	case 2:
		for y := d.Lo[1]; y <= d.Hi[1]; y += c.TileSize {
			for x := d.Lo[0]; x <= d.Hi[0]; x += c.TileSize {
				b := geom.Box2(x, y, min(x+c.TileSize-1, d.Hi[0]), min(y+c.TileSize-1, d.Hi[1]))
				out = append(out, b)
			}
		}
	default:
		for z := d.Lo[2]; z <= d.Hi[2]; z += c.TileSize {
			for y := d.Lo[1]; y <= d.Hi[1]; y += c.TileSize {
				for x := d.Lo[0]; x <= d.Hi[0]; x += c.TileSize {
					b := geom.Box3(x, y, z,
						min(x+c.TileSize-1, d.Hi[0]),
						min(y+c.TileSize-1, d.Hi[1]),
						min(z+c.TileSize-1, d.Hi[2]))
					out = append(out, b)
				}
			}
		}
	}
	return out
}

// wireAssignment is the broadcast form of an assignment. The full form
// carries the whole box→owner table; the delta form (Delta true) carries
// only the owners that changed relative to the standing assignment, which
// every rank already holds — the compact broadcast that keeps repartition
// traffic proportional to how much ownership actually moved, not to total
// box count. The delta form is only valid when the repartition kept the box
// list itself unchanged (owner-only moves, the steady state).
type wireAssignment struct {
	Delta  bool
	Boxes  []geom.Box
	Owners []int
	// Changed/NewOwners are the delta form: Changed[i] is a box index in
	// the standing assignment whose owner becomes NewOwners[i]. Ascending.
	Changed   []int32
	NewOwners []int32
}

// asnView pairs the shared assignment with the ascending indexes of one
// rank's own boxes. Plan construction iterates the mine list — O(own boxes)
// — instead of rescanning the global owner table, and delta broadcasts
// maintain the list incrementally, so per-rank repartition cost stops
// growing with total box count.
type asnView struct {
	*partition.Assignment
	mine []int
}

// newAsnView builds a view by scanning the owner table (used after a full
// broadcast or a locally computed assignment).
func newAsnView(a *partition.Assignment, me int) *asnView {
	v := &asnView{Assignment: a}
	for i, o := range a.Owners {
		if o == me {
			v.mine = append(v.mine, i)
		}
	}
	return v
}

// applyDelta derives the new view from prev and an owner-delta broadcast:
// owners and per-node work are copied and patched, and the mine list is
// merged incrementally from the (ascending) changed indexes.
func applyDelta(prev *asnView, wire *wireAssignment, me int) *asnView {
	owners := append([]int(nil), prev.Owners...)
	work := append([]float64(nil), prev.Work...)
	var add, del []int
	for k, ci := range wire.Changed {
		i, no := int(ci), int(wire.NewOwners[k])
		oo := owners[i]
		if oo == no {
			continue
		}
		w := partition.CellWork(prev.Boxes[i])
		work[oo] -= w
		work[no] += w
		owners[i] = no
		if oo == me {
			del = append(del, i)
		}
		if no == me {
			add = append(add, i)
		}
	}
	a := &partition.Assignment{
		Boxes:  prev.Boxes,
		Owners: owners,
		Work:   work,
		Ideal:  make([]float64, len(work)),
	}
	return &asnView{Assignment: a, mine: mergeMine(prev.mine, add, del)}
}

// mergeMine merges sorted additions into and removes sorted deletions from
// a sorted index list, allocating only when membership changed.
func mergeMine(mine, add, del []int) []int {
	if len(add) == 0 && len(del) == 0 {
		return mine
	}
	out := make([]int, 0, len(mine)+len(add)-len(del))
	ai, di := 0, 0
	for _, m := range mine {
		for ai < len(add) && add[ai] < m {
			out = append(out, add[ai])
			ai++
		}
		if di < len(del) && del[di] == m {
			di++
			continue
		}
		out = append(out, m)
	}
	out = append(out, add[ai:]...)
	return out
}

// RunSPMDRank executes one rank of the SPMD program. Every rank must call
// it with the same config and its own endpoint, which must implement
// transport.TimedEndpoint (both built-in transports and transport.Faulty
// do): no receive in the loop may hang on a silently-dead peer.
//
// There is one step loop (spmdRun.loop/step). Every decision in it is
// replicated — each rank derives the identical assignment, plans and dt from
// shared inputs — and fault tolerance is a membership mode of that loop:
// with FT.Enabled it heartbeats, checkpoints, recovers and re-admits at
// iteration boundaries; without, every rank stays alive at epoch 0.
//
// The step overlaps computation with communication: ghost sends are posted
// first, then patches whose halos are fully local ("interior" patches)
// advance while remote halo regions are still in flight; the rank only
// blocks on receives before advancing its "boundary" patches. The split
// changes scheduling only — every patch still steps with a complete halo —
// so the result stays bit-exact with serial execution.
func RunSPMDRank(ep transport.Endpoint, cfg SPMDConfig) (*SPMDResult, error) {
	r, err := newSPMDRun(ep, cfg)
	if err != nil {
		return nil, err
	}
	start := 0
	if cfg.FT.Enabled {
		start = cfg.FT.ResumeFrom
	}
	actual, err := r.setup(start)
	if err != nil {
		return nil, err
	}
	r.stable, r.durable = actual, actual
	return r.loop(actual, false)
}

// finalizeSPMD fills the result's owned boxes, L1 check sum, and patch map.
// Boxes are visited in sorted order so the L1 float accumulation is
// deterministic across runs (map iteration order would perturb the last ULP).
func finalizeSPMD(res *SPMDResult, patches map[geom.Box]*amr.Patch) {
	for b := range patches {
		res.OwnedBoxes = append(res.OwnedBoxes, b)
	}
	res.OwnedBoxes.SortBy(func(geom.Box) int64 { return 0 })
	for _, b := range res.OwnedBoxes {
		p := patches[b]
		sum := 0.0
		p.EachInterior(func(pt geom.Point) { sum += math.Abs(p.At(0, pt)) })
		res.L1Sum += sum
	}
	res.Patches = patches
}

// stepPatch advances the owned patch in slot i by dt into its spare double
// buffer and retires the current patch as the next spare. Halos of the spare
// are stale but every halo cell is rewritten by the next exchange (outflow
// covers the whole shell before copies land), so reuse is bit-exact with
// fresh zero-filled patches.
func stepPatch(k solver.Kernel, g solver.Grid, cur, spare []*amr.Patch, i int, dt float64) {
	p, next := cur[i], spare[i]
	if next == nil {
		next = amr.NewPatch(p.Box, p.Ghost, p.NumFields)
	}
	k.Step(next, p, g, dt)
	cur[i], spare[i] = next, p
}

// encodeAssignment chooses the broadcast form: owner deltas relative to the
// standing assignment when the repartition kept the box list (the steady
// state — repartitions move ownership, not the tiling), the full table
// otherwise.
func encodeAssignment(prev *asnView, a *partition.Assignment) wireAssignment {
	if prev == nil || !prev.Boxes.Equal(a.Boxes) {
		return wireAssignment{Boxes: a.Boxes, Owners: a.Owners}
	}
	w := wireAssignment{Delta: true}
	for i, o := range a.Owners {
		if o != prev.Owners[i] {
			w.Changed = append(w.Changed, int32(i))
			w.NewOwners = append(w.NewOwners, int32(o))
		}
	}
	return w
}

// decodeAssignment rebuilds a rank's view from a wire form: the delta form
// patches the standing view prev, the full form rescans the owner table.
// The sender rebuilds its own view through here too, so every rank holds
// bit-identical state regardless of which form traveled. The form arrived
// from a peer, so indexes and owners are range-checked before use.
func decodeAssignment(prev *asnView, wire *wireAssignment, me, size int) (*asnView, error) {
	if wire.Delta {
		if prev == nil || len(wire.Changed) != len(wire.NewOwners) {
			return nil, fmt.Errorf("engine: malformed owner-delta assignment")
		}
		for k, ci := range wire.Changed {
			if ci < 0 || int(ci) >= len(prev.Owners) || wire.NewOwners[k] < 0 || int(wire.NewOwners[k]) >= size {
				return nil, fmt.Errorf("engine: owner delta (box %d -> rank %d) out of range", ci, wire.NewOwners[k])
			}
		}
		return applyDelta(prev, wire, me), nil
	}
	a, err := assignmentOf(wire.Boxes, wire.Owners, size)
	if err != nil {
		return nil, err
	}
	return newAsnView(a, me), nil
}

// assignmentOf rebuilds an assignment from a box→owner table that arrived
// over the wire: per-node work is re-accumulated in box order; Ideal is not
// part of the standing state (only a fresh partitioner result carries it).
func assignmentOf(boxes geom.BoxList, owners []int, size int) (*partition.Assignment, error) {
	if len(boxes) != len(owners) {
		return nil, fmt.Errorf("engine: assignment has %d boxes but %d owners", len(boxes), len(owners))
	}
	a := &partition.Assignment{
		Boxes:  boxes,
		Owners: owners,
		Work:   make([]float64, size),
		Ideal:  make([]float64, size),
	}
	for i, b := range boxes {
		if owners[i] < 0 || owners[i] >= size {
			return nil, fmt.Errorf("engine: box %d owned by rank %d of %d", i, owners[i], size)
		}
		a.Work[owners[i]] += partition.CellWork(b)
	}
	return a, nil
}

// apply writes serialized region values (amr.Patch.AppendRegion order) into
// a patch. The payload came off the wire or a checkpoint shard, so its length
// is checked here rather than trusted.
func apply(p *amr.Patch, region geom.Box, data []float64) error {
	want := int(region.Cells()) * p.NumFields
	if len(data) != want {
		return fmt.Errorf("engine: region payload has %d values, want %d", len(data), want)
	}
	p.SetRegion(region, data)
	return nil
}

// commScratch pools one rank's communication buffers: pack/unpack scratch
// shared by the halo exchange, the migration path, and plan rebuilds, so the
// steady-state loop and repeated repartitions allocate nothing for
// communication. The receive-side buffers are separate twins because a
// coalesced receive may decode while the send-side buffers still hold the
// frame being packed.
type commScratch struct {
	floats  []float64
	bytes   []byte
	regions []transport.FrameRegion

	rfloats  []float64
	rregions []transport.FrameRegion

	// indexes caches uniform-grid spatial indexes across plan rebuilds, so a
	// rank pays the O(total boxes) index construction only when the tiling
	// actually changes, not on every repartition.
	indexes indexCache

	// halo caches the part of the ghost plan the box list alone decides;
	// retired (the plan install replaced) and mig lend the next builds slices.
	halo    haloGraph
	retired *ghostPlan
	mig     migPlan

	// free lists the buffers of patches that left the rank (redistribute) or
	// stopped being a spare (install), for arriving boxes and new spares to
	// draw; freeCap is twice the rank's high-water owned-box count.
	free    []*amr.Patch
	freeCap int

	// workers is the intra-rank fan-out width (SPMDConfig.Workers): plan
	// construction and coalesced frame pack/unpack chunk across this many
	// workers when > 1. The zero value keeps every path serial, so a raw
	// commScratch{} (tests, benchmarks, recovery helpers) behaves exactly as
	// before the pool existed.
	workers int

	// spanFloats/spanRegions/spanBytes are the per-peer-span twins of
	// floats/regions/bytes used by the parallel frame packer — one private
	// buffer set per concurrently packed span, pooled across iterations.
	spanFloats  [][]float64
	spanRegions [][]transport.FrameRegion
	spanBytes   [][]byte

	// offsets/applyErrs are the parallel unpacker's pooled scratch: serial
	// prefix-sum frame offsets, then one error slot per concurrently applied
	// region.
	offsets   []int
	applyErrs []error

	// om is the rank's metric handle set (nil when off). It lives on the
	// scratch because the scratch already threads through every
	// communication path of the step loop.
	om *spmdObs

	// tr is the rank's span recorder (nil when observability is off); like
	// om it rides the scratch so postSends/finishRecvs/redistribute see it.
	// tcbuf is the pooled wire context the frame packers point
	// AppendFrameCtx at, keeping the traced send path allocation-free.
	tr    *trace.Recorder
	tcbuf transport.TraceCtx
}

// frameCtx returns the wire trace context for the rank's current (epoch,
// iter) — SendNS is stamped later, at the actual send instant, via
// transport.StampTraceCtx — or nil when the run has no log to stitch. Not
// safe for concurrent calls; parallel packers call it once and share the
// result.
func (sc *commScratch) frameCtx() *transport.TraceCtx {
	if !sc.tr.Logged() {
		return nil
	}
	e, i := sc.tr.Pos()
	sc.tcbuf = transport.TraceCtx{Iter: i, Epoch: e}
	return &sc.tcbuf
}

// traceStamp patches the frame's SendNS to now and returns the stamp (0 when
// the frame carries no context). Must run before ep.Send: transports may
// copy the buffer.
func (sc *commScratch) traceStamp(frame []byte) int64 {
	if !sc.tr.Logged() {
		return 0
	}
	ns := sc.tr.Now()
	transport.StampTraceCtx(frame, ns)
	return ns
}

// spanScratch returns n pooled per-span buffer sets, growing the pools on
// demand (repartitions can change the peer count).
func (sc *commScratch) spanScratch(n int) {
	for len(sc.spanFloats) < n {
		sc.spanFloats = append(sc.spanFloats, nil)
		sc.spanRegions = append(sc.spanRegions, nil)
		sc.spanBytes = append(sc.spanBytes, nil)
	}
}

// chunkRange splits [0, n) into w contiguous chunks and returns chunk c's
// bounds. Contiguous chunks keep per-chunk output in global index order, so
// concatenating chunk results in chunk order reproduces the serial order.
func chunkRange(n, w, c int) (lo, hi int) {
	return n * c / w, n * (c + 1) / w
}

// indexCache keeps the two most recent uniform-grid indexes keyed by
// box-list content. Two slots cover the repartition access pattern — ghost
// plan over the old tiling, migration plan over old and new, ghost plan over
// the new — so the steady state never rebuilds an index it already holds.
type indexCache struct {
	keys [2]geom.BoxList
	idxs [2]*geom.Index
}

// get returns the cached index for boxes, building and caching one on miss.
func (c *indexCache) get(boxes geom.BoxList) *geom.Index {
	for s := 0; s < 2; s++ {
		if c.idxs[s] != nil && c.keys[s].Equal(boxes) {
			if s == 1 {
				c.keys[0], c.keys[1] = c.keys[1], c.keys[0]
				c.idxs[0], c.idxs[1] = c.idxs[1], c.idxs[0]
			}
			return c.idxs[0]
		}
	}
	idx := geom.NewIndex(boxes)
	c.keys[1], c.idxs[1] = c.keys[0], c.idxs[0]
	c.keys[0], c.idxs[0] = boxes, idx
	return idx
}

// planRegion is one region of patch data a plan moves: the cells region of
// source box srcIdx that land in destination box dstIdx, exchanged with rank
// peer (the receiver of a send, the sender of a receive, this rank itself on a
// migration's retained list). In a ghost plan both indexes are into the
// standing assignment; in a migration plan dstIdx indexes the next assignment
// and srcIdx the old one. On the local side an index is the patch's slot; on
// the wire the pair is the frame header that lets the receiver validate
// region order.
type planRegion struct {
	dstIdx, srcIdx int
	region         geom.Box
	peer           int
}

// sortRegions orders plan regions by (peer, dst, src). Keys are unique
// within a list, so the order is total — which is what lets sender and
// receiver, and the distributed and centralized builders, agree on wire order
// by construction.
func sortRegions(rs []planRegion) {
	slices.SortFunc(rs, func(a, b planRegion) int {
		return cmp.Or(a.peer-b.peer, a.dstIdx-b.dstIdx, a.srcIdx-b.srcIdx)
	})
}

// peerSpan is a contiguous run of plan regions sharing one peer rank: the
// whole run travels as a single framed message under tag.
type peerSpan struct {
	rank   int
	lo, hi int
	tag    string
}

// peerSpans appends the per-peer runs of a sorted region list to spans.
func peerSpans(spans []peerSpan, rs []planRegion, tag string) []peerSpan {
	for lo := 0; lo < len(rs); {
		hi := lo
		for hi < len(rs) && rs[hi].peer == rs[lo].peer {
			hi++
		}
		spans = append(spans, peerSpan{rank: rs[lo].peer, lo: lo, hi: hi, tag: tag})
		lo = hi
	}
	return spans
}

// localCopy is one same-rank halo copy: the cells of the owned patch in slot
// src that lie in the halo of the owned patch in slot dst.
type localCopy struct {
	dst, src int32
	region   geom.Box
}

// ghostPlan is one rank's precomputed per-iteration halo exchange for a
// fixed assignment: remote sends and receives (in sortRegions order),
// same-rank overlap copies, and the owned boxes classified as interior (halo
// fully local — can step while remote data is in flight) vs boundary (must
// wait for at least one receive). Everything a step needs is resolved here,
// once: patches are named by their box index — the slot of the run's patch
// slices — and every overlap region is already intersected, so the per-step
// path does no box lookup and no geometry.
//
// Every peer rank exchanges exactly ONE framed message per iteration under a
// fixed per-epoch tag: the transport inbox is FIFO per (from, tag), so a rank
// running ahead simply queues behind the receiver's earlier iteration.
type ghostPlan struct {
	sends     []planRegion
	recvs     []planRegion
	sendPeers []peerSpan
	recvPeers []peerSpan
	locals    []localCopy
	interior  []int
	boundary  []int
	sc        *commScratch
}

// haloGraph memoizes what a box list and ghost width alone decide about the
// halo exchange — per box, the boxes that meet its halo and the two regions
// each pair trades — so a repartition that keeps the tiling classifies cached
// edges by owner instead of redoing the geometry. edges[i] is nil until a
// plan first scans box i: memory follows the boxes the rank ever owned.
type haloGraph struct {
	boxes geom.BoxList
	ghost int
	edges [][]haloEdge // per box, ascending in j
}

// haloEdge is one neighbour j of a box i: in is grown(i)∩j, the cells of j
// that fill i's halo, out is grown(j)∩i, the cells of i that fill j's.
type haloEdge struct {
	j       int32
	in, out cellBounds
}

// cellBounds is a region's lower then upper bound as int32, the range frame
// headers carry: 52 bytes an edge, so a box's 26 edges stay below the field
// bytes of the smallest tile a partitioner leaves (4³).
type cellBounds [2 * geom.MaxDim]int32

func boundsOf(b geom.Box) (c cellBounds) {
	for d := 0; d < geom.MaxDim; d++ {
		c[d], c[geom.MaxDim+d] = int32(b.Lo[d]), int32(b.Hi[d])
	}
	return c
}

// box rebuilds the region; like is the box Intersect took rank and level from.
func (c *cellBounds) box(like geom.Box) geom.Box {
	b := geom.Box{Rank: like.Rank, Level: like.Level}
	for d := 0; d < geom.MaxDim; d++ {
		b.Lo[d], b.Hi[d] = int(c[d]), int(c[geom.MaxDim+d])
	}
	return b
}

// fill computes the edges of the boxes of mine the graph has not seen; fills
// of disjoint box sets may run concurrently. Growing by the ghost width is
// symmetric (grown(a) meets b iff grown(b) meets a): one query, both directions.
func (g *haloGraph) fill(idx *geom.Index, mine []int) {
	var qs geom.QueryScratch
	var hits []int
	for _, i := range mine {
		if g.edges[i] != nil {
			continue
		}
		bi := g.boxes[i]
		grown := bi.Grow(g.ghost)
		hits = idx.QueryWith(&qs, grown, hits)
		edges := make([]haloEdge, 0, len(hits)) // non-nil even when empty
		for _, j := range hits {
			if j != i {
				bj := g.boxes[j]
				edges = append(edges, haloEdge{int32(j), boundsOf(grown.Intersect(bj)), boundsOf(bj.Grow(g.ghost).Intersect(bi))})
			}
		}
		g.edges[i] = edges
	}
}

// buildGhostPlan derives rank me's exchange plan — and only rank me's —
// from the shared assignment, into the slices of sc.retired when install left
// one. prefix namespaces the tags by epoch, so messages from a rolled-back
// execution cannot collide with the replay. The plan visits only me's boxes
// (the view's mine list), so per-rank cost scales with the rank's own boxes
// and their neighbor count, not with the global box total, in two passes:
// geometry for the boxes the halo graph has not seen — index queries, spread
// over contiguous chunks of the mine list when workers > 1 — then one serial
// walk classifying every edge by owner. centralGhostPlans is the retained
// global-pass twin; both must stay bit-identical per rank.
func buildGhostPlan(v *asnView, me, ghost int, prefix string, sc *commScratch) *ghostPlan {
	a := v.Assignment
	pl := sc.retired
	if pl == nil {
		pl = &ghostPlan{}
	}
	sc.retired, pl.sc = nil, sc
	pl.sends, pl.recvs, pl.locals = pl.sends[:0], pl.recvs[:0], pl.locals[:0]
	pl.interior, pl.boundary = pl.interior[:0], pl.boundary[:0]
	g := &sc.halo
	if g.edges == nil || g.ghost != ghost || !g.boxes.Equal(a.Boxes) { // another tiling's edges
		*g = haloGraph{boxes: a.Boxes, ghost: ghost, edges: make([][]haloEdge, len(a.Boxes))}
	}
	idx := sc.indexes.get(a.Boxes)
	w := max(min(sc.workers, len(v.mine)), 1)
	parallel.For(w, w, func(c int) {
		lo, hi := chunkRange(len(v.mine), w, c)
		g.fill(idx, v.mine[lo:hi])
	})
	pl.scan(a, g, v.mine, me)
	pl.finish(prefix)
	return pl
}

// scan appends the exchange entries of rank me's boxes (mine, ascending) to
// pl and classifies each box as interior or boundary: an edge of the halo graph
// is a local copy, or a receive and its mirror-image send, by the neighbour's owner.
func (pl *ghostPlan) scan(a *partition.Assignment, g *haloGraph, mine []int, me int) {
	for _, i := range mine {
		bi := a.Boxes[i]
		remote := false
		for k, edges := 0, g.edges[i]; k < len(edges); k++ {
			e := &edges[k]
			j := int(e.j)
			oj := a.Owners[j]
			// Box j feeds my halo cells e.in: a local copy when I own it too
			// (the pair comes round again with the roles swapped) ...
			if oj == me {
				pl.locals = append(pl.locals, localCopy{dst: int32(i), src: e.j, region: e.in.box(bi)})
				continue
			}
			// ... a receive from its owner otherwise ...
			pl.recvs = append(pl.recvs, planRegion{dstIdx: i, srcIdx: j, region: e.in.box(bi), peer: oj})
			remote = true
			// ... and symmetrically I feed its halo from box i.
			pl.sends = append(pl.sends, planRegion{dstIdx: j, srcIdx: i, region: e.out.box(a.Boxes[j]), peer: oj})
		}
		if remote {
			pl.boundary = append(pl.boundary, i)
		} else {
			pl.interior = append(pl.interior, i)
		}
	}
}

// finish canonicalizes a ghost plan — sends and receives in sortRegions order,
// one span per peer for the coalesced frames — for both plan builders.
func (pl *ghostPlan) finish(prefix string) {
	sortRegions(pl.sends)
	sortRegions(pl.recvs)
	tag := prefix + "gx"
	pl.sendPeers = peerSpans(pl.sendPeers[:0], pl.sends, tag)
	pl.recvPeers = peerSpans(pl.recvPeers[:0], pl.recvs, tag)
}

// frameRegion builds the wire header for one packed region.
func frameRegion(dstIdx, srcIdx int, region geom.Box, count int) transport.FrameRegion {
	fr := transport.FrameRegion{Dst: uint32(dstIdx), Src: uint32(srcIdx), Count: uint32(count)}
	for d := 0; d < geom.MaxDim; d++ {
		fr.Lo[d] = int32(region.Lo[d])
		fr.Hi[d] = int32(region.Hi[d])
	}
	return fr
}

// checkFrameRegion validates a received frame header against the entry the
// local plan expects at that position, so a sender/receiver plan desync
// fails loudly instead of applying data to the wrong cells.
func checkFrameRegion(fr transport.FrameRegion, dstIdx, srcIdx int, region geom.Box) error {
	if int(fr.Dst) != dstIdx || int(fr.Src) != srcIdx {
		return fmt.Errorf("engine: frame region (box %d <- %d) does not match plan (box %d <- %d)",
			fr.Dst, fr.Src, dstIdx, srcIdx)
	}
	for d := 0; d < geom.MaxDim; d++ {
		if int(fr.Lo[d]) != region.Lo[d] || int(fr.Hi[d]) != region.Hi[d] {
			return fmt.Errorf("engine: frame region (box %d <- %d) bounds %v..%v do not match plan %v",
				fr.Dst, fr.Src, fr.Lo, fr.Hi, region)
		}
	}
	return nil
}

// postSends runs the non-blocking half of the halo exchange over the rank's
// patch slots (cur, indexed by box index): outflow fallback over every owned
// halo, remote region sends, and same-rank copies. After it returns, every
// interior-class patch has a complete halo; boundary patches still await
// finishRecvs. All regions bound for one peer leave as a single framed
// message.
func (pl *ghostPlan) postSends(ep transport.Endpoint, cur []*amr.Patch, res *SPMDResult) error {
	for _, i := range pl.interior {
		solver.ApplyOutflowBC(cur[i])
	}
	for _, i := range pl.boundary {
		solver.ApplyOutflowBC(cur[i])
	}
	sc := pl.sc
	spans := pl.sendPeers
	parallelPack := sc.workers > 1 && len(spans) > 1
	if parallelPack {
		// Pack every peer's frame concurrently into pooled per-span buffers,
		// then send serially in span order — identical bytes and identical
		// wire order to the serial packer.
		sc.spanScratch(len(spans))
		tc := sc.frameCtx()
		parallel.For(sc.workers, len(spans), func(si int) {
			sc.spanFloats[si], sc.spanRegions[si], sc.spanBytes[si] = sc.packSpan(
				pl.sends[spans[si].lo:spans[si].hi], cur, sc.spanFloats[si], sc.spanRegions[si], sc.spanBytes[si], tc)
		})
	}
	for si, span := range spans {
		if !parallelPack {
			sc.floats, sc.regions, sc.bytes = sc.packSpan(pl.sends[span.lo:span.hi], cur, sc.floats, sc.regions, sc.bytes, sc.frameCtx())
		}
		frame := sc.bytes
		if parallelPack {
			frame = sc.spanBytes[si]
		}
		if err := sc.sendFrame(ep, span.rank, span.tag, frame, trace.KindHalo, res); err != nil {
			return err
		}
	}
	for i := range pl.locals {
		l := &pl.locals[i]
		amr.CopyRegion(cur[l.dst], cur[l.src], l.region)
	}
	return nil
}

// packSpan packs one peer's run of send regions, read from the patch slots
// src, into a frame, reusing the given buffers (truncated first) and
// returning them grown.
func (sc *commScratch) packSpan(sends []planRegion, src []*amr.Patch, fl []float64, rg []transport.FrameRegion, frame []byte, tc *transport.TraceCtx) ([]float64, []transport.FrameRegion, []byte) {
	sp := sc.tr.Span(trace.PhasePack)
	fl, rg = fl[:0], rg[:0]
	for i := range sends {
		s := &sends[i]
		n0 := len(fl)
		fl = src[s.srcIdx].AppendRegion(fl, s.region)
		rg = append(rg, frameRegion(s.dstIdx, s.srcIdx, s.region, len(fl)-n0))
	}
	frame = transport.AppendFrameCtx(frame[:0], rg, fl, tc)
	sp.End()
	return fl, rg, frame
}

// sendFrame stamps a packed frame with the send instant, ships it to peer
// and charges it to the rank's data-plane counters and trace.
func (sc *commScratch) sendFrame(ep transport.Endpoint, peer int, tag string, frame []byte, kind string, res *SPMDResult) error {
	ns := sc.traceStamp(frame)
	if err := ep.Send(peer, tag, frame); err != nil {
		return err
	}
	res.BytesSent += int64(len(frame))
	res.MsgsSent++
	sc.om.peerSent(peer, len(frame))
	sc.tr.Send(peer, kind, len(frame), ns)
	return nil
}

// recvFrame blocks for peer's frame under tag, decodes it into the pooled
// receive buffers (sc.rregions/sc.rfloats) and closes the wait span — on the
// error paths too — gated on the sender's stamp when the frame carried a
// trace context.
func (sc *commScratch) recvFrame(ep transport.Endpoint, peer int, tag string, waitPhase trace.Phase, kind string, res *SPMDResult) error {
	wait := sc.tr.WaitSpan(waitPhase, peer)
	var tc transport.TraceCtx
	var traced bool
	payload, err := ep.Recv(peer, tag)
	if err == nil {
		res.msgsRecvd++
		sc.rregions, sc.rfloats, tc, traced, err = transport.DecodeFrameCtx(payload, sc.rregions, sc.rfloats)
	}
	if err != nil {
		wait.End()
		return err
	}
	if !traced {
		// No context on the frame: file the arrival at our own position. The
		// zero stamp leaves the wait ungated.
		tc.Epoch, tc.Iter = sc.tr.Pos()
	}
	sc.tr.Recv(peer, kind, len(payload), tc.Epoch, tc.Iter, tc.SendNS)
	wait.EndGated(tc.SendNS)
	return nil
}

// recvSpan receives one peer's frame and applies it to the patch slots dst;
// recvs is the plan's run of regions for that peer. The unpack span closes
// whether or not the frame was accepted.
func (sc *commScratch) recvSpan(ep transport.Endpoint, span peerSpan, recvs []planRegion, dst []*amr.Patch, waitPhase trace.Phase, kind string, res *SPMDResult) error {
	if err := sc.recvFrame(ep, span.rank, span.tag, waitPhase, kind, res); err != nil {
		return err
	}
	usp := sc.tr.Span(trace.PhaseUnpack)
	err := sc.unpackFrame(span.rank, recvs, dst)
	usp.End()
	return err
}

// unpackFrame validates the frame just received from peer (in
// sc.rregions/sc.rfloats) region by region against the plan and applies it.
func (sc *commScratch) unpackFrame(peer int, recvs []planRegion, dst []*amr.Patch) error {
	n := len(recvs)
	if len(sc.rregions) != n {
		return fmt.Errorf("engine: rank %d sent a frame of %d regions, plan expects %d", peer, len(sc.rregions), n)
	}
	// Validate every header against the plan, applying each region as it
	// passes — or, with workers, only prefix-summing the frame offsets and
	// applying concurrently afterwards: regions of one frame cover
	// pairwise-disjoint cells (distinct source boxes are disjoint), so the
	// writes never touch the same cell. Errors surface in index order.
	par := sc.workers > 1 && n > 1
	if par && cap(sc.offsets) < n {
		sc.offsets = make([]int, n)
		sc.applyErrs = make([]error, n)
	}
	off := 0
	for i := range recvs {
		r, fr := &recvs[i], sc.rregions[i]
		if err := checkFrameRegion(fr, r.dstIdx, r.srcIdx, r.region); err != nil {
			return err
		}
		if par {
			sc.offsets[i] = off
		} else if err := apply(dst[r.dstIdx], r.region, sc.rfloats[off:off+int(fr.Count)]); err != nil {
			return err
		}
		off += int(fr.Count)
	}
	if par {
		offs, errs := sc.offsets[:n], sc.applyErrs[:n]
		parallel.For(sc.workers, n, func(i int) {
			r := &recvs[i]
			errs[i] = apply(dst[r.dstIdx], r.region, sc.rfloats[offs[i]:offs[i]+int(sc.rregions[i].Count)])
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// finishRecvs blocks until every remote halo region has arrived and applies
// them to the rank's patch slots; boundary patches are complete afterwards.
// Regions from distinct sources are disjoint, so apply order cannot affect
// the result.
func (pl *ghostPlan) finishRecvs(ep transport.Endpoint, cur []*amr.Patch, res *SPMDResult) error {
	for _, span := range pl.recvPeers {
		if err := pl.sc.recvSpan(ep, span, pl.recvs[span.lo:span.hi], cur, trace.PhaseHaloWait, trace.KindHalo, res); err != nil {
			return err
		}
	}
	return nil
}

// migPlan is one rank's precomputed redistribution: the regions it ships
// out, the regions it awaits, and the regions a repartition let it keep in
// place, each in sortRegions order.
type migPlan struct {
	sends    []planRegion
	recvs    []planRegion
	retained []planRegion
}

// finish canonicalizes the plan order (see migPlan).
func (mp *migPlan) finish() {
	sortRegions(mp.sends)
	sortRegions(mp.recvs)
	sortRegions(mp.retained)
}

// buildMigPlan derives rank me's migration plan — and only rank me's — for
// an old→next repartition, into the slices of the scratch's previous one: the
// owner diff when the repartition kept the box list, otherwise by probing the
// view's own boxes through the cached indexes, so per-rank cost scales with
// the rank's own boxes, not the global totals. Both indexes are fetched up
// front (the two-slot cache holds them together) and only read afterwards;
// with workers > 1 contiguous chunks of the two mine lists are scanned
// concurrently into private plans, and finish()'s canonical sort over unique
// keys makes the plan independent of append order. centralMigPlans is the
// retained global-pass twin; both must stay bit-identical per rank.
func buildMigPlan(old, next *asnView, me int, sc *commScratch) migPlan {
	mp := migPlan{sends: sc.mig.sends[:0], recvs: sc.mig.recvs[:0], retained: sc.mig.retained[:0]}
	if old.Boxes.Equal(next.Boxes) {
		mp.diff(old, next, me)
	} else {
		oldIdx := sc.indexes.get(old.Boxes)
		nextIdx := sc.indexes.get(next.Boxes)
		if w := sc.workers; w > 1 && len(next.mine)+len(old.mine) > 1 {
			parts := make([]migPlan, w)
			parallel.For(w, w, func(c int) {
				nlo, nhi := chunkRange(len(next.mine), w, c)
				olo, ohi := chunkRange(len(old.mine), w, c)
				parts[c].scan(old, next, oldIdx, nextIdx, next.mine[nlo:nhi], old.mine[olo:ohi], me)
			})
			for _, p := range parts {
				mp.sends = append(mp.sends, p.sends...)
				mp.recvs = append(mp.recvs, p.recvs...)
				mp.retained = append(mp.retained, p.retained...)
			}
		} else {
			mp.scan(old, next, oldIdx, nextIdx, next.mine, old.mine, me)
		}
	}
	mp.finish()
	sc.mig = mp
	return mp
}

// diff is scan for a repartition that kept the box list: an assignment's
// boxes are non-empty and pairwise disjoint, so each overlaps exactly itself
// and the regions are the boxes whose owner is or was me.
func (mp *migPlan) diff(old, next *asnView, me int) {
	for _, i := range next.mine {
		m := planRegion{dstIdx: i, srcIdx: i, region: next.Boxes[i].Intersect(old.Boxes[i]), peer: old.Owners[i]}
		if m.peer == me {
			mp.retained = append(mp.retained, m)
		} else {
			mp.recvs = append(mp.recvs, m)
		}
	}
	for _, j := range old.mine {
		if to := next.Owners[j]; to != me {
			mp.sends = append(mp.sends, planRegion{dstIdx: j, srcIdx: j, region: next.Boxes[j].Intersect(old.Boxes[j]), peer: to})
		}
	}
}

// scan appends one chunk's regions to mp in two passes: my new boxes
// (nextMine) probed against the old tiling classify inbound regions (kept in
// place when I already owned the data, received otherwise), and my old boxes
// (oldMine) probed against the new tiling find outbound regions.
func (mp *migPlan) scan(old, next *asnView, oldIdx, nextIdx *geom.Index, nextMine, oldMine []int, me int) {
	var qs geom.QueryScratch
	var hits []int
	for _, i := range nextMine {
		nb := next.Boxes[i]
		hits = oldIdx.QueryWith(&qs, nb, hits)
		for _, j := range hits {
			m := planRegion{dstIdx: i, srcIdx: j, region: nb.Intersect(old.Boxes[j]), peer: old.Owners[j]}
			if m.peer == me {
				mp.retained = append(mp.retained, m)
			} else {
				mp.recvs = append(mp.recvs, m)
			}
		}
	}
	for _, j := range oldMine {
		ob := old.Boxes[j]
		hits = nextIdx.QueryWith(&qs, ob, hits)
		for _, i := range hits {
			if next.Owners[i] == me {
				continue // kept or stitched locally by the first pass
			}
			mp.sends = append(mp.sends, planRegion{dstIdx: i, srcIdx: j, region: next.Boxes[i].Intersect(ob), peer: next.Owners[i]})
		}
	}
}

// redistribute moves patch interiors to their new owners after a
// repartition and returns the rank's patch slots under the next assignment
// (patches is indexed by old box index, the result by next box index).
// New-assignment boxes may be split differently than the old ones, so
// transfers cover every overlapping (old, new) pair. A box whose geometry and
// owner both survive keeps its patch untouched (its halo is stale, but every
// halo cell is rewritten by the next exchange before use, the same argument
// that lets stepPatch reuse spares). All regions bound for one peer travel as
// a single framed message. patches is consumed: slots moved to the result are
// cleared, every other patch retires to the free list once copied or shipped.
func redistribute(ep transport.Endpoint, old, next *asnView, patches []*amr.Patch, k solver.Kernel, iter int, res *SPMDResult, prefix string, sc *commScratch) ([]*amr.Patch, error) {
	me := ep.Rank()
	psp := sc.tr.Span(trace.PhasePlan)
	mp := buildMigPlan(old, next, me, sc)
	psp.End()
	// migrate spans the local copies; each peer's share of the move is its
	// own pack, mig-wait and unpack span.
	lsp := sc.tr.Span(trace.PhaseMigrate)
	out := make([]*amr.Patch, len(next.Boxes))
	bytesPerCell := int64(k.NumFields()) * 8
	for _, m := range mp.retained {
		res.RetainedBytes += m.region.Cells() * bytesPerCell
		nb := next.Boxes[m.dstIdx]
		if nb.Equal(old.Boxes[m.srcIdx]) {
			// Geometry and owner both survived: old boxes are disjoint, so
			// nothing else overlaps this box and the patch moves wholesale.
			out[m.dstIdx], patches[m.srcIdx] = patches[m.srcIdx], nil
			continue
		}
		if out[m.dstIdx] == nil {
			out[m.dstIdx] = sc.newPatch(nb, k.Ghost(), k.NumFields())
		}
		amr.CopyRegion(out[m.dstIdx], patches[m.srcIdx], m.region)
	}
	for _, m := range mp.recvs {
		if out[m.dstIdx] == nil {
			out[m.dstIdx] = sc.newPatch(next.Boxes[m.dstIdx], k.Ghost(), k.NumFields())
		}
	}
	lsp.End()
	tag := fmt.Sprintf("%srx%d", prefix, iter)
	for _, span := range peerSpans(nil, mp.sends, tag) {
		sends := mp.sends[span.lo:span.hi]
		for _, m := range sends {
			res.MigratedBytes += m.region.Cells() * bytesPerCell
		}
		sc.floats, sc.regions, sc.bytes = sc.packSpan(sends, patches, sc.floats, sc.regions, sc.bytes, sc.frameCtx())
		if err := sc.sendFrame(ep, span.rank, tag, sc.bytes, trace.KindMig, res); err != nil {
			return nil, err
		}
	}
	for _, j := range old.mine {
		sc.retire(patches[j])
	}
	for _, span := range peerSpans(nil, mp.recvs, tag) {
		if err := sc.recvSpan(ep, span, mp.recvs[span.lo:span.hi], out, trace.PhaseMigWait, trace.KindMig, res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// retire puts p's buffer on the free list (nil and overflow are dropped).
func (sc *commScratch) retire(p *amr.Patch) {
	if p != nil && len(sc.free) < sc.freeCap {
		sc.free = append(sc.free, p)
	}
}

// recycled returns the newest free-list buffer re-homed on box, or nil. Its
// cells are stale: the caller overwrites the interior, the next exchange every
// halo cell. A buffer of another shape is dropped, not put back, so a tiling
// that changed shape drains the list instead of being blocked by it.
func (sc *commScratch) recycled(box geom.Box, ghost, fields int) *amr.Patch {
	if n := len(sc.free) - 1; n >= 0 {
		p := sc.free[n]
		sc.free[n], sc.free = nil, sc.free[:n]
		if p.Reuse(box, ghost, fields) {
			return p
		}
	}
	return nil
}

// newPatch returns a patch for an arriving box, whose interior the migration
// regions cover completely: recycled when possible, fresh otherwise.
func (sc *commScratch) newPatch(box geom.Box, ghost, fields int) *amr.Patch {
	if p := sc.recycled(box, ghost, fields); p != nil {
		return p
	}
	return amr.NewPatch(box, ghost, fields)
}
