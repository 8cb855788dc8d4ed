package engine

import (
	"strconv"

	"samrpart/internal/obs"
)

// spmdObs holds one rank's pre-registered SPMD metric handles. It hangs off
// the rank's commScratch so the communication paths (postSends,
// finishRecvs, redistribute) see it without signature changes. The nil
// *spmdObs disables everything: every method no-ops, and the run is
// bit-identical to an uninstrumented one.
type spmdObs struct {
	reg  *obs.Registry
	rank int

	bytesSent     *obs.Counter
	msgsSent      *obs.Counter
	msgsRecvd     *obs.Counter
	migratedBytes *obs.Counter
	retainedBytes *obs.Counter
	interiorSteps *obs.Counter
	boundarySteps *obs.Counter
	admissions    *obs.Counter
	demotions     *obs.Counter
	promotions    *obs.Counter
	ckptFallbacks *obs.Counter

	// lastSync snapshots the SPMDResult counters at the previous sync so
	// the registry mirrors them by cheap deltas once per iteration instead
	// of hooking every increment site.
	lastSync SPMDResult

	// peerBytes/peerMsgs cache the per-peer send counters; resolution is a
	// map hit per message (at most one message per peer per iteration),
	// registration only on first contact with a peer.
	peerBytes map[int]*obs.Counter
	peerMsgs  map[int]*obs.Counter
}

// newSPMDObs registers rank's SPMD metric families (nil runtime → nil,
// everything off).
func newSPMDObs(rt *obs.Runtime, rank int) *spmdObs {
	if rt == nil {
		return nil
	}
	reg := rt.Registry()
	rl := obs.Label{Key: "rank", Value: strconv.Itoa(rank)}
	return &spmdObs{
		reg:  reg,
		rank: rank,
		bytesSent: reg.Counter("samr_spmd_bytes_sent_total",
			"Transport payload bytes sent.", rl),
		msgsSent: reg.Counter("samr_spmd_msgs_sent_total",
			"Point-to-point data-plane messages sent.", rl),
		msgsRecvd: reg.Counter("samr_spmd_msgs_recvd_total",
			"Point-to-point data-plane messages received.", rl),
		migratedBytes: reg.Counter("samr_spmd_migrated_bytes_total",
			"Patch payload bytes shipped to other ranks during redistributions.", rl),
		retainedBytes: reg.Counter("samr_spmd_retained_bytes_total",
			"Patch payload bytes repartitions let this rank keep in place.", rl),
		interiorSteps: reg.Counter("samr_spmd_interior_steps_total",
			"Patch steps taken while remote halos were in flight.", rl),
		boundarySteps: reg.Counter("samr_spmd_boundary_steps_total",
			"Patch steps that waited on remote halo regions.", rl),
		admissions: reg.Counter("samr_spmd_admissions_total",
			"Dead ranks re-admitted through the rejoin protocol.", rl),
		demotions: reg.Counter("samr_spmd_straggler_demotions_total",
			"Straggler detector demotions observed by this rank's replica.", rl),
		promotions: reg.Counter("samr_spmd_straggler_promotions_total",
			"Straggler detector promotions observed by this rank's replica.", rl),
		ckptFallbacks: reg.Counter("samr_spmd_ckpt_fallbacks_total",
			"Corrupt checkpoint epochs skipped during restores.", rl),
		peerBytes: map[int]*obs.Counter{},
		peerMsgs:  map[int]*obs.Counter{},
	}
}

// peerSent charges one outgoing message to the per-peer counters.
func (om *spmdObs) peerSent(peer int, bytes int) {
	if om == nil {
		return
	}
	cb := om.peerBytes[peer]
	if cb == nil {
		ls := []obs.Label{
			{Key: "rank", Value: strconv.Itoa(om.rank)},
			{Key: "peer", Value: strconv.Itoa(peer)},
		}
		cb = om.reg.Counter("samr_spmd_peer_bytes_total",
			"Transport payload bytes sent per peer rank.", ls...)
		om.peerBytes[peer] = cb
		om.peerMsgs[peer] = om.reg.Counter("samr_spmd_peer_msgs_total",
			"Data-plane messages sent per peer rank.", ls...)
	}
	cb.Add(int64(bytes))
	om.peerMsgs[peer].Inc()
}

// sync mirrors the SPMDResult counters accumulated since the last sync
// into the registry (called once per iteration and at finalize).
func (om *spmdObs) sync(res *SPMDResult) {
	if om == nil {
		return
	}
	om.bytesSent.Add(res.BytesSent - om.lastSync.BytesSent)
	om.msgsSent.Add(res.MsgsSent - om.lastSync.MsgsSent)
	om.msgsRecvd.Add(res.msgsRecvd - om.lastSync.msgsRecvd)
	om.migratedBytes.Add(res.MigratedBytes - om.lastSync.MigratedBytes)
	om.retainedBytes.Add(res.RetainedBytes - om.lastSync.RetainedBytes)
	om.interiorSteps.Add(res.InteriorSteps - om.lastSync.InteriorSteps)
	om.boundarySteps.Add(res.BoundarySteps - om.lastSync.BoundarySteps)
	om.admissions.Add(int64(res.Admissions - om.lastSync.Admissions))
	om.demotions.Add(int64(res.StragglerDemotions - om.lastSync.StragglerDemotions))
	om.promotions.Add(int64(res.StragglerPromotions - om.lastSync.StragglerPromotions))
	om.ckptFallbacks.Add(int64(res.CkptFallbacks - om.lastSync.CkptFallbacks))
	om.lastSync = *res
}
