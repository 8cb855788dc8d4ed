package engine

import (
	"strconv"

	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/runlog"
)

// engineObs holds the control loop's pre-registered metric handles. The
// zero value (nil handles, nil runtime) discards everything, so the loop
// is instrumented unconditionally and pays only nil checks when
// observability is off.
type engineObs struct {
	rt                  *obs.Runtime
	tr                  *trace.Recorder // rank -1, epoch 0: the control loop's spans
	iter                *obs.Gauge
	imbalance           *obs.Gauge
	repartitions        *obs.Counter
	repartitionsSkipped *obs.Counter
	senses              *obs.Counter
	senseFailures       *obs.Counter
	movedBytes          *obs.Counter
	retainedBytes       *obs.Counter
	fallbacks           [4]*obs.Counter // indexed by fallbackPath
	capacity            []*obs.Gauge
	crashes             *obs.Counter
	rejoins             *obs.Counter
	demotions           *obs.Counter
	promotions          *obs.Counter
	stragglerState      []*obs.Gauge
}

// fallbackPath indexes engineObs.fallbacks; values mirror the
// runlog.DegradedCounters fields.
type fallbackPath int

const (
	fbHetero fallbackPath = iota
	fbComposite
	fbKeptLastGood
	fbInvalidRejected
)

var fallbackNames = [4]string{"hetero", "composite", "kept-last-good", "invalid-rejected"}

// newEngineObs registers the engine's metric families (no-op handles on
// the nil runtime).
func newEngineObs(rt *obs.Runtime, nodes int) engineObs {
	reg := rt.Registry()
	ob := engineObs{
		rt:        rt,
		tr:        rt.Recorder(-1),
		iter:      reg.Gauge("samr_engine_iter", "Current coarse iteration."),
		imbalance: reg.Gauge("samr_engine_imbalance_pct", "Max imbalance of the adopted assignment (percent)."),
		repartitions: reg.Counter("samr_engine_repartitions_total",
			"Assignments adopted."),
		repartitionsSkipped: reg.Counter("samr_engine_repartitions_skipped_total",
			"Sense-triggered repartitions skipped by hysteresis."),
		senses: reg.Counter("samr_engine_senses_total", "Sensing sweeps."),
		senseFailures: reg.Counter("samr_engine_sense_failures_total",
			"Sweeps whose capacities could not be computed."),
		movedBytes: reg.Counter("samr_engine_moved_bytes_total",
			"Bytes redistributed across repartitions."),
		retainedBytes: reg.Counter("samr_engine_retained_bytes_total",
			"Bytes that kept their owner across repartitions."),
		capacity: make([]*obs.Gauge, nodes),
		crashes: reg.Counter("samr_engine_crashes_total",
			"Injected node crashes (membership losses)."),
		rejoins: reg.Counter("samr_engine_rejoins_total",
			"Crashed nodes re-admitted at a repartition boundary."),
		demotions: reg.Counter("samr_engine_straggler_demotions_total",
			"Straggler detector demotions (normal→shed→quarantined)."),
		promotions: reg.Counter("samr_engine_straggler_promotions_total",
			"Straggler detector promotions back toward normal."),
		stragglerState: make([]*obs.Gauge, nodes),
	}
	for p, name := range fallbackNames {
		ob.fallbacks[p] = reg.Counter("samr_engine_fallback_total",
			"Partitioner degradation events by path.",
			obs.Label{Key: "path", Value: name})
	}
	for k := range ob.capacity {
		ob.capacity[k] = reg.Gauge("samr_engine_capacity",
			"Relative capacity in effect per node.",
			obs.Label{Key: "node", Value: strconv.Itoa(k)})
	}
	for k := range ob.stragglerState {
		ob.stragglerState[k] = reg.Gauge("samr_engine_straggler_state",
			"Straggler state per node (0 normal, 1 shed, 2 quarantined).",
			obs.Label{Key: "node", Value: strconv.Itoa(k)})
	}
	return ob
}

// setCaps mirrors the freshly sensed capacities into the per-node gauges.
func (ob *engineObs) setCaps(caps []float64) {
	if ob.rt == nil {
		return
	}
	for k, g := range ob.capacity {
		if k < len(caps) {
			g.Set(caps[k])
		}
	}
}

// engineState is the /state snapshot of the control loop, published by the
// engine at sense and adopt points and read concurrently by the HTTP
// endpoint. Field names are part of the endpoint's schema.
type engineState struct {
	Name                string                  `json:"name"`
	Iter                int                     `json:"iter"`
	VirtualTime         float64                 `json:"virtual_time_s"`
	Capacities          []float64               `json:"capacities"`
	Health              []string                `json:"health"`
	ImbalancePct        float64                 `json:"imbalance_pct"`
	Boxes               int                     `json:"boxes"`
	Work                []float64               `json:"work"`
	Owners              []int                   `json:"owners,omitempty"`
	Repartitions        int                     `json:"repartitions"`
	RepartitionsSkipped int                     `json:"repartitions_skipped"`
	Senses              int                     `json:"senses"`
	SenseFailures       int                     `json:"sense_failures"`
	Degraded            runlog.DegradedCounters `json:"degraded"`
}

// publish refreshes the snapshot behind Snapshot. Only called when the
// runtime is live, from the engine's own goroutine.
func (e *Engine) publish(iter int) {
	if e.ob.rt == nil {
		return
	}
	st := engineState{
		Name:                e.tr.Name,
		Iter:                iter,
		VirtualTime:         e.clus.Now(),
		Capacities:          append([]float64(nil), e.caps...),
		Repartitions:        e.tr.Repartitions,
		RepartitionsSkipped: e.tr.RepartitionsSkipped,
		Senses:              e.tr.Senses,
		SenseFailures:       e.tr.SenseFailures,
		Degraded:            e.tr.Degraded,
	}
	st.Health = make([]string, e.mon.NumNodes())
	for k := range st.Health {
		st.Health[k] = e.mon.Health(k).String()
	}
	if e.assign != nil {
		st.ImbalancePct = e.assign.MaxImbalance()
		st.Boxes = len(e.assign.Boxes)
		st.Work = append([]float64(nil), e.assign.Work...)
		st.Owners = append([]int(nil), e.assign.Owners...)
	}
	e.pubMu.Lock()
	e.pub = st
	e.pubMu.Unlock()
}

// Snapshot returns the last published control-loop state. Safe for
// concurrent use; wire it to the /state endpoint with
// rt.SetState("engine", e.Snapshot).
func (e *Engine) Snapshot() any {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return e.pub
}
