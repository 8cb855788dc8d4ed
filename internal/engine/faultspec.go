package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// faultCrashLoad is the external CPU load applied to a virtual node to
// "crash" it: just below saturation so the capacity metric stays finite but
// the node's share of new work collapses.
const faultCrashLoad = 0.99

// FaultKind enumerates the injectable fault classes of the -fault-spec
// grammar. Crash and rejoin are membership events; pause and slow are gray
// failures — the rank stays a member but degrades.
type FaultKind int

const (
	// FaultCrash kills the rank/node at the event iteration.
	FaultCrash FaultKind = iota
	// FaultRejoin restarts a previously crashed rank/node at the event
	// iteration: the virtual cluster lifts the crash load, the SPMD harness
	// relaunches the rank, which announces itself and is re-admitted.
	FaultRejoin
	// FaultPause partitions the rank away for the window [Iter, Until): it
	// keeps computing but its outgoing messages vanish (SPMD) or its node
	// saturates (virtual cluster).
	FaultPause
	// FaultSlow makes the rank a straggler over [Iter, Until): compute is
	// dilated by Factor (SPMD per-cell delay; virtual-cluster CPU load).
	FaultSlow
)

// String names the kind exactly as the grammar spells it.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRejoin:
		return "rejoin"
	case FaultPause:
		return "pause"
	default:
		return "slow"
	}
}

// FaultEvent is one scheduled injection.
type FaultEvent struct {
	Kind FaultKind
	// Rank is the target rank (SPMD) or virtual node.
	Rank int
	// Iter is the iteration the event fires (window start for pause/slow).
	Iter int
	// Until is the exclusive window end for pause/slow (unused otherwise).
	Until int
	// Factor is the slowdown multiplier for slow events (e.g. 4 = the rank
	// computes at quarter speed).
	Factor float64
}

// FaultSchedule is an ordered set of injections — one run's churn script.
type FaultSchedule []FaultEvent

// validate checks internal consistency against a group of n ranks.
func (fs FaultSchedule) validate(n int) error {
	crashed := make(map[int]int) // rank → latest crash iter
	for _, ev := range fs {
		if ev.Rank < 0 || ev.Rank >= n {
			return fmt.Errorf("engine: fault %s: rank %d outside [0,%d)", ev.Kind, ev.Rank, n)
		}
		if ev.Iter < 0 {
			return fmt.Errorf("engine: fault %s: negative iteration %d", ev.Kind, ev.Iter)
		}
		switch ev.Kind {
		case FaultCrash:
			crashed[ev.Rank] = ev.Iter
		case FaultRejoin:
			at, ok := crashed[ev.Rank]
			if !ok {
				return fmt.Errorf("engine: rejoin:rank=%d,iter=%d without a preceding crash", ev.Rank, ev.Iter)
			}
			if ev.Iter <= at {
				return fmt.Errorf("engine: rejoin:rank=%d,iter=%d not after its crash at iter %d", ev.Rank, ev.Iter, at)
			}
			delete(crashed, ev.Rank)
		case FaultPause, FaultSlow:
			if ev.Until <= ev.Iter {
				return fmt.Errorf("engine: fault %s: window [%d,%d) is empty", ev.Kind, ev.Iter, ev.Until)
			}
			if ev.Kind == FaultSlow && ev.Factor <= 1 {
				return fmt.Errorf("engine: fault slow: factor %g must exceed 1", ev.Factor)
			}
		}
	}
	return nil
}

// Crashes returns the schedule's crash events (the fail-stop subset).
func (fs FaultSchedule) Crashes() []FaultEvent {
	var out []FaultEvent
	for _, ev := range fs {
		if ev.Kind == FaultCrash {
			out = append(out, ev)
		}
	}
	return out
}

// WithoutRejoins strips rejoin events — the fail-stop baseline of the same
// churn script, for A/B comparisons.
func (fs FaultSchedule) WithoutRejoins() FaultSchedule {
	var out FaultSchedule
	for _, ev := range fs {
		if ev.Kind != FaultRejoin {
			out = append(out, ev)
		}
	}
	return out
}

// ParseFaultSpec parses the CLI fault-injection syntax shared by cmd/amrun
// and cmd/experiments: one or more ';'-separated events,
//
//	crash:rank=2,iter=10
//	rejoin:rank=2,iter=18
//	pause:rank=3,iter=5,iters=2
//	slow:rank=1,from=12,to=20,factor=4
//
// "rank" and "node" are synonyms — the SPMD runner targets a transport
// rank, the virtual-cluster engine a simulated node. A pause window defaults
// to one iteration; a slow window's factor defaults to 4. The full grammar
// is documented in DESIGN.md §13.
func ParseFaultSpec(s string) (FaultSchedule, error) {
	var out FaultSchedule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseFaultEvent(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("engine: fault spec %q holds no events", s)
	}
	return out, nil
}

// parseFaultEvent parses a single kind:k=v,... clause.
func parseFaultEvent(s string) (FaultEvent, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return FaultEvent{}, fmt.Errorf("engine: fault spec %q: want kind:rank=N,iter=K", s)
	}
	ev := FaultEvent{Rank: -1, Iter: -1, Until: -1}
	switch kind {
	case "crash":
		ev.Kind = FaultCrash
	case "rejoin":
		ev.Kind = FaultRejoin
	case "pause":
		ev.Kind = FaultPause
	case "slow":
		ev.Kind = FaultSlow
	default:
		return FaultEvent{}, fmt.Errorf("engine: fault spec %q: unknown kind %q (want crash|rejoin|pause|slow)", s, kind)
	}
	iters := -1
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return FaultEvent{}, fmt.Errorf("engine: fault spec %q: bad field %q", s, kv)
		}
		if key == "factor" {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 1 {
				return FaultEvent{}, fmt.Errorf("engine: fault spec %q: factor %q must be a number > 1", s, val)
			}
			if ev.Kind != FaultSlow {
				return FaultEvent{}, fmt.Errorf("engine: fault spec %q: factor only applies to slow", s)
			}
			ev.Factor = f
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return FaultEvent{}, fmt.Errorf("engine: fault spec %q: field %q needs a non-negative integer", s, kv)
		}
		switch key {
		case "rank", "node":
			ev.Rank = n
		case "iter", "from":
			ev.Iter = n
		case "to":
			ev.Until = n
		case "iters":
			iters = n
		default:
			return FaultEvent{}, fmt.Errorf("engine: fault spec %q: unknown field %q", s, key)
		}
	}
	if ev.Rank < 0 || ev.Iter < 0 {
		return FaultEvent{}, fmt.Errorf("engine: fault spec %q: both rank (or node) and iter (or from) are required", s)
	}
	switch ev.Kind {
	case FaultPause, FaultSlow:
		if iters >= 0 && ev.Until >= 0 {
			return FaultEvent{}, fmt.Errorf("engine: fault spec %q: give either to= or iters=, not both", s)
		}
		if iters >= 0 {
			ev.Until = ev.Iter + iters
		}
		if ev.Until < 0 {
			ev.Until = ev.Iter + 1
		}
		if ev.Until <= ev.Iter {
			return FaultEvent{}, fmt.Errorf("engine: fault spec %q: window [%d,%d) is empty", s, ev.Iter, ev.Until)
		}
		if ev.Kind == FaultSlow && ev.Factor == 0 {
			ev.Factor = 4
		}
	default:
		if ev.Until >= 0 || iters >= 0 {
			return FaultEvent{}, fmt.Errorf("engine: fault spec %q: %s takes no window", s, ev.Kind)
		}
		ev.Until = 0
	}
	return ev, nil
}
