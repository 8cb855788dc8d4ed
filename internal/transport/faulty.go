package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultSpec configures deterministic fault injection for a Faulty endpoint.
// All randomness is drawn from a PRNG seeded with Seed, so a single-threaded
// caller (one SPMD rank) observes an identical fault sequence on every run.
type FaultSpec struct {
	// Seed initializes the injection PRNG (same seed → same decisions).
	Seed int64
	// DropProb is the probability a Send is silently dropped.
	DropProb float64
	// DelayProb is the probability a Send is delayed by Delay first.
	DelayProb float64
	// Delay is the injected latency for delayed sends.
	Delay time.Duration
	// KillAfterSends, when > 0, crashes the endpoint (Kill) after that many
	// Send calls — a transport-level deterministic rank death. Iteration-
	// precise crashes are injected by the engine through Kill instead.
	KillAfterSends int64
	// PauseAfterSends/ResumeAfterSends, when > 0, silently swallow every
	// Send whose ordinal falls in [PauseAfterSends, ResumeAfterSends) — a
	// deterministic transient network partition: the rank stays alive and
	// keeps receiving, but its outgoing traffic vanishes for the window.
	PauseAfterSends  int64
	ResumeAfterSends int64
}

// faultStats counts the injections a Faulty endpoint performed.
type faultStats struct {
	sends   int64
	dropped int64
	delayed int64
	// paused counts sends swallowed by a pause window (transient partition).
	paused int64
}

// Killer is implemented by endpoints that can simulate a rank crash. After
// Kill, the endpoint is silent: sends are swallowed, receives fail, and
// peers can only learn about the death through their own deadlines.
type Killer interface {
	Kill()
}

// Reviver is implemented by endpoints whose simulated crash can be undone:
// Revive models the dead process being restarted in the same transport slot.
// The rejoin path requires it alongside Killer.
type Reviver interface {
	Revive()
}

// Faulty wraps any Endpoint and injects deterministic, seedable failures:
// message drops, delivery delays, and rank crashes. Collectives are rebuilt
// on top of the wrapper's own Send/Recv so they are subject to injection
// too. It implements TimedEndpoint when used for fault-tolerant runs (the
// deadline methods delegate when the inner endpoint is timed).
type Faulty struct {
	inner Endpoint
	spec  FaultSpec
	coll  collectives

	mu     sync.Mutex
	rng    *rand.Rand
	stats  faultStats
	killed bool
}

// NewFaulty wraps ep with the given fault specification.
func NewFaulty(ep Endpoint, spec FaultSpec) *Faulty {
	f := &Faulty{inner: ep, spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
	f.coll.ep = f
	return f
}

// Kill implements Killer: the endpoint goes permanently silent, exactly like
// a crashed process — outgoing messages vanish, and every local operation
// fails with ErrClosed.
func (f *Faulty) Kill() {
	f.mu.Lock()
	f.killed = true
	f.mu.Unlock()
}

// Revive undoes Kill: the endpoint resumes sending and receiving. It models
// the crashed process being restarted on the same node — the transport slot
// (rank id, inbox, connections) survives; all in-memory runtime state is the
// restarted process's problem, which is exactly what the engine's rejoin
// path reconstructs from checkpoints and peer state.
func (f *Faulty) Revive() {
	f.mu.Lock()
	f.killed = false
	f.mu.Unlock()
}

// isKilled reports whether the endpoint crashed.
func (f *Faulty) isKilled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// Rank implements Endpoint.
func (f *Faulty) Rank() int { return f.inner.Rank() }

// Size implements Endpoint.
func (f *Faulty) Size() int { return f.inner.Size() }

// Send implements Endpoint, applying drop/delay/kill injection first.
func (f *Faulty) Send(to int, tag string, payload []byte) error {
	f.mu.Lock()
	if f.killed {
		f.mu.Unlock()
		return nil // a dead rank's messages vanish without an error
	}
	f.stats.sends++
	paused := f.spec.PauseAfterSends > 0 && f.stats.sends > f.spec.PauseAfterSends &&
		(f.spec.ResumeAfterSends <= 0 || f.stats.sends <= f.spec.ResumeAfterSends)
	if paused {
		f.stats.paused++
		f.mu.Unlock()
		return nil // partitioned away: the message vanishes, no error
	}
	drop := f.spec.DropProb > 0 && f.rng.Float64() < f.spec.DropProb
	delay := f.spec.DelayProb > 0 && f.rng.Float64() < f.spec.DelayProb
	if drop {
		f.stats.dropped++
	}
	if delay && !drop {
		f.stats.delayed++
	}
	kill := f.spec.KillAfterSends > 0 && f.stats.sends >= f.spec.KillAfterSends
	if kill {
		f.killed = true
	}
	f.mu.Unlock()
	if drop {
		return nil
	}
	if delay {
		time.Sleep(f.spec.Delay)
	}
	return f.inner.Send(to, tag, payload)
}

// Recv implements Endpoint.
func (f *Faulty) Recv(from int, tag string) ([]byte, error) {
	if f.isKilled() {
		return nil, errClosed
	}
	return f.inner.Recv(from, tag)
}

// RecvTimeout implements TimedEndpoint (delegating; an untimed inner
// endpoint falls back to a blocking Recv).
func (f *Faulty) RecvTimeout(from int, tag string, d time.Duration) ([]byte, error) {
	if f.isKilled() {
		return nil, errClosed
	}
	if te, ok := f.inner.(TimedEndpoint); ok {
		return te.RecvTimeout(from, tag, d)
	}
	return f.inner.Recv(from, tag)
}

// TryRecv implements Poller when the inner endpoint does. A killed endpoint
// reports ErrClosed like every other local operation.
func (f *Faulty) TryRecv(from int, tag string) ([]byte, bool, error) {
	if f.isKilled() {
		return nil, false, errClosed
	}
	if p, ok := f.inner.(Poller); ok {
		return p.TryRecv(from, tag)
	}
	return nil, false, fmt.Errorf("transport: inner endpoint %T does not support TryRecv", f.inner)
}

// SetDeadline implements TimedEndpoint (no-op on untimed inner endpoints).
func (f *Faulty) SetDeadline(d time.Duration) {
	if te, ok := f.inner.(TimedEndpoint); ok {
		te.SetDeadline(d)
	}
}

// Barrier implements Endpoint. The collective runs through the wrapper's
// Send/Recv so injected faults apply to it.
func (f *Faulty) Barrier() error {
	if f.isKilled() {
		return errClosed
	}
	return f.coll.Barrier()
}

// AllGather implements Endpoint.
func (f *Faulty) AllGather(payload []byte) ([][]byte, error) {
	if f.isKilled() {
		return nil, errClosed
	}
	return f.coll.AllGather(payload)
}

// Bcast implements Endpoint.
func (f *Faulty) Bcast(root int, payload []byte) ([]byte, error) {
	if f.isKilled() {
		return nil, errClosed
	}
	return f.coll.Bcast(root, payload)
}

// Close implements Endpoint.
func (f *Faulty) Close() error { return f.inner.Close() }
