// Package trace is the repo's one instrumentation spine: the phase
// vocabulary every layer describes cost in, the span type that times a
// phase, and the JSONL run log those spans land in. Each rank (the
// single-process engine is rank -1) appends span records (rank, epoch, iter,
// phase) and message-level send/recv records to a shared log, heartbeat
// piggybacks feed an NTP-style pairwise clock-offset estimator, and the
// stitcher (Stitch) assembles the per-rank records into a global iteration
// DAG with a per-iteration critical path attributing wall-clock to (rank,
// phase, blocking-peer). A recorder handed out by obs.Runtime also feeds
// samr_phase_seconds from the same Span.End that writes the record, so the
// live histograms and the log cannot disagree about what a phase is.
//
// The package follows the repo's observability contract: a nil *Recorder is
// a no-op on every method, the steady-state record paths allocate nothing
// (hand-encoded JSONL over a locked bufio.Writer), and instrumentation never
// changes simulation results — the trace context rides the wire in a
// versioned header extension that old decoders reject loudly and current
// ones strip before the payload is applied.
package trace

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Phase is the instrumentation vocabulary: the control loop's sense →
// partition → remap → plan → migrate and the iteration DAG compute → pack →
// send → recv → unpack → advance. Span records, samr_phase_seconds labels
// and the report tables all use Phase.String.
type Phase uint8

const (
	// PhaseSense is a monitor sensing sweep (Engine.Run).
	PhaseSense Phase = iota
	// PhasePartition is a partitioner invocation, including validation,
	// fallbacks and, for the hierarchical partitioner, its agreement round.
	PhasePartition
	// PhaseRemap is the movement-aware owner relabeling (Engine.Run; the
	// SPMD runtime remaps inside its partition span).
	PhaseRemap
	// PhasePlan is communication-plan construction: a rank deriving its own
	// ghost-exchange or migration plan from the shared assignment.
	PhasePlan
	// PhaseMigrate is patch redistribution: the local copies on an SPMD
	// rank, the whole modelled move in Engine.Run (which carries its volume
	// as the record's byte count).
	PhaseMigrate
	// PhaseMigWait is one blocking receive of a peer's migration frame.
	PhaseMigWait
	// PhasePack is filling one peer's outgoing frame (halo or migration).
	PhasePack
	// PhaseCompute is patch integration: the interior patches stepped while
	// halos are in flight, or Engine.Run's whole coarse step.
	PhaseCompute
	// PhaseHaloWait is one blocking receive of a peer's halo frame.
	PhaseHaloWait
	// PhaseUnpack is validating and applying one received frame.
	PhaseUnpack
	// PhaseAdvance is stepping the boundary patches once halos are in.
	PhaseAdvance
	// PhaseDtWait is the global stable-dt all-reduce.
	PhaseDtWait
	// PhaseCheckpoint is the synchronous part of writing a checkpoint.
	PhaseCheckpoint
	// NumPhases bounds the vocabulary.
	NumPhases
)

// PhaseIdle and PhaseUntracked name critical-path time no recorded span
// covers. Only the stitcher produces them, so they are segment labels, not
// members of the recordable vocabulary.
const (
	PhaseIdle      = "idle"
	PhaseUntracked = "untracked"
)

// phaseNames indexes Phase.String.
var phaseNames = [NumPhases]string{
	"sense", "partition", "remap", "plan", "migrate", "mig-wait", "pack",
	"compute", "halo-wait", "unpack", "advance", "dt-wait", "checkpoint",
}

// String returns the phase's wire name: the span record's "ph" field and
// the samr_phase_seconds label value.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase(" + strconv.Itoa(int(p)) + ")"
}

// Message kinds on send/recv records.
const (
	KindHalo = "h"
	KindMig  = "g"
)

// Log is the run log: a locked, buffered JSONL writer. One Log
// serves every rank of an in-process group (records carry the rank); a
// distributed deployment would open one per process and hand the stitcher
// all the files.
type Log struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	err error
}

// NewLog returns a Log writing JSONL records to w.
func NewLog(w io.Writer) *Log {
	return &Log{w: bufio.NewWriterSize(w, 1<<16)}
}

// Flush drains the buffered writer and reports the first write error.
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Recorder returns rank's per-rank recording handle. A nil Log yields a nil
// Recorder, and every Recorder method is a cheap no-op on nil — runners keep
// unconditional call sites.
func (l *Log) Recorder(rank int) *Recorder { return NewRecorder(l, rank, nil) }

// NewRecorder is Log.Recorder plus an observe hook that receives every
// closed span's phase and duration in seconds — how obs.Runtime feeds its
// per-phase histograms from the same End that writes the record. Either
// half may be absent: without a log the recorder only observes (nothing is
// written and Logged reports false), without both it is nil. Worker
// goroutines of a rank close spans too, so observe must be safe to call
// concurrently.
func NewRecorder(l *Log, rank int, observe func(Phase, float64)) *Recorder {
	if l == nil && observe == nil {
		return nil
	}
	return &Recorder{
		log:       l,
		observe:   observe,
		rank:      int32(rank),
		lastDelta: make(map[int32]int64),
	}
}

// Recorder records one rank's spans, messages, clock observations, and
// straggler verdicts. It is owned by that rank's goroutine; the current
// (epoch, iter) position is set once per loop turn via SetPos, and spans
// started from worker goroutines of the same rank only read it.
type Recorder struct {
	log       *Log
	observe   func(Phase, float64)
	rank      int32
	skew      int64 // clock offset (ns) tests inject to check the estimator
	epoch     int32
	iter      int32
	lastDelta map[int32]int64
}

// Logged reports whether the recorder writes records. Wire trace contexts
// and heartbeat clock stamps exist for the log's stitcher, so senders attach
// them only when this is true; a metrics-only run's frames stay
// byte-identical to an uninstrumented run's.
func (r *Recorder) Logged() bool { return r != nil && r.log != nil }

// Now returns the rank-local clock (wall ns plus any injected skew). All
// stamps this recorder writes or puts on the wire use it.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Now().UnixNano() + r.skew
}

// SetPos positions subsequent records at (epoch, iter).
func (r *Recorder) SetPos(epoch, iter int) {
	if r == nil {
		return
	}
	r.epoch, r.iter = int32(epoch), int32(iter)
}

// Pos returns the current (epoch, iter) position for wire contexts.
func (r *Recorder) Pos() (epoch, iter int32) {
	if r == nil {
		return 0, 0
	}
	return r.epoch, r.iter
}

// Span opens a span in phase ph at the current position. The zero Span
// (from a nil Recorder) is a no-op to End.
func (r *Recorder) Span(ph Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, ph: ph, peer: -1, t0: r.Now()}
}

// WaitSpan opens a blocking-wait span attributed to peer; End it with
// EndGated to record the gating message's sender stamp for the
// critical-path jump.
func (r *Recorder) WaitSpan(ph Phase, peer int) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, ph: ph, peer: int32(peer), t0: r.Now()}
}

// Span is an open interval on one rank's timeline. It is a value; End
// writes the record.
type Span struct {
	rec  *Recorder
	ph   Phase
	peer int32
	t0   int64
}

// End closes the span and writes its record.
func (s Span) End() { s.end(0, 0) }

// EndBytes is End carrying the byte volume the span moved into the record.
func (s Span) EndBytes(n int64) { s.end(0, n) }

// EndGated closes a wait span whose last gating message carried the sender
// clock stamp sendTS (0 = none); the stitcher jumps the critical path to
// the blocking peer at that instant.
func (s Span) EndGated(sendTS int64) { s.end(sendTS, 0) }

// end closes the span on both sinks from one clock reading, so the
// histogram of a phase sums exactly the t1-t0 of its records.
func (s Span) end(sendTS, bytes int64) {
	r := s.rec
	if r == nil {
		return
	}
	t1 := r.Now()
	if r.observe != nil {
		r.observe(s.ph, float64(t1-s.t0)/1e9)
	}
	if r.log != nil {
		r.log.span(r.rank, s.ph, r.epoch, r.iter, s.peer, s.t0, t1, sendTS, bytes)
	}
}

// Send records a message of kind (KindHalo/KindMig) to peer, stamped with
// the same sendNS that went into the wire TraceCtx.
func (r *Recorder) Send(peer int, kind string, bytes int, sendNS int64) {
	if !r.Logged() {
		return
	}
	r.log.msg('m', r.rank, int32(peer), kind, r.epoch, r.iter, int64(bytes), sendNS, r.Now())
}

// Recv records the arrival of a message from peer: (msgEpoch, msgIter,
// sendTS) come from the wire TraceCtx so the stitcher matches the pair on
// the sender's coordinates. A frame that carried no context is recorded at
// the receiver's own Pos with sendTS 0.
func (r *Recorder) Recv(peer int, kind string, bytes int, msgEpoch, msgIter int32, sendTS int64) {
	if !r.Logged() {
		return
	}
	r.log.msg('v', r.rank, int32(peer), kind, msgEpoch, msgIter, int64(bytes), sendTS, r.Now())
}

// HBDelta returns the last observed one-way delta (my clock at arrival
// minus peer's send stamp, ns) for peer, to gossip back on the next
// heartbeat. 0 means no sample yet.
func (r *Recorder) HBDelta(peer int) int64 {
	if r == nil {
		return 0
	}
	return r.lastDelta[int32(peer)]
}

// ObserveHeartbeat ingests a traced heartbeat from peer: sendNS is the
// peer's clock at send, deltaNS the peer's last observed one-way delta for
// us (0 = none). It updates the delta we gossip back and, when both halves
// are in hand, writes a pairwise offset estimate record:
//
//	offNS ≈ peer_clock − my_clock,  rttNS = both one-way deltas summed.
func (r *Recorder) ObserveHeartbeat(peer int, sendNS, deltaNS int64) {
	if !r.Logged() {
		return
	}
	now := r.Now()
	din := now - sendNS // flight − (peer_clock − my_clock)
	r.lastDelta[int32(peer)] = din
	if deltaNS == 0 {
		return
	}
	off := (deltaNS - din) / 2
	rtt := deltaNS + din
	r.log.offset(r.rank, int32(peer), off, rtt, now)
}

// Verdict records a straggler-detector transition observed by this rank:
// target moved to state (monitor.StragglerState.String()) at the current
// position. The stitcher dedupes the replicated copies.
func (r *Recorder) Verdict(target int, state string) {
	if !r.Logged() {
		return
	}
	r.log.verdict(r.rank, int32(target), r.epoch, r.iter, state, r.Now())
}

// ---- locked record writers -------------------------------------------------

// num and str append one `,"key":value` member. Keys arrive pre-quoted with
// their comma and colon (str's with the opening quote too), so the encode
// path formats nothing and allocates nothing.
func num(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func str(b []byte, key, v string) []byte {
	return append(append(append(b, key...), v...), '"')
}

func (l *Log) span(rank int32, ph Phase, epoch, iter, peer int32, t0, t1, ts, bytes int64) {
	l.mu.Lock()
	b := append(l.buf[:0], `{"k":"s"`...)
	b = num(b, `,"r":`, int64(rank))
	b = str(b, `,"ph":"`, ph.String())
	b = num(b, `,"e":`, int64(epoch))
	b = num(b, `,"i":`, int64(iter))
	if peer >= 0 {
		b = num(b, `,"p":`, int64(peer))
	}
	if bytes != 0 {
		b = num(b, `,"b":`, bytes)
	}
	if ts != 0 {
		b = num(b, `,"ts":`, ts)
	}
	b = num(b, `,"t0":`, t0)
	b = num(b, `,"t1":`, t1)
	l.write(b)
	l.mu.Unlock()
}

func (l *Log) msg(k byte, rank, peer int32, kind string, epoch, iter int32, bytes, ts, t int64) {
	l.mu.Lock()
	b := append(l.buf[:0], `{"k":"`...)
	b = append(b, k, '"')
	b = num(b, `,"r":`, int64(rank))
	b = num(b, `,"p":`, int64(peer))
	b = str(b, `,"kd":"`, kind)
	b = num(b, `,"e":`, int64(epoch))
	b = num(b, `,"i":`, int64(iter))
	b = num(b, `,"b":`, bytes)
	if ts != 0 {
		b = num(b, `,"ts":`, ts)
	}
	b = num(b, `,"t":`, t)
	l.write(b)
	l.mu.Unlock()
}

func (l *Log) offset(rank, peer int32, off, rtt, t int64) {
	l.mu.Lock()
	b := append(l.buf[:0], `{"k":"o"`...)
	b = num(b, `,"r":`, int64(rank))
	b = num(b, `,"p":`, int64(peer))
	b = num(b, `,"off":`, off)
	b = num(b, `,"rtt":`, rtt)
	b = num(b, `,"t":`, t)
	l.write(b)
	l.mu.Unlock()
}

func (l *Log) verdict(rank, target, epoch, iter int32, state string, t int64) {
	l.mu.Lock()
	b := append(l.buf[:0], `{"k":"g"`...)
	b = num(b, `,"r":`, int64(rank))
	b = num(b, `,"tgt":`, int64(target))
	b = num(b, `,"e":`, int64(epoch))
	b = num(b, `,"i":`, int64(iter))
	b = str(b, `,"st":"`, state)
	b = num(b, `,"t":`, t)
	l.write(b)
	l.mu.Unlock()
}

// write closes the record in b and appends it under l.mu, keeping the
// scratch buffer for reuse.
func (l *Log) write(b []byte) {
	b = append(b, "}\n"...)
	l.buf = b[:0]
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
}
