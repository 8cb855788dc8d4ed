// Package trace is the distributed-tracing layer for the SPMD runtime: each
// rank appends span records (rank, epoch, iter, phase) and message-level
// send/recv records to a shared JSONL log, heartbeat piggybacks feed an
// NTP-style pairwise clock-offset estimator, and the stitcher (Stitch)
// assembles the per-rank logs into a global iteration DAG with a
// per-iteration critical path attributing wall-clock to (rank, phase,
// blocking-peer).
//
// The package follows the repo's observability contract: a nil *Recorder is
// a no-op on every method, the steady-state record paths allocate nothing
// (hand-encoded JSONL over a locked bufio.Writer, like obs.EventLog), and
// tracing never changes simulation results — the trace context rides the
// wire in a versioned header extension that old decoders reject loudly and
// current ones strip before the payload is applied.
package trace

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Phase names used in span records. They spell out the iteration DAG
// compute → pack → send → recv → unpack → advance plus the control-plane
// phases around it.
const (
	PhasePartition  = "partition"
	PhasePlan       = "plan"
	PhaseMigrate    = "migrate"
	PhaseMigWait    = "mig-wait"
	PhasePack       = "pack"
	PhaseCompute    = "compute"
	PhaseHaloWait   = "halo-wait"
	PhaseUnpack     = "unpack"
	PhaseAdvance    = "advance"
	PhaseDtWait     = "dt-wait"
	PhaseCheckpoint = "checkpoint"

	// PhaseIdle and PhaseUntracked are synthesized by the stitcher for
	// critical-path time not covered by any recorded span.
	PhaseIdle      = "idle"
	PhaseUntracked = "untracked"
)

// Message kinds on send/recv records.
const (
	KindHalo = "h"
	KindMig  = "g"
)

// Log is the shared trace sink: a locked, buffered JSONL writer. One Log
// serves every rank of an in-process group (records carry the rank); a
// distributed deployment would open one per process and hand the stitcher
// all the files.
type Log struct {
	mu   sync.Mutex
	w    *bufio.Writer
	buf  []byte
	skew map[int]int64
	err  error
}

// NewLog returns a Log writing JSONL records to w.
func NewLog(w io.Writer) *Log {
	return &Log{w: bufio.NewWriterSize(w, 1<<16)}
}

// SetSkew injects a fixed clock skew (ns) for rank's recorders, so tests can
// prove the offset estimator recovers known skews. Call before Recorder.
func (l *Log) SetSkew(rank int, ns int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.skew == nil {
		l.skew = make(map[int]int64)
	}
	l.skew[rank] = ns
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
func (l *Log) Recorder(rank int) *Recorder {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	skew := l.skew[rank]
	l.mu.Unlock()
	return &Recorder{
		log:       l,
		rank:      int32(rank),
		skew:      skew,
		lastDelta: make(map[int32]int64),
	}
}

// Recorder records one rank's spans, messages, clock observations, and
// straggler verdicts. It is owned by that rank's goroutine; the current
// (epoch, iter) position is set once per loop turn via SetPos, and spans
// started from worker goroutines of the same rank only read it.
type Recorder struct {
	log       *Log
	rank      int32
	skew      int64
	epoch     int32
	iter      int32
	lastDelta map[int32]int64
}

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
func (r *Recorder) Span(ph string) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, ph: ph, peer: -1, t0: r.Now()}
}

// WaitSpan opens a blocking-wait span attributed to peer; End it with
// EndGated to record the gating message's sender stamp for the
// critical-path jump.
func (r *Recorder) WaitSpan(ph string, peer int) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, ph: ph, peer: int32(peer), t0: r.Now()}
}

// Span is an open interval on one rank's timeline. It is a value; End
// writes the record.
type Span struct {
	rec  *Recorder
	ph   string
	peer int32
	t0   int64
}

// End closes the span and writes its record.
func (s Span) End() { s.EndGated(0) }

// EndGated closes a wait span whose last gating message carried the sender
// clock stamp sendTS (0 = none); the stitcher jumps the critical path to
// the blocking peer at that instant.
func (s Span) EndGated(sendTS int64) {
	r := s.rec
	if r == nil {
		return
	}
	r.log.span(r.rank, s.ph, r.epoch, r.iter, s.peer, s.t0, r.Now(), sendTS)
}

// Send records a message of kind (KindHalo/KindMig) to peer, stamped with
// the same sendNS that went into the wire TraceCtx.
func (r *Recorder) Send(peer int, kind string, bytes int, sendNS int64) {
	if r == nil {
		return
	}
	r.log.msg('m', r.rank, int32(peer), kind, r.epoch, r.iter, int64(bytes), sendNS, r.Now())
}

// Recv records the arrival of a traced message from peer: (msgEpoch,
// msgIter, sendTS) come from the wire TraceCtx so the stitcher matches the
// pair on the sender's coordinates.
func (r *Recorder) Recv(peer int, kind string, bytes int, msgEpoch, msgIter int32, sendTS int64) {
	if r == nil {
		return
	}
	r.log.msg('v', r.rank, int32(peer), kind, msgEpoch, msgIter, int64(bytes), sendTS, r.Now())
}

// RecvUntraced records an arrival that carried no trace context (an
// untraced sender); the receiver's own position is used and no sender stamp
// is available.
func (r *Recorder) RecvUntraced(peer int, kind string, bytes int) {
	if r == nil {
		return
	}
	r.log.msg('v', r.rank, int32(peer), kind, r.epoch, r.iter, int64(bytes), 0, r.Now())
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
	if r == nil {
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
	if r == nil {
		return
	}
	r.log.verdict(r.rank, int32(target), r.epoch, r.iter, state, r.Now())
}

// ---- locked record writers -------------------------------------------------

func (l *Log) span(rank int32, ph string, epoch, iter, peer int32, t0, t1, ts int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"s","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","e":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	if peer >= 0 {
		b = append(b, `,"p":`...)
		b = strconv.AppendInt(b, int64(peer), 10)
	}
	if ts != 0 {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, ts, 10)
	}
	b = append(b, `,"t0":`...)
	b = strconv.AppendInt(b, t0, 10)
	b = append(b, `,"t1":`...)
	b = strconv.AppendInt(b, t1, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

func (l *Log) msg(k byte, rank, peer int32, kind string, epoch, iter int32, bytes, ts, t int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"`...)
	b = append(b, k)
	b = append(b, `","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(peer), 10)
	b = append(b, `,"kd":"`...)
	b = append(b, kind...)
	b = append(b, `","e":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, bytes, 10)
	if ts != 0 {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, ts, 10)
	}
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

func (l *Log) offset(rank, peer int32, off, rtt, t int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"o","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(peer), 10)
	b = append(b, `,"off":`...)
	b = strconv.AppendInt(b, off, 10)
	b = append(b, `,"rtt":`...)
	b = strconv.AppendInt(b, rtt, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

func (l *Log) verdict(rank, target, epoch, iter int32, state string, t int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"g","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"tgt":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	b = append(b, `,"e":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	b = append(b, `,"st":"`...)
	b = append(b, state...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

// write appends b under l.mu, keeping the scratch buffer for reuse.
func (l *Log) write(b []byte) {
	l.buf = b[:0]
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
}
