// Package transport is the message-passing layer the engine runs on — the
// repo's stand-in for MPI, since no Go MPI/AMR ecosystem exists. It offers
// tagged point-to-point messaging plus the collectives the SAMR runtime
// needs (barrier, all-gather, broadcast), over two interchangeable
// implementations: an in-process channel transport (Group) for the virtual
// cluster, and a TCP transport (TCPGroup) exercising real sockets.
package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"
)

// errClosed is returned by operations on a closed endpoint.
var errClosed = errors.New("transport: endpoint closed")

// ErrMalformed is the sentinel every wire-decoding error wraps: a frame or
// control message that is truncated, inconsistent, or otherwise impossible
// to have been produced by a healthy peer. Decoders return it instead of
// panicking and never allocate more than the payload length justifies, so a
// byzantine or corrupted peer cannot take a rank down.
var ErrMalformed = errors.New("transport: malformed message")

// ErrRankDown is the sentinel a *RankDownError matches under errors.Is: a
// peer is unreachable — its receive deadline expired, its connection dropped
// without a replacement, or reconnection attempts were exhausted.
var ErrRankDown = errors.New("transport: rank down")

// rankDownError identifies which peer was lost and why. It wraps
// ErrRankDown so callers can both test `errors.Is(err, ErrRankDown)` and
// recover the rank for failure handling.
type rankDownError struct {
	Rank   int
	Reason string
	// Cause, when set, is what took the rank's connection down (a read
	// error, or a protocol violation wrapping ErrMalformed).
	Cause error
}

// Error implements error.
func (e *rankDownError) Error() string {
	return fmt.Sprintf("transport: rank %d down (%s)", e.Rank, e.Reason)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *rankDownError) Unwrap() error { return e.Cause }

// Is reports ErrRankDown as this error's sentinel.
func (e *rankDownError) Is(target error) bool { return target == ErrRankDown }

// Endpoint is one rank's connection to a communicator group. All collective
// operations must be entered by every rank of the group in the same order.
type Endpoint interface {
	// Rank is this endpoint's id in [0, Size).
	Rank() int
	// Size is the group size.
	Size() int
	// Send delivers payload to rank `to` under the given tag. It does not
	// wait for the receiver. The payload buffer may be reused by the
	// caller as soon as Send returns: both implementations either copy it
	// (chan, TCP self-send) or have fully written it to the wire (TCP).
	Send(to int, tag string, payload []byte) error
	// Recv blocks until a message with the given source and tag arrives
	// and returns its payload.
	Recv(from int, tag string) ([]byte, error)
	// Barrier blocks until every rank has entered it.
	Barrier() error
	// AllGather exchanges payloads; the result holds rank i's payload at
	// index i (including the caller's own).
	AllGather(payload []byte) ([][]byte, error)
	// Bcast broadcasts root's payload to all ranks; non-root callers
	// ignore their payload argument and receive root's.
	Bcast(root int, payload []byte) ([]byte, error)
	// Close releases the endpoint; blocked receivers return ErrClosed.
	Close() error
}

// TimedEndpoint extends Endpoint with deadline-bounded receives. Both
// built-in transports (and the Faulty wrapper) implement it; the SPMD
// runner requires it so that no blocking call in its hot loop can hang on a
// silently-dead peer.
type TimedEndpoint interface {
	Endpoint
	// RecvTimeout is Recv bounded by d (d <= 0 blocks indefinitely, like
	// Recv). On expiry it returns a *RankDownError for the peer, matching
	// errors.Is(err, ErrRankDown).
	RecvTimeout(from int, tag string, d time.Duration) ([]byte, error)
	// SetDeadline bounds all subsequent plain Recvs — including those
	// issued internally by the collectives — by d (0 removes the bound).
	// On the TCP transport it also bounds each Send's socket write.
	SetDeadline(d time.Duration)
}

// Poller extends Endpoint with a non-blocking receive. Both built-in
// transports and the Faulty wrapper implement it; the fault-tolerant SPMD
// runner uses it to poll for out-of-band control traffic (rank rejoin
// announcements) without stalling the iteration loop.
type Poller interface {
	// TryRecv pops the next queued message for (from, tag) if one is
	// already buffered. ok reports whether a message was returned; an
	// empty queue is (nil, false, nil), not an error.
	TryRecv(from int, tag string) ([]byte, bool, error)
}

// inboxKey routes messages by (source, tag).
type inboxKey struct {
	from int
	tag  string
}

// inbox is a thread-safe tag-matched message store shared by both
// transports.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[inboxKey][][]byte
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{queues: make(map[inboxKey][][]byte)}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(from int, tag string, payload []byte) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return
	}
	k := inboxKey{from, tag}
	ib.queues[k] = append(ib.queues[k], payload)
	ib.cond.Broadcast()
}

// get pops the next message for (from, tag), blocking until one arrives.
// A positive deadline d bounds the wait: on expiry get returns a
// *RankDownError for the peer. failed, when non-nil, is re-checked on every
// wake-up so transports can fail receivers the moment a peer is known dead
// (queued messages are still drained first).
func (ib *inbox) get(from int, tag string, d time.Duration, failed func() error) ([]byte, error) {
	k := inboxKey{from, tag}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		// The timer broadcasts under the lock so a waiter cannot check the
		// clock, miss the wake-up, and then sleep forever.
		t := time.AfterFunc(d, func() {
			ib.mu.Lock()
			ib.cond.Broadcast()
			ib.mu.Unlock()
		})
		defer t.Stop()
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if q := ib.queues[k]; len(q) > 0 {
			msg := q[0]
			if len(q) == 1 {
				delete(ib.queues, k)
			} else {
				ib.queues[k] = q[1:]
			}
			return msg, nil
		}
		if ib.closed {
			return nil, errClosed
		}
		if failed != nil {
			if err := failed(); err != nil {
				return nil, err
			}
		}
		if d > 0 && !time.Now().Before(deadline) {
			return nil, &rankDownError{Rank: from, Reason: "recv deadline exceeded"}
		}
		ib.cond.Wait()
	}
}

// tryGet pops the next message for (from, tag) without blocking.
func (ib *inbox) tryGet(from int, tag string) ([]byte, bool, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	k := inboxKey{from, tag}
	if q := ib.queues[k]; len(q) > 0 {
		msg := q[0]
		if len(q) == 1 {
			delete(ib.queues, k)
		} else {
			ib.queues[k] = q[1:]
		}
		return msg, true, nil
	}
	if ib.closed {
		return nil, false, errClosed
	}
	return nil, false, nil
}

// wake re-broadcasts to blocked receivers (used when peer liveness changes).
func (ib *inbox) wake() {
	ib.mu.Lock()
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

func (ib *inbox) close() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.closed = true
	ib.cond.Broadcast()
}

// collectives implements Barrier/AllGather/Bcast on top of Send/Recv with
// per-generation tags, so back-to-back collectives cannot cross-match.
type collectives struct {
	gen int
}

func (c *collectives) nextTag(op string) string {
	c.gen++
	return fmt.Sprintf("__%s_%d", op, c.gen)
}

func allGather(ep Endpoint, tag string, payload []byte) ([][]byte, error) {
	size, rank := ep.Size(), ep.Rank()
	out := make([][]byte, size)
	out[rank] = payload
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if err := ep.Send(r, tag, payload); err != nil {
			return nil, err
		}
	}
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		p, err := ep.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}

func bcast(ep Endpoint, tag string, root int, payload []byte) ([]byte, error) {
	if ep.Rank() == root {
		for r := 0; r < ep.Size(); r++ {
			if r == root {
				continue
			}
			if err := ep.Send(r, tag, payload); err != nil {
				return nil, err
			}
		}
		return payload, nil
	}
	return ep.Recv(root, tag)
}

// EncodeGob serializes v with encoding/gob for use as a message payload.
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGob deserializes a payload produced by EncodeGob into v.
func DecodeGob(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}
