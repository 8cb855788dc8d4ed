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
	"slices"
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
	// and returns its payload, which stays valid until the caller's next
	// receive from the same peer on this endpoint (any tag and receive
	// call, collectives included): that receive hands the buffer back for
	// reuse. A caller that keeps the bytes longer copies them.
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
	// errors.Is(err, ErrRankDown). Its payload follows Recv's rule.
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
	// empty queue is (nil, false, nil), not an error. Either way it is a
	// receive from the peer under Recv's rule.
	TryRecv(from int, tag string) ([]byte, bool, error)
}

// inboxKey routes messages by (source, tag).
type inboxKey struct {
	from int
	tag  string
}

// maxFree bounds each peer's list of recycled receive buffers.
const maxFree = 4

// inbox is a thread-safe tag-matched message store shared by both
// transports. A steady exchange allocates nothing in it: payloads land in
// buffers recycled per sender under Endpoint.Recv's rule, emptied keys'
// queue arrays serve the next new key, and deadline timers are pooled.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[inboxKey][][]byte
	spare  [][][]byte    // emptied queue arrays
	held   [][]byte      // per sender: the payload the last receive returned
	free   [][][]byte    // per sender: handed-back buffers, by capacity
	down   []error       // per sender: what took its connection down, if it is
	timers []*time.Timer // idle deadline timers, each firing wake
	closed bool
}

func newInbox(n int) *inbox {
	ib := &inbox{queues: make(map[inboxKey][][]byte), held: make([][]byte, n), free: make([][][]byte, n), down: make([]error, n)}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// recycled takes from's smallest free buffer with room for n > 0 bytes,
// resliced to n, or returns nil when there is none.
func (ib *inbox) recycled(from, n int) []byte {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	free := ib.free[from]
	if i := slices.IndexFunc(free, func(b []byte) bool { return cap(b) >= n }); i >= 0 && n > 0 {
		b := free[i][:n]
		ib.free[from] = slices.Delete(free, i, i+1)
		return b
	}
	return nil
}

// deliver queues a copy of payload, made in a free buffer of from's when
// one is large enough.
func (ib *inbox) deliver(from int, tag string, payload []byte) {
	ib.put(from, tag, append(ib.recycled(from, len(payload))[:0], payload...))
}

func (ib *inbox) put(from int, tag string, payload []byte) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return
	}
	k := inboxKey{from, tag}
	q, ok := ib.queues[k]
	if n := len(ib.spare); !ok && n > 0 {
		q, ib.spare = ib.spare[n-1], ib.spare[:n-1]
	}
	ib.queues[k] = append(q, payload)
	ib.cond.Broadcast()
}

// release hands the payload of the last receive from `from` back to its
// free list, which keeps the largest maxFree buffers. Holds ib.mu.
func (ib *inbox) release(from int) {
	if b := ib.held[from]; b != nil {
		free := ib.free[from]
		i, _ := slices.BinarySearchFunc(free, cap(b), func(f []byte, c int) int { return cap(f) - c })
		if free = slices.Insert(free, i, b); len(free) > maxFree {
			free = slices.Delete(free, 0, 1)
		}
		ib.free[from], ib.held[from] = free, nil
	}
}

// pop dequeues the next message for k, if any, as the sender's held
// payload. An emptied key is deleted and its array kept. Holds ib.mu.
func (ib *inbox) pop(k inboxKey) ([]byte, bool) {
	q := ib.queues[k]
	if len(q) == 0 {
		return nil, false
	}
	msg := q[0]
	if q = slices.Delete(q, 0, 1); len(q) == 0 {
		delete(ib.queues, k)
		ib.spare = append(ib.spare, q)
	} else {
		ib.queues[k] = q
	}
	ib.held[k.from] = msg
	return msg, true
}

// get pops the next message for (from, tag), blocking until one arrives.
// A positive deadline d bounds the wait: on expiry get returns a
// *RankDownError for the peer, as it does, once the queue is drained, for a
// peer whose connection is down.
func (ib *inbox) get(from int, tag string, d time.Duration) ([]byte, error) {
	k := inboxKey{from, tag}
	deadline := time.Now().Add(d)
	var t *time.Timer
	ib.mu.Lock()
	defer ib.mu.Unlock()
	defer func() {
		if t != nil {
			t.Stop()
			ib.timers = append(ib.timers, t)
		}
	}()
	ib.release(from)
	for {
		if msg, ok := ib.pop(k); ok {
			return msg, nil
		}
		if ib.closed {
			return nil, errClosed
		}
		if cause := ib.down[from]; cause != nil {
			return nil, &rankDownError{Rank: from, Reason: fmt.Sprintf("peer disconnected: %v", cause), Cause: cause}
		}
		if left := time.Until(deadline); d > 0 && left <= 0 {
			return nil, &rankDownError{Rank: from, Reason: "recv deadline exceeded"}
		} else if d > 0 && t == nil {
			// wake broadcasts under the lock, so no waiter misses it; a
			// pooled timer that fired late costs a spurious re-check.
			if n := len(ib.timers); n > 0 {
				t, ib.timers = ib.timers[n-1], ib.timers[:n-1]
				t.Reset(left)
			} else {
				t = time.AfterFunc(left, ib.wake)
			}
		}
		ib.cond.Wait()
	}
}

// tryGet pops the next message for (from, tag) without blocking.
func (ib *inbox) tryGet(from int, tag string) ([]byte, bool, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.release(from)
	if msg, ok := ib.pop(inboxKey{from, tag}); ok {
		return msg, true, nil
	}
	if ib.closed {
		return nil, false, errClosed
	}
	return nil, false, nil
}

// setDown records what took from's connection down (nil: it is up again)
// and wakes the receivers.
func (ib *inbox) setDown(from int, cause error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.down[from] = cause
	ib.cond.Broadcast()
}

// wake re-broadcasts to blocked receivers.
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

// collectives implements Barrier/AllGather/Bcast on top of ep's own
// Send/Recv with per-generation tags, so back-to-back collectives cannot
// cross-match.
type collectives struct {
	ep  Endpoint
	gen int
}

// Barrier implements Endpoint.
func (c *collectives) Barrier() error {
	_, err := c.allGather("barrier", nil)
	return err
}

// AllGather implements Endpoint.
func (c *collectives) AllGather(payload []byte) ([][]byte, error) {
	return c.allGather("allgather", payload)
}

func (c *collectives) allGather(op string, payload []byte) ([][]byte, error) {
	c.gen++
	tag := fmt.Sprintf("__%s_%d", op, c.gen)
	size, rank := c.ep.Size(), c.ep.Rank()
	out := make([][]byte, size)
	out[rank] = payload
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if err := c.ep.Send(r, tag, payload); err != nil {
			return nil, err
		}
	}
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		p, err := c.ep.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}

// Bcast implements Endpoint.
func (c *collectives) Bcast(root int, payload []byte) ([]byte, error) {
	c.gen++
	tag := fmt.Sprintf("__bcast_%d", c.gen)
	if c.ep.Rank() == root {
		for r := 0; r < c.ep.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.ep.Send(r, tag, payload); err != nil {
				return nil, err
			}
		}
		return payload, nil
	}
	return c.ep.Recv(root, tag)
}

// base is what both built-in transports share of a rank: its place in the
// group, the inbox it receives into, and the state mu guards (the default
// deadline, closing, and in a tcpEndpoint its connections).
type base struct {
	collectives
	rank, size int
	inbox      *inbox
	mu         sync.Mutex
	dl         time.Duration // default recv deadline (TCP: also the per-send write bound)
	closed     bool
}

// isClosed reports whether Close ran.
func (b *base) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Rank implements Endpoint.
func (b *base) Rank() int { return b.rank }

// Size implements Endpoint.
func (b *base) Size() int { return b.size }

// Recv implements Endpoint. It honors the default deadline set with
// SetDeadline and fails fast — after draining queued messages — when the
// peer's connection is down.
func (b *base) Recv(from int, tag string) ([]byte, error) {
	b.mu.Lock()
	d := b.dl
	b.mu.Unlock()
	return b.RecvTimeout(from, tag, d)
}

// RecvTimeout implements TimedEndpoint.
func (b *base) RecvTimeout(from int, tag string, d time.Duration) ([]byte, error) {
	if from < 0 || from >= b.size {
		return nil, fmt.Errorf("transport: recv from invalid rank %d", from)
	}
	return b.inbox.get(from, tag, d)
}

// TryRecv implements Poller. A down peer is not an error here: queued
// messages are still drained, and an empty queue just reports no message.
func (b *base) TryRecv(from int, tag string) ([]byte, bool, error) {
	if from < 0 || from >= b.size {
		return nil, false, fmt.Errorf("transport: recv from invalid rank %d", from)
	}
	return b.inbox.tryGet(from, tag)
}

// SetDeadline implements TimedEndpoint.
func (b *base) SetDeadline(d time.Duration) {
	b.mu.Lock()
	b.dl = d
	b.mu.Unlock()
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
