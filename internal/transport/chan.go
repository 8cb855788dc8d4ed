package transport

import (
	"fmt"
	"sync"
	"time"
)

// chanEndpoint is the in-process transport: ranks share a slice of inboxes
// and deliver by direct store. It is the transport the virtual-cluster
// engine uses — zero-copy, deterministic, no sockets.
type chanEndpoint struct {
	rank    int
	inboxes []*inbox
	coll    collectives
	mu      sync.Mutex
	closed  bool
	dl      time.Duration // default Recv deadline (0 = none)
}

// NewGroup creates an in-process communicator of n ranks.
func NewGroup(n int) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: group size %d < 1", n)
	}
	inboxes := make([]*inbox, n)
	for i := range inboxes {
		inboxes[i] = newInbox()
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = &chanEndpoint{rank: i, inboxes: inboxes}
	}
	return eps, nil
}

// Rank implements Endpoint.
func (e *chanEndpoint) Rank() int { return e.rank }

// Size implements Endpoint.
func (e *chanEndpoint) Size() int { return len(e.inboxes) }

// Send implements Endpoint.
func (e *chanEndpoint) Send(to int, tag string, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return errClosed
	}
	if to < 0 || to >= len(e.inboxes) {
		return fmt.Errorf("transport: send to invalid rank %d", to)
	}
	// Copy the payload so sender-side reuse cannot race the receiver.
	cp := make([]byte, len(payload))
	copy(cp, payload)
	e.inboxes[to].put(e.rank, tag, cp)
	return nil
}

// Recv implements Endpoint. It honors the default deadline set with
// SetDeadline.
func (e *chanEndpoint) Recv(from int, tag string) ([]byte, error) {
	e.mu.Lock()
	d := e.dl
	e.mu.Unlock()
	return e.RecvTimeout(from, tag, d)
}

// RecvTimeout implements TimedEndpoint.
func (e *chanEndpoint) RecvTimeout(from int, tag string, d time.Duration) ([]byte, error) {
	if from < 0 || from >= len(e.inboxes) {
		return nil, fmt.Errorf("transport: recv from invalid rank %d", from)
	}
	return e.inboxes[e.rank].get(from, tag, d, nil)
}

// TryRecv implements Poller.
func (e *chanEndpoint) TryRecv(from int, tag string) ([]byte, bool, error) {
	if from < 0 || from >= len(e.inboxes) {
		return nil, false, fmt.Errorf("transport: recv from invalid rank %d", from)
	}
	return e.inboxes[e.rank].tryGet(from, tag)
}

// SetDeadline implements TimedEndpoint.
func (e *chanEndpoint) SetDeadline(d time.Duration) {
	e.mu.Lock()
	e.dl = d
	e.mu.Unlock()
}

// Barrier implements Endpoint.
func (e *chanEndpoint) Barrier() error {
	_, err := allGather(e, e.coll.nextTag("barrier"), nil)
	return err
}

// AllGather implements Endpoint.
func (e *chanEndpoint) AllGather(payload []byte) ([][]byte, error) {
	return allGather(e, e.coll.nextTag("allgather"), payload)
}

// Bcast implements Endpoint.
func (e *chanEndpoint) Bcast(root int, payload []byte) ([]byte, error) {
	return bcast(e, e.coll.nextTag("bcast"), root, payload)
}

// Close implements Endpoint.
func (e *chanEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.inboxes[e.rank].close()
	return nil
}
