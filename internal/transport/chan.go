package transport

import "fmt"

// chanEndpoint is the in-process transport: ranks share a slice of inboxes
// and deliver by direct store. It is the transport the virtual-cluster
// engine uses — one copy per message into a recycled buffer, deterministic,
// no sockets.
type chanEndpoint struct {
	base
	inboxes []*inbox
}

// NewGroup creates an in-process communicator of n ranks.
func NewGroup(n int) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: group size %d < 1", n)
	}
	inboxes := make([]*inbox, n)
	for i := range inboxes {
		inboxes[i] = newInbox(n)
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		ep := &chanEndpoint{base: base{rank: i, size: n, inbox: inboxes[i]}, inboxes: inboxes}
		ep.collectives.ep, eps[i] = ep, ep
	}
	return eps, nil
}

// Send implements Endpoint.
func (e *chanEndpoint) Send(to int, tag string, payload []byte) error {
	if e.isClosed() {
		return errClosed
	}
	if to < 0 || to >= e.size {
		return fmt.Errorf("transport: send to invalid rank %d", to)
	}
	// Copy the payload so sender-side reuse cannot race the receiver.
	e.inboxes[to].deliver(e.rank, tag, payload)
	return nil
}

// Close implements Endpoint.
func (e *chanEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.inbox.close()
	return nil
}
