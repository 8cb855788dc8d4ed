package transport

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// Reconnect and handshake tuning. Vars (not consts) so tests can compress
// the schedule; production code never mutates them.
var (
	// reconnectAttempts bounds redials of a broken connection; backoff
	// doubles from reconnectBackoff each attempt (5, 10, 20, 40, 80 ms).
	reconnectAttempts = 5
	reconnectBackoff  = 5 * time.Millisecond
	// dialTimeout bounds each individual dial and the rank handshake.
	dialTimeout = 2 * time.Second
	// meshSetupTimeout bounds how long NewTCPGroup waits for the full mesh.
	meshSetupTimeout = 10 * time.Second
)

// frame is the wire format of one TCP message.
type frame struct {
	From    int
	Tag     string
	Payload []byte
}

// tcpEndpoint is a rank of a TCP communicator: a full mesh of connections
// on the loopback (or any) interface, length-prefixed gob frames, one
// reader goroutine per peer demultiplexing into the tag-matched inbox.
//
// Failure semantics: when a peer's connection breaks, its reader marks the
// peer down and wakes blocked receivers, which drain any queued messages and
// then fail with *RankDownError instead of hanging. Send to a broken peer
// attempts a bounded redial with exponential backoff (the side that
// originally dialed redials; the accepting side waits for the redial), and
// reports *RankDownError once the attempts are exhausted. The listener stays
// open for the endpoint's lifetime so a reconnecting peer can always get
// back in.
type tcpEndpoint struct {
	rank     int
	size     int
	addrs    []string // listener address of every rank
	listener net.Listener
	inbox    *inbox
	coll     collectives
	wmu      []sync.Mutex // serializes writers per peer

	mu    sync.Mutex // guards the fields below
	conns []net.Conn
	encs  []*gob.Encoder
	gen   []int   // bumped per install; stale readers detect replacement
	down  []error // non-nil: peer's conn is gone and was not replaced; what ended its reader
	nconn int
	dl    time.Duration // default recv deadline / per-send write bound
	// closed endpoints reject sends and stop the accept loop.
	closed bool

	wg sync.WaitGroup // readers + accept loop
}

// NewTCPGroup builds an n-rank communicator over TCP on the given host
// (e.g. "127.0.0.1"). All ranks live in this process — the helper binds n
// listeners on ephemeral ports and dials the full mesh; each listener then
// stays open to serve reconnections.
func NewTCPGroup(n int, host string) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: group size %d < 1", n)
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	eps := make([]*tcpEndpoint, n)
	for i := 0; i < n; i++ {
		eps[i] = &tcpEndpoint{
			rank:     i,
			size:     n,
			addrs:    addrs,
			listener: listeners[i],
			inbox:    newInbox(),
			wmu:      make([]sync.Mutex, n),
			conns:    make([]net.Conn, n),
			encs:     make([]*gob.Encoder, n),
			gen:      make([]int, n),
			down:     make([]error, n),
		}
		eps[i].wg.Add(1)
		go eps[i].acceptLoop()
	}
	fail := func(err error) ([]Endpoint, error) {
		for _, ep := range eps {
			ep.Close()
		}
		return nil, fmt.Errorf("transport: mesh setup: %w", err)
	}
	// Mesh: rank i dials every rank j < i; the lower rank accepts. The
	// dialer sends its rank first so the acceptor can place the conn.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if err := eps[i].dial(j); err != nil {
				return fail(err)
			}
		}
	}
	deadline := time.Now().Add(meshSetupTimeout)
	for _, ep := range eps {
		if err := ep.waitMesh(deadline); err != nil {
			return fail(err)
		}
	}
	out := make([]Endpoint, n)
	for i, ep := range eps {
		out[i] = ep
	}
	return out, nil
}

// dial connects to peer, performs the rank handshake, and installs the
// connection, retrying with exponential backoff.
func (e *tcpEndpoint) dial(peer int) error {
	backoff := reconnectBackoff
	var lastErr error
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return errClosed
		}
		conn, err := net.DialTimeout("tcp", e.addrs[peer], dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(dialTimeout))
		if err := binary.Write(conn, binary.BigEndian, int32(e.rank)); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		conn.SetWriteDeadline(time.Time{})
		e.installConn(peer, conn)
		return nil
	}
	return fmt.Errorf("dial rank %d after %d attempts: %w", peer, reconnectAttempts, lastErr)
}

// waitMesh blocks until this endpoint holds a connection to every peer.
func (e *tcpEndpoint) waitMesh(deadline time.Time) error {
	for {
		e.mu.Lock()
		n, closed := e.nconn, e.closed
		e.mu.Unlock()
		if closed {
			return errClosed
		}
		if n == e.size-1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rank %d: mesh incomplete (%d/%d peers)", e.rank, n, e.size-1)
		}
		time.Sleep(time.Millisecond)
	}
}

// acceptLoop serves the listener for the endpoint's lifetime, installing
// initial and replacement connections from dialing peers.
func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed by Close
		}
		conn.SetReadDeadline(time.Now().Add(dialTimeout))
		var peer int32
		if err := binary.Read(conn, binary.BigEndian, &peer); err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		if int(peer) < 0 || int(peer) >= e.size || int(peer) == e.rank {
			conn.Close()
			continue
		}
		e.installConn(int(peer), conn)
	}
}

// installConn adopts a live connection to peer (replacing any previous one)
// and launches its reader.
func (e *tcpEndpoint) installConn(peer int, conn net.Conn) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		conn.Close()
		return
	}
	if old := e.conns[peer]; old != nil {
		old.Close()
	} else {
		e.nconn++
	}
	e.conns[peer] = conn
	e.encs[peer] = gob.NewEncoder(conn)
	e.gen[peer]++
	gen := e.gen[peer]
	e.down[peer] = nil
	e.mu.Unlock()
	e.wg.Add(1)
	go e.readLoop(peer, gen, conn)
	e.inbox.wake()
}

// readLoop demultiplexes frames from one peer connection into the inbox,
// filed under the rank the connection's handshake established: a frame that
// names another sender is as malformed as one that does not decode, since
// accepting it would let any connected rank speak for any other. When the
// connection dies or turns malformed and has not been replaced, it is
// dropped, the peer is marked down and blocked receivers are woken to
// observe it.
func (e *tcpEndpoint) readLoop(peer, gen int, conn net.Conn) {
	defer e.wg.Done()
	dec := gob.NewDecoder(conn)
	for {
		var f frame
		err := dec.Decode(&f)
		if err == nil && f.From != peer {
			err = fmt.Errorf("%w: frame from rank %d on rank %d's connection", ErrMalformed, f.From, peer)
		}
		if err != nil {
			conn.Close()
			e.mu.Lock()
			if !e.closed && e.gen[peer] == gen {
				e.down[peer] = err
				e.conns[peer] = nil
				e.encs[peer] = nil
				e.nconn--
			}
			e.mu.Unlock()
			e.inbox.wake()
			return
		}
		e.inbox.put(peer, f.Tag, f.Payload)
	}
}

// Rank implements Endpoint.
func (e *tcpEndpoint) Rank() int { return e.rank }

// Size implements Endpoint.
func (e *tcpEndpoint) Size() int { return e.size }

// Send implements Endpoint. On a broken connection it attempts one bounded
// reconnect cycle (dialer side redials with backoff; acceptor side waits for
// the peer's redial) before reporting the peer down.
func (e *tcpEndpoint) Send(to int, tag string, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return errClosed
	}
	if to < 0 || to >= e.size {
		return fmt.Errorf("transport: send to invalid rank %d", to)
	}
	if to == e.rank {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		e.inbox.put(e.rank, tag, cp)
		return nil
	}
	e.wmu[to].Lock()
	defer e.wmu[to].Unlock()
	enc, conn := e.writer(to)
	if enc == nil {
		var err error
		if enc, conn, err = e.reconnect(to); err != nil {
			return err
		}
	}
	if err := e.encode(enc, conn, to, tag, payload); err != nil {
		// The connection broke mid-write: one reconnect cycle, one retry.
		var rerr error
		if enc, conn, rerr = e.reconnect(to); rerr != nil {
			return rerr
		}
		if err = e.encode(enc, conn, to, tag, payload); err != nil {
			return &rankDownError{Rank: to, Reason: fmt.Sprintf("send failed after reconnect: %v", err)}
		}
	}
	return nil
}

// encode writes one frame, bounding the socket write by the configured
// deadline (SendTimeout semantics).
func (e *tcpEndpoint) encode(enc *gob.Encoder, conn net.Conn, to int, tag string, payload []byte) error {
	e.mu.Lock()
	d := e.dl
	e.mu.Unlock()
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return enc.Encode(frame{From: e.rank, Tag: tag, Payload: payload})
}

// writer returns the current encoder/conn pair for peer (nil if down).
func (e *tcpEndpoint) writer(to int) (*gob.Encoder, net.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.encs[to], e.conns[to]
}

// reconnect re-establishes the connection to peer with bounded exponential
// backoff. Only the side that originally dialed (the higher rank) redials;
// the accepting side waits out the same schedule for the peer's redial to
// arrive through the listener.
func (e *tcpEndpoint) reconnect(to int) (*gob.Encoder, net.Conn, error) {
	if to < e.rank { // we dialed this peer originally: redial
		if err := e.dial(to); err != nil {
			return nil, nil, &rankDownError{Rank: to, Reason: fmt.Sprintf("reconnect exhausted: %v", err)}
		}
		enc, conn := e.writer(to)
		if enc == nil {
			return nil, nil, &rankDownError{Rank: to, Reason: "reconnect raced with disconnect"}
		}
		return enc, conn, nil
	}
	// Acceptor side: wait for the peer to redial us.
	backoff := reconnectBackoff
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		if enc, conn := e.writer(to); enc != nil {
			return enc, conn, nil
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return nil, nil, errClosed
		}
	}
	return nil, nil, &rankDownError{Rank: to, Reason: "peer did not reconnect"}
}

// Recv implements Endpoint. It honors the default deadline set with
// SetDeadline and fails fast — after draining queued messages — when the
// peer's connection is down.
func (e *tcpEndpoint) Recv(from int, tag string) ([]byte, error) {
	e.mu.Lock()
	d := e.dl
	e.mu.Unlock()
	return e.RecvTimeout(from, tag, d)
}

// RecvTimeout implements TimedEndpoint.
func (e *tcpEndpoint) RecvTimeout(from int, tag string, d time.Duration) ([]byte, error) {
	if from < 0 || from >= e.size {
		return nil, fmt.Errorf("transport: recv from invalid rank %d", from)
	}
	var failed func() error
	if from != e.rank {
		failed = func() error {
			e.mu.Lock()
			defer e.mu.Unlock()
			if cause := e.down[from]; cause != nil {
				return &rankDownError{Rank: from, Reason: fmt.Sprintf("peer disconnected: %v", cause), Cause: cause}
			}
			return nil
		}
	}
	return e.inbox.get(from, tag, d, failed)
}

// TryRecv implements Poller. A down peer is not an error here: any queued
// frames are still drained, and an empty queue just reports no message.
func (e *tcpEndpoint) TryRecv(from int, tag string) ([]byte, bool, error) {
	if from < 0 || from >= e.size {
		return nil, false, fmt.Errorf("transport: recv from invalid rank %d", from)
	}
	return e.inbox.tryGet(from, tag)
}

// SetDeadline implements TimedEndpoint.
func (e *tcpEndpoint) SetDeadline(d time.Duration) {
	e.mu.Lock()
	e.dl = d
	e.mu.Unlock()
}

// Barrier implements Endpoint.
func (e *tcpEndpoint) Barrier() error {
	_, err := allGather(e, e.coll.nextTag("barrier"), nil)
	return err
}

// AllGather implements Endpoint.
func (e *tcpEndpoint) AllGather(payload []byte) ([][]byte, error) {
	return allGather(e, e.coll.nextTag("allgather"), payload)
}

// Bcast implements Endpoint.
func (e *tcpEndpoint) Bcast(root int, payload []byte) ([]byte, error) {
	return bcast(e, e.coll.nextTag("bcast"), root, payload)
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := append([]net.Conn(nil), e.conns...)
	e.mu.Unlock()
	e.listener.Close()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	e.wg.Wait()
	e.inbox.close()
	return nil
}
