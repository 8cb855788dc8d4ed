package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// A TCP frame is a u32 payload length and a u16 tag length, little-endian,
// then the tag, then the payload. The sender's rank is not on the wire: the
// connection's handshake fixed it. A header declaring more than maxFrame or
// maxTag bytes is malformed; readBufSize holds any header and tag.
const maxFrame, maxTag, readBufSize = 1 << 30, 1 << 10, 64 << 10

// appendFrameHeader appends the header and tag of an n-byte payload's frame.
func appendFrameHeader(dst []byte, tag string, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(tag)))
	return append(dst, tag...)
}

// readFrame reads one frame. Its tag comes from tags, the connection's
// cache of its last few tags (cleared at 8), when there, so the few a
// peer alternates allocate no string. Its n-byte payload lands in buf(n)
// when that has room; otherwise one past readBufSize lands in a buffer
// grown as its bytes arrive, so no declared length allocates far ahead of
// them. A clean end of stream between frames is io.EOF; a header past the
// limits or a stream cut inside a frame wraps ErrMalformed.
func readFrame(br *bufio.Reader, tags map[string]string, buf func(n int) []byte) (tag string, p []byte, err error) {
	hdr, err := br.Peek(6)
	if len(hdr) == 0 {
		return "", nil, err
	}
	defer func() {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream ends inside a frame", ErrMalformed)
		}
	}()
	if err != nil {
		return "", nil, err
	}
	n32, tn := binary.LittleEndian.Uint32(hdr), int(binary.LittleEndian.Uint16(hdr[4:]))
	if n32 > maxFrame || tn > maxTag {
		return "", nil, fmt.Errorf("%w: frame declares a %d-byte tag and a %d-byte payload", ErrMalformed, tn, n32)
	}
	n := int(n32)
	if hdr, err = br.Peek(6 + tn); err != nil {
		return "", nil, err
	}
	if tag = tags[string(hdr[6:])]; tag == "" && tn > 0 {
		if len(tags) == 8 {
			clear(tags)
		}
		tag = string(hdr[6:])
		tags[tag] = tag
	}
	br.Discard(6 + tn)
	if p = buf(n); cap(p) < n && n <= readBufSize {
		p = make([]byte, n)
	}
	if cap(p) >= n {
		_, err = io.ReadFull(br, p[:n])
		return tag, p[:n], err
	}
	var b bytes.Buffer
	_, err = io.CopyN(&b, br, int64(n))
	return tag, b.Bytes(), err
}

// frameWriter is one peer's send side, reused by every Send to it.
type frameWriter struct {
	mu   sync.Mutex // serializes writers to the peer
	hdr  []byte
	iov  [2][]byte
	bufs net.Buffers
}

// tcpEndpoint is a rank of a TCP communicator: a full mesh of connections
// on the loopback (or any) interface, binary frames (see readFrame), one
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
	base
	addrs    []string // listener address of every rank
	listener net.Listener
	w        []frameWriter

	// Guarded by mu. A peer's entry in conns is nil while its connection is
	// down and not replaced; the inbox keeps what ended it.
	meshed *sync.Cond // broadcast when a connection is installed or the endpoint closes
	conns  []net.Conn
	gen    []int // bumped per install; stale readers detect replacement
	nconn  int

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
			base:     base{rank: i, size: n, inbox: newInbox(n)},
			addrs:    addrs,
			listener: listeners[i],
			w:        make([]frameWriter, n),
			conns:    make([]net.Conn, n),
			gen:      make([]int, n),
		}
		eps[i].collectives.ep = eps[i]
		eps[i].meshed = sync.NewCond(&eps[i].mu)
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
		if e.isClosed() {
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

// waitMesh blocks until this endpoint holds a connection to every peer,
// woken by each installConn and, at the deadline, by a timer.
func (e *tcpEndpoint) waitMesh(deadline time.Time) error {
	defer time.AfterFunc(time.Until(deadline), func() {
		e.mu.Lock()
		e.meshed.Broadcast()
		e.mu.Unlock()
	}).Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.closed && e.nconn < e.size-1 && time.Now().Before(deadline) {
		e.meshed.Wait()
	}
	if e.closed {
		return errClosed
	} else if e.nconn < e.size-1 {
		return fmt.Errorf("rank %d: mesh incomplete (%d/%d peers)", e.rank, e.nconn, e.size-1)
	}
	return nil
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
	e.gen[peer]++
	gen := e.gen[peer]
	e.inbox.setDown(peer, nil)
	e.meshed.Broadcast()
	e.mu.Unlock()
	e.wg.Add(1)
	go e.readLoop(peer, gen, conn)
}

// readLoop demultiplexes frames from one peer connection into the inbox,
// filed under the rank the connection's handshake established, each payload
// read into a buffer recycled from that peer's free list. When the
// connection dies or turns malformed and has not been replaced, it is
// dropped, the peer is marked down and blocked receivers are woken to
// observe it.
func (e *tcpEndpoint) readLoop(peer, gen int, conn net.Conn) {
	defer e.wg.Done()
	br := bufio.NewReaderSize(conn, readBufSize)
	tags := make(map[string]string)
	recycled := func(n int) []byte { return e.inbox.recycled(peer, n) }
	for {
		tag, payload, err := readFrame(br, tags, recycled)
		if err != nil {
			conn.Close()
			e.mu.Lock()
			if !e.closed && e.gen[peer] == gen {
				e.inbox.setDown(peer, err)
				e.conns[peer] = nil
				e.nconn--
			}
			e.mu.Unlock()
			return
		}
		e.inbox.put(peer, tag, payload)
	}
}

// Send implements Endpoint. On a broken connection it attempts one bounded
// reconnect cycle (dialer side redials with backoff; acceptor side waits for
// the peer's redial) before reporting the peer down.
func (e *tcpEndpoint) Send(to int, tag string, payload []byte) error {
	if e.isClosed() {
		return errClosed
	}
	if to < 0 || to >= e.size {
		return fmt.Errorf("transport: send to invalid rank %d", to)
	}
	if len(tag) > maxTag || len(payload) > maxFrame {
		return fmt.Errorf("transport: a %d-byte tag or a %d-byte payload is past the frame limits", len(tag), len(payload))
	}
	if to == e.rank {
		e.inbox.deliver(e.rank, tag, payload)
		return nil
	}
	w := &e.w[to]
	w.mu.Lock()
	defer w.mu.Unlock()
	conn := e.conn(to)
	if conn == nil {
		var err error
		if conn, err = e.reconnect(to); err != nil {
			return err
		}
	}
	if err := e.write(w, conn, tag, payload); err != nil {
		// The connection broke mid-write: one reconnect cycle, one retry.
		var rerr error
		if conn, rerr = e.reconnect(to); rerr != nil {
			return rerr
		}
		if err = e.write(w, conn, tag, payload); err != nil {
			return &rankDownError{Rank: to, Reason: fmt.Sprintf("send failed after reconnect: %v", err)}
		}
	}
	return nil
}

// write sends one frame as a single writev of the header and the caller's
// payload, uncopied, bounding the socket write by the configured deadline
// (SendTimeout semantics).
func (e *tcpEndpoint) write(w *frameWriter, conn net.Conn, tag string, payload []byte) error {
	e.mu.Lock()
	d := e.dl
	e.mu.Unlock()
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
		defer conn.SetWriteDeadline(time.Time{})
	}
	w.hdr = appendFrameHeader(w.hdr[:0], tag, len(payload))
	w.iov = [2][]byte{w.hdr, payload}
	w.bufs = w.iov[:]
	_, err := w.bufs.WriteTo(conn)
	return err
}

// conn returns the current connection to peer (nil if down).
func (e *tcpEndpoint) conn(to int) net.Conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conns[to]
}

// reconnect re-establishes the connection to peer with bounded exponential
// backoff. Only the side that originally dialed (the higher rank) redials;
// the accepting side waits out the same schedule for the peer's redial to
// arrive through the listener.
func (e *tcpEndpoint) reconnect(to int) (net.Conn, error) {
	if to < e.rank { // we dialed this peer originally: redial
		if err := e.dial(to); err != nil {
			return nil, &rankDownError{Rank: to, Reason: fmt.Sprintf("reconnect exhausted: %v", err)}
		}
		conn := e.conn(to)
		if conn == nil {
			return nil, &rankDownError{Rank: to, Reason: "reconnect raced with disconnect"}
		}
		return conn, nil
	}
	// Acceptor side: wait for the peer to redial us.
	backoff := reconnectBackoff
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		if conn := e.conn(to); conn != nil {
			return conn, nil
		}
		if e.isClosed() {
			return nil, errClosed
		}
	}
	return nil, &rankDownError{Rank: to, Reason: "peer did not reconnect"}
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.meshed.Broadcast()
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
