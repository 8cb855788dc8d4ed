package transport

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"
)

// recvResult carries a Recv outcome across a goroutine boundary.
type recvResult struct {
	payload []byte
	err     error
}

// TestAllMethodsErrClosedAfterClose verifies every Endpoint method fails with
// ErrClosed once the endpoint is closed, on both transports.
func TestAllMethodsErrClosedAfterClose(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			if err := eps[0].Close(); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(1, "x", nil); !errors.Is(err, errClosed) {
				t.Errorf("Send = %v", err)
			}
			if _, err := eps[0].Recv(1, "x"); !errors.Is(err, errClosed) {
				t.Errorf("Recv = %v", err)
			}
			if _, err := eps[0].(TimedEndpoint).RecvTimeout(1, "x", time.Second); !errors.Is(err, errClosed) {
				t.Errorf("RecvTimeout = %v", err)
			}
			if err := eps[0].Barrier(); !errors.Is(err, errClosed) {
				t.Errorf("Barrier = %v", err)
			}
			if _, err := eps[0].AllGather(nil); !errors.Is(err, errClosed) {
				t.Errorf("AllGather = %v", err)
			}
			// Non-root Bcast takes the Recv path; root takes the Send path.
			if _, err := eps[0].Bcast(1, nil); !errors.Is(err, errClosed) {
				t.Errorf("Bcast (non-root) = %v", err)
			}
			if _, err := eps[0].Bcast(0, []byte("x")); !errors.Is(err, errClosed) {
				t.Errorf("Bcast (root) = %v", err)
			}
			if err := eps[0].Close(); err != nil {
				t.Errorf("second Close = %v", err)
			}
		})
	}
}

// TestRecvTimeoutExpires verifies a deadline-bounded receive from a silent
// (but connected) peer returns ErrRankDown within the configured bound
// instead of blocking forever.
func TestRecvTimeoutExpires(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			start := time.Now()
			_, err = eps[0].(TimedEndpoint).RecvTimeout(1, "silent", 50*time.Millisecond)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrRankDown) {
				t.Fatalf("err = %v, want ErrRankDown", err)
			}
			var rde *rankDownError
			if !errors.As(err, &rde) || rde.Rank != 1 {
				t.Errorf("error does not identify peer: %v", err)
			}
			if elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
				t.Errorf("returned after %v, want ~50ms", elapsed)
			}
			// A message that is already queued beats the deadline.
			if err := eps[1].Send(0, "ready", []byte("ok")); err != nil {
				t.Fatal(err)
			}
			if got, err := eps[0].(TimedEndpoint).RecvTimeout(1, "ready", time.Second); err != nil || string(got) != "ok" {
				t.Errorf("queued message: %q, %v", got, err)
			}
		})
	}
}

// TestSetDeadlineBoundsPlainRecv verifies SetDeadline applies to Recv calls
// that do not pass an explicit timeout.
func TestSetDeadlineBoundsPlainRecv(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			eps[0].(TimedEndpoint).SetDeadline(50 * time.Millisecond)
			done := make(chan error, 1)
			go func() {
				_, err := eps[0].Recv(1, "never")
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrRankDown) {
					t.Errorf("err = %v, want ErrRankDown", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv ignored the default deadline")
			}
			// Clearing the deadline restores blocking semantics.
			eps[0].(TimedEndpoint).SetDeadline(0)
			go func() {
				_, err := eps[0].Recv(1, "eventually")
				done <- err
			}()
			time.Sleep(100 * time.Millisecond)
			if err := eps[1].Send(0, "eventually", nil); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Errorf("blocking recv after deadline reset: %v", err)
			}
		})
	}
}

// TestMismatchedCollectives verifies that ranks entering different collective
// operations error out under a deadline rather than deadlocking. (Collectives
// must be entered by all ranks in the same order; the tag-per-generation
// scheme turns a mismatch into a missing message.)
func TestMismatchedCollectives(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			for _, ep := range eps {
				ep.(TimedEndpoint).SetDeadline(100 * time.Millisecond)
			}
			errs := make(chan error, 2)
			go func() { errs <- eps[0].Barrier() }()
			go func() {
				_, err := eps[1].AllGather([]byte("mismatch"))
				errs <- err
			}()
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrRankDown) {
						t.Errorf("mismatched collective err = %v, want ErrRankDown", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("mismatched collectives deadlocked despite deadline")
				}
			}
		})
	}
}

// breakConn force-closes the TCP connection between two endpoints of a group
// without closing either endpoint, simulating a network-level disconnect.
func breakConn(t *testing.T, ep Endpoint, peer int) {
	t.Helper()
	te := ep.(*tcpEndpoint)
	te.mu.Lock()
	conn := te.conns[peer]
	te.mu.Unlock()
	if conn == nil {
		t.Fatalf("no live conn from rank %d to %d", te.rank, peer)
	}
	conn.Close()
}

// waitDown polls until ep has marked peer down (its read loop observed the
// broken connection).
func waitDown(t *testing.T, ep Endpoint, peer int) {
	t.Helper()
	te := ep.(*tcpEndpoint)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		te.inbox.mu.Lock()
		down := te.inbox.down[peer] != nil
		te.inbox.mu.Unlock()
		if down {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("rank %d never marked peer %d down", te.rank, peer)
}

// TestTCPPeerDisconnectMidRecv verifies that a receiver blocked on a peer
// whose connection drops fails with ErrRankDown — after draining messages
// that were already delivered.
func TestTCPPeerDisconnectMidRecv(t *testing.T) {
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	// Deliver one message fully before the wire breaks.
	if err := eps[0].Send(1, "pre", []byte("landed")); err != nil {
		t.Fatal(err)
	}
	if got, err := eps[1].Recv(0, "pre"); err != nil || string(got) != "landed" {
		t.Fatalf("pre-break delivery: %q, %v", got, err)
	}
	// Park a receiver, then cut the connection underneath it.
	res := make(chan recvResult, 1)
	go func() {
		p, err := eps[1].Recv(0, "never")
		res <- recvResult{p, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the receiver block
	breakConn(t, eps[1], 0)
	select {
	case r := <-res:
		if !errors.Is(r.err, ErrRankDown) {
			t.Errorf("mid-recv disconnect err = %v, want ErrRankDown", r.err)
		}
		var rde *rankDownError
		if !errors.As(r.err, &rde) || rde.Rank != 0 {
			t.Errorf("error does not identify peer 0: %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver hung across peer disconnect")
	}
}

// TestTCPQueuedMessagesSurviveDisconnect verifies messages demultiplexed into
// the inbox before a disconnect remain receivable afterwards.
func TestTCPQueuedMessagesSurviveDisconnect(t *testing.T) {
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	if err := eps[0].Send(1, "q", []byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	// Wait until the frame is demultiplexed, then break the wire.
	deadline := time.Now().Add(5 * time.Second)
	te := eps[1].(*tcpEndpoint)
	for {
		te.inbox.mu.Lock()
		n := len(te.inbox.queues)
		te.inbox.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	breakConn(t, eps[1], 0)
	waitDown(t, eps[1], 0)
	if got, err := eps[1].Recv(0, "q"); err != nil || string(got) != "keep-me" {
		t.Errorf("queued message after disconnect: %q, %v", got, err)
	}
	// Only after the queue drains does the peer-down error surface.
	if _, err := eps[1].Recv(0, "q"); !errors.Is(err, ErrRankDown) {
		t.Errorf("drained queue err = %v, want ErrRankDown", err)
	}
}

// waitUp polls until ep holds a live connection to peer of at least the
// given generation (the mesh installs generation 1), so a test waiting for
// a redial cannot mistake the broken connection, before its reader has
// noticed, for the new one.
func waitUp(t *testing.T, ep Endpoint, peer, gen int) {
	t.Helper()
	te := ep.(*tcpEndpoint)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		te.mu.Lock()
		up := te.conns[peer] != nil && te.gen[peer] >= gen
		te.mu.Unlock()
		if up {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("rank %d never reconnected to peer %d", te.rank, peer)
}

// TestTCPSendReconnects verifies the dialer side of a broken connection
// redials with backoff and the message flows again.
func TestTCPSendReconnects(t *testing.T) {
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	// Rank 1 dialed rank 0 during mesh setup, so rank 1 owns the redial.
	breakConn(t, eps[1], 0)
	waitDown(t, eps[1], 0)
	if err := eps[1].Send(0, "again", []byte("back")); err != nil {
		t.Fatalf("send after disconnect: %v", err)
	}
	// Rank 0 sees the peer as down until its accept loop installs the new
	// connection; a Recv issued in that window fails fast by design, so wait
	// for the reconnect to land before receiving.
	waitUp(t, eps[0], 1, 2)
	if got, err := eps[0].Recv(1, "again"); err != nil || string(got) != "back" {
		t.Errorf("post-reconnect delivery: %q, %v", got, err)
	}
	// And traffic in the other direction works over the new connection too.
	if err := eps[0].Send(1, "rev", []byte("forward")); err != nil {
		t.Fatalf("reverse send after reconnect: %v", err)
	}
	if got, err := eps[1].Recv(0, "rev"); err != nil || string(got) != "forward" {
		t.Errorf("reverse delivery: %q, %v", got, err)
	}
}

// TestTCPReconnectExhaustion verifies the acceptor side reports ErrRankDown
// once the bounded reconnect schedule is exhausted and the peer never
// returns.
func TestTCPReconnectExhaustion(t *testing.T) {
	oldAttempts, oldBackoff := reconnectAttempts, reconnectBackoff
	reconnectAttempts, reconnectBackoff = 3, time.Millisecond
	defer func() { reconnectAttempts, reconnectBackoff = oldAttempts, oldBackoff }()

	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	// Kill rank 1 outright: close its endpoint so it can never redial, then
	// have rank 0 (the acceptor side for peer 1) try to send.
	eps[1].Close()
	waitDown(t, eps[0], 1)
	start := time.Now()
	err = eps[0].Send(1, "void", []byte("x"))
	if !errors.Is(err, ErrRankDown) {
		t.Fatalf("send to dead peer err = %v, want ErrRankDown", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("reconnect exhaustion took %v, want bounded backoff", elapsed)
	}
}

// hostileFrame connects to rank 0 of a 3-rank TCP group the way rank 1
// does — dial, then send the rank — writes raw, then (if hangUp) closes the
// connection. The frame must drop that connection: a receiver waiting on
// rank 1 fails with ErrRankDown caused by ErrMalformed well before its
// deadline, nothing is filed under the frame's tag, and rank 2's own
// connection still delivers.
func hostileFrame(t *testing.T, raw []byte, hangUp bool) {
	t.Helper()
	eps, err := NewTCPGroup(3, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	victim := eps[0].(*tcpEndpoint)
	conn, err := net.Dial("tcp", victim.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := binary.Write(conn, binary.BigEndian, int32(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if hangUp {
		conn.Close()
	}

	start := time.Now()
	_, err = victim.RecvTimeout(1, "bad", 5*time.Second)
	if !errors.Is(err, ErrRankDown) || !errors.Is(err, ErrMalformed) {
		t.Errorf("recv from the hostile connection: err = %v, want ErrRankDown caused by ErrMalformed", err)
	}
	if time.Since(start) > 4*time.Second {
		t.Errorf("receiver only gave up at its %v deadline; the hostile connection was not dropped", time.Since(start))
	}
	if p, ok, err := victim.TryRecv(1, "bad"); ok || err != nil {
		t.Errorf("hostile frame delivered: %q, ok=%v, err=%v", p, ok, err)
	}
	if err := eps[2].Send(0, "bad", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	if got, err := victim.RecvTimeout(2, "bad", 5*time.Second); err != nil || string(got) != "genuine" {
		t.Errorf("rank 2 frame after the hostile one: %q, %v", got, err)
	}
}

// TestTCPOversizeFrameRejected sends a header declaring a payload past
// maxFrame on a connection that stays open: the reader must reject
// the length itself, before allocating or waiting for the bytes.
func TestTCPOversizeFrameRejected(t *testing.T) {
	hostileFrame(t, appendFrameHeader(nil, "bad", math.MaxUint32), false)
}

// TestTCPTruncatedFrameRejected sends a frame whose stream ends ten bytes
// into a declared hundred-byte payload.
func TestTCPTruncatedFrameRejected(t *testing.T) {
	raw := appendFrameHeader(nil, "bad", 100)
	hostileFrame(t, append(raw, make([]byte, 10)...), true)
}
