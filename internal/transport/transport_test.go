package transport

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// groupFactory builds an n-rank communicator for the cross-implementation
// test suite.
type groupFactory struct {
	name string
	make func(n int) ([]Endpoint, error)
}

func factories() []groupFactory {
	return []groupFactory{
		{"chan", NewGroup},
		{"tcp", func(n int) ([]Endpoint, error) { return NewTCPGroup(n, "127.0.0.1") }},
	}
}

func closeAll(eps []Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

func TestSendRecvBothTransports(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			if err := eps[0].Send(1, "data", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv(0, "data")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Errorf("got %q", got)
			}
		})
	}
}

func TestTagMatching(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			// Send two tags out of order; Recv must match by tag.
			if err := eps[0].Send(1, "b", []byte("two")); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(1, "a", []byte("one")); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv(0, "a")
			if err != nil || string(got) != "one" {
				t.Fatalf("tag a: %q, %v", got, err)
			}
			got, err = eps[1].Recv(0, "b")
			if err != nil || string(got) != "two" {
				t.Fatalf("tag b: %q, %v", got, err)
			}
		})
	}
}

func TestFIFOWithinTag(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			for i := 0; i < 20; i++ {
				if err := eps[0].Send(1, "seq", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				got, err := eps[1].Recv(0, "seq")
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != byte(i) {
					t.Fatalf("out of order: got %d at %d", got[0], i)
				}
			}
		})
	}
}

func TestAllGather(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			const n = 4
			eps, err := f.make(n)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			results := make([][][]byte, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, err := eps[r].AllGather([]byte(fmt.Sprintf("rank%d", r)))
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
						return
					}
					results[r] = out
				}()
			}
			wg.Wait()
			for r := 0; r < n; r++ {
				for i := 0; i < n; i++ {
					if want := fmt.Sprintf("rank%d", i); string(results[r][i]) != want {
						t.Errorf("rank %d slot %d = %q", r, i, results[r][i])
					}
				}
			}
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			const n = 3
			eps, err := f.make(n)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			var before, after sync.WaitGroup
			var mu sync.Mutex
			entered := 0
			before.Add(n)
			after.Add(n)
			for r := 0; r < n; r++ {
				r := r
				go func() {
					mu.Lock()
					entered++
					mu.Unlock()
					before.Done()
					if err := eps[r].Barrier(); err != nil {
						t.Errorf("barrier rank %d: %v", r, err)
					}
					after.Done()
				}()
			}
			before.Wait()
			after.Wait()
			if entered != n {
				t.Errorf("entered = %d", entered)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			const n = 4
			eps, err := f.make(n)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			var wg sync.WaitGroup
			results := make([][]byte, n)
			for r := 0; r < n; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					var payload []byte
					if r == 2 {
						payload = []byte("from-root")
					}
					out, err := eps[r].Bcast(2, payload)
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
						return
					}
					results[r] = out
				}()
			}
			wg.Wait()
			for r := 0; r < n; r++ {
				if string(results[r]) != "from-root" {
					t.Errorf("rank %d got %q", r, results[r])
				}
			}
		})
	}
}

func TestBackToBackCollectivesDoNotCross(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			const n = 3
			eps, err := f.make(n)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 10; round++ {
						out, err := eps[r].AllGather([]byte{byte(round)})
						if err != nil {
							t.Errorf("rank %d round %d: %v", r, round, err)
							return
						}
						for i := range out {
							if out[i][0] != byte(round) {
								t.Errorf("rank %d round %d: crossed with round %d", r, round, out[i][0])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestClosedEndpointErrors(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			eps[0].Close()
			if err := eps[0].Send(1, "x", nil); err != errClosed {
				t.Errorf("Send after close = %v", err)
			}
			// A receiver blocked on a closed endpoint must return.
			done := make(chan error, 1)
			go func() {
				_, err := eps[0].Recv(1, "never")
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Error("Recv on closed endpoint returned nil error")
				}
			case <-time.After(2 * time.Second):
				t.Error("Recv on closed endpoint hung")
			}
			eps[1].Close()
		})
	}
}

func TestInvalidRanks(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			if err := eps[0].Send(5, "x", nil); err == nil {
				t.Error("send to invalid rank accepted")
			}
			if _, err := eps[0].Recv(-1, "x"); err == nil {
				t.Error("recv from invalid rank accepted")
			}
		})
	}
}

func TestSelfSendTCP(t *testing.T) {
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	if err := eps[0].Send(0, "self", []byte("me")); err != nil {
		t.Fatal(err)
	}
	got, err := eps[0].Recv(0, "self")
	if err != nil || string(got) != "me" {
		t.Errorf("self send: %q, %v", got, err)
	}
}

func TestGroupSizeValidation(t *testing.T) {
	if _, err := NewGroup(0); err == nil {
		t.Error("NewGroup(0) accepted")
	}
	if _, err := NewTCPGroup(0, "127.0.0.1"); err == nil {
		t.Error("NewTCPGroup(0) accepted")
	}
}

func TestPayloadIsolation(t *testing.T) {
	// Mutating the sender's buffer after Send must not affect delivery.
	eps, _ := NewGroup(2)
	defer closeAll(eps)
	buf := []byte("original")
	eps[0].Send(1, "t", buf)
	copy(buf, "mutated!")
	got, _ := eps[1].Recv(0, "t")
	if string(got) != "original" {
		t.Errorf("payload aliased sender buffer: %q", got)
	}
}

func TestGobHelpers(t *testing.T) {
	type msg struct {
		A int
		B string
	}
	in := msg{A: 7, B: "x"}
	payload, err := EncodeGob(in)
	if err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := DecodeGob(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v", out)
	}
	if err := DecodeGob([]byte("garbage"), &out); err == nil {
		t.Error("garbage decoded")
	}
}

func TestManyMessagesTCP(t *testing.T) {
	// Stress the persistent encoder/decoder pair with larger payloads.
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	const rounds = 50
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := eps[0].Send(1, "bulk", payload); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < rounds; i++ {
		got, err := eps[1].Recv(0, "bulk")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload) || got[12345] != payload[12345] {
			t.Fatal("payload corrupted")
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestRecvRecyclesOnlyAfterNextRecvFromSamePeer holds both transports to
// the payload ownership rule (see Endpoint.Recv). Rank 0 keeps a payload
// from rank 1 while rank 1 keeps sending and rank 0 receives from rank 2:
// the held bytes must not change (under -race, nothing may even write
// them). Rank 0's next receive from rank 1 hands the buffer back, and the
// next message rank 1 sends lands in it.
func TestRecvRecyclesOnlyAfterNextRecvFromSamePeer(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			eps, err := f.make(3)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(eps)
			msg := func(i int) []byte { return []byte(fmt.Sprintf("message %02d", i)) }
			recv := func(from, i int) []byte {
				t.Helper()
				got, err := eps[0].Recv(from, "t")
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(msg(i)) {
					t.Fatalf("from rank %d: got %q, want %q", from, got, msg(i))
				}
				return got
			}
			if err := eps[1].Send(0, "t", msg(1)); err != nil {
				t.Fatal(err)
			}
			held := recv(1, 1)
			sent := make(chan error, 1)
			go func() {
				for i := 2; i <= 5; i++ {
					if err := eps[1].Send(0, "t", msg(i)); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			for i := 0; i < 4; i++ {
				if err := eps[2].Send(0, "t", msg(i)); err != nil {
					t.Fatal(err)
				}
				recv(2, i)
				if string(held) != string(msg(1)) {
					t.Fatalf("a receive from rank 2 overwrote rank 1's held payload: %q", held)
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			// Once messages 2-5 are all queued (a TCP reader may lag the
			// sends), each receive from rank 1 hands back the buffer of the
			// one before it, and message 6 must land in one of those.
			for deadline := time.Now().Add(5 * time.Second); queued(eps[0], 1, "t") < 4; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("rank 1's messages never arrived")
				}
			}
			handed := []*byte{&held[0]}
			for i := 2; i <= 5; i++ {
				handed = append(handed, &recv(1, i)[0])
			}
			if err := eps[1].Send(0, "t", msg(6)); err != nil {
				t.Fatal(err)
			}
			if got := recv(1, 6); !slices.Contains(handed, &got[0]) {
				t.Error("message 6 did not reuse a buffer handed back by a receive from rank 1")
			}
		})
	}
}

// queued counts the messages a built-in endpoint holds for (from, tag).
func queued(ep Endpoint, from int, tag string) int {
	var ib *inbox
	switch e := ep.(type) {
	case *chanEndpoint:
		ib = e.inbox
	case *tcpEndpoint:
		ib = e.inbox
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.queues[inboxKey{from, tag}])
}
