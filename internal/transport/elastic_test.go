package transport

import (
	"errors"
	"testing"
	"time"
)

func TestTryRecvPollsWithoutBlocking(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	p := eps[1].(Poller)
	if _, ok, err := p.TryRecv(0, "x"); ok || err != nil {
		t.Fatalf("TryRecv on empty inbox = ok=%v err=%v", ok, err)
	}
	if err := eps[0].Send(1, "x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, ok, err := p.TryRecv(0, "x")
	if err != nil || !ok || string(msg) != "hello" {
		t.Fatalf("TryRecv after send = %q ok=%v err=%v", msg, ok, err)
	}
	if _, ok, _ := p.TryRecv(0, "x"); ok {
		t.Fatal("TryRecv returned the same message twice")
	}
	if _, _, err := eps[0].(Poller).TryRecv(-1, "x"); err == nil {
		t.Fatal("TryRecv accepted an invalid rank")
	}
}

func TestTryRecvTCP(t *testing.T) {
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	if err := eps[0].Send(1, "j", []byte("announce")); err != nil {
		t.Fatal(err)
	}
	p := eps[1].(Poller)
	deadline := time.Now().Add(2 * time.Second)
	for {
		msg, ok, err := p.TryRecv(0, "j")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if string(msg) != "announce" {
				t.Fatalf("TryRecv = %q", msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFaultyReviveRestoresTraffic(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	f := NewFaulty(eps[0], FaultSpec{})
	f.Kill()
	if err := f.Send(1, "x", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recv(1, "x"); !errors.Is(err, errClosed) {
		t.Fatalf("killed recv err = %v", err)
	}
	f.Revive()
	if f.isKilled() {
		t.Fatal("Revive did not clear the killed state")
	}
	if err := f.Send(1, "x", []byte("back")); err != nil {
		t.Fatal(err)
	}
	msg, err := eps[1].(TimedEndpoint).RecvTimeout(0, "x", time.Second)
	if err != nil || string(msg) != "back" {
		t.Fatalf("post-revive delivery = %q, %v (the killed-window message must stay lost)", msg, err)
	}
	// TryRecv through the wrapper works again too.
	if err := eps[1].Send(0, "y", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := f.TryRecv(1, "y")
	if err != nil || !ok || string(got) != "pong" {
		t.Fatalf("post-revive TryRecv = %q ok=%v err=%v", got, ok, err)
	}
}

func TestFaultyPauseWindow(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	// Send 2 falls inside the window [PauseAfterSends, ResumeAfterSends).
	f := NewFaulty(eps[0], FaultSpec{PauseAfterSends: 1, ResumeAfterSends: 2})
	for _, m := range []string{"before", "swallowed"} {
		if err := f.Send(1, "x", []byte(m)); err != nil {
			t.Fatalf("send %q must not error: %v", m, err)
		}
	}
	// The paused rank still receives (asymmetric partition).
	if err := eps[1].Send(0, "in", []byte("heard")); err != nil {
		t.Fatal(err)
	}
	if msg, err := f.RecvTimeout(1, "in", time.Second); err != nil || string(msg) != "heard" {
		t.Fatalf("paused rank recv = %q, %v", msg, err)
	}
	if err := f.Send(1, "x", []byte("after")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"before", "after"} {
		msg, err := eps[1].(TimedEndpoint).RecvTimeout(0, "x", time.Second)
		if err != nil || string(msg) != want {
			t.Fatalf("delivery = %q, %v; want %q", msg, err, want)
		}
	}
	if f.stats.paused != 1 {
		t.Errorf("paused = %d, want 1", f.stats.paused)
	}
}

func TestFaultyPauseWindowBySends(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	// Sends 3 and 4 fall inside the window [PauseAfterSends, ResumeAfterSends).
	f := NewFaulty(eps[0], FaultSpec{PauseAfterSends: 2, ResumeAfterSends: 4})
	for i := 0; i < 6; i++ {
		if err := f.Send(1, "x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.stats; st.paused != 2 {
		t.Fatalf("paused = %d, want 2 (stats %+v)", st.paused, st)
	}
	var got []byte
	for {
		msg, err := eps[1].(TimedEndpoint).RecvTimeout(0, "x", 50*time.Millisecond)
		if err != nil {
			break
		}
		got = append(got, msg[0])
	}
	if string(got) != string([]byte{0, 1, 4, 5}) {
		t.Errorf("delivered sends %v, want [0 1 4 5]", got)
	}
}
