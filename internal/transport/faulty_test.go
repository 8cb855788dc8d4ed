package transport

import (
	"errors"
	"testing"
	"time"
)

func TestFaultyDropIsDeterministic(t *testing.T) {
	counts := make([]faultStats, 2)
	for trial := range counts {
		eps, err := NewGroup(2)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFaulty(eps[0], FaultSpec{Seed: 42, DropProb: 0.5})
		for i := 0; i < 100; i++ {
			if err := f.Send(1, "x", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		counts[trial] = f.stats
		closeAll(eps)
	}
	if counts[0] != counts[1] {
		t.Errorf("same seed gave different fault sequences: %+v vs %+v", counts[0], counts[1])
	}
	if counts[0].dropped == 0 || counts[0].dropped == counts[0].sends {
		t.Errorf("drop injection degenerate: %+v", counts[0])
	}
	// Delivered message count must match Sends - Dropped.
	eps, _ := NewGroup(2)
	defer closeAll(eps)
	f := NewFaulty(eps[0], FaultSpec{Seed: 42, DropProb: 0.5})
	for i := 0; i < 100; i++ {
		f.Send(1, "x", []byte{byte(i)})
	}
	st := f.stats
	delivered := 0
	for {
		if _, err := eps[1].(TimedEndpoint).RecvTimeout(0, "x", 50*time.Millisecond); err != nil {
			break
		}
		delivered++
	}
	if int64(delivered) != st.sends-st.dropped {
		t.Errorf("delivered %d, want %d", delivered, st.sends-st.dropped)
	}
}

func TestFaultyDelayInjection(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	f := NewFaulty(eps[0], FaultSpec{Seed: 7, DelayProb: 1.0, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := f.Send(1, "d", []byte("late")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("delayed send returned after %v, want >= 20ms", elapsed)
	}
	if got := f.stats.delayed; got != 1 {
		t.Errorf("Delayed = %d", got)
	}
}

func TestFaultyKillGoesSilent(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	f := NewFaulty(eps[0], FaultSpec{})
	if f.isKilled() {
		t.Fatal("fresh endpoint reports killed")
	}
	f.Kill()
	if !f.isKilled() {
		t.Fatal("Kill did not stick")
	}
	// Sends vanish without error (a dead process produces no diagnostics).
	if err := f.Send(1, "x", []byte("ghost")); err != nil {
		t.Errorf("post-kill send err = %v", err)
	}
	if _, err := eps[1].(TimedEndpoint).RecvTimeout(0, "x", 50*time.Millisecond); !errors.Is(err, ErrRankDown) {
		t.Errorf("message leaked from killed rank (err=%v)", err)
	}
	// Local operations fail.
	if _, err := f.Recv(1, "x"); !errors.Is(err, errClosed) {
		t.Errorf("post-kill recv err = %v", err)
	}
	if err := f.Barrier(); !errors.Is(err, errClosed) {
		t.Errorf("post-kill barrier err = %v", err)
	}
	if _, err := f.AllGather(nil); !errors.Is(err, errClosed) {
		t.Errorf("post-kill allgather err = %v", err)
	}
	if _, err := f.Bcast(0, nil); !errors.Is(err, errClosed) {
		t.Errorf("post-kill bcast err = %v", err)
	}
}

func TestFaultyKillAfterSends(t *testing.T) {
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	f := NewFaulty(eps[0], FaultSpec{KillAfterSends: 3})
	for i := 0; i < 5; i++ {
		if err := f.Send(1, "x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !f.isKilled() {
		t.Error("endpoint survived past KillAfterSends")
	}
	got := 0
	for {
		if _, err := eps[1].(TimedEndpoint).RecvTimeout(0, "x", 50*time.Millisecond); err != nil {
			break
		}
		got++
	}
	if got != 3 {
		t.Errorf("delivered %d messages, want exactly 3", got)
	}
}

func TestFaultyCollectivesRouteThroughInjection(t *testing.T) {
	// A faulty wrapper with guaranteed drops must break its own collectives
	// (proof that Barrier/AllGather run over the injected Send path).
	eps, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	for _, ep := range eps {
		ep.(TimedEndpoint).SetDeadline(100 * time.Millisecond)
	}
	f0 := NewFaulty(eps[0], FaultSpec{DropProb: 1.0})
	f1 := NewFaulty(eps[1], FaultSpec{DropProb: 1.0})
	errs := make(chan error, 2)
	go func() { errs <- f0.Barrier() }()
	go func() { errs <- f1.Barrier() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrRankDown) {
				t.Errorf("barrier over dropping transport err = %v, want ErrRankDown", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("barrier hung despite deadline")
		}
	}
}

func TestFaultyWrapsTCP(t *testing.T) {
	eps, err := NewTCPGroup(2, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	f := NewFaulty(eps[0], FaultSpec{})
	if err := f.Send(1, "t", []byte("via-tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := f.RecvTimeout(1, "never", 30*time.Millisecond)
	if !errors.Is(err, ErrRankDown) {
		t.Errorf("RecvTimeout via wrapper = %q, %v", got, err)
	}
	if msg, err := eps[1].Recv(0, "t"); err != nil || string(msg) != "via-tcp" {
		t.Errorf("tcp delivery through wrapper: %q, %v", msg, err)
	}
}
