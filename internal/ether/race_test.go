package ether

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"altoos/internal/trace"
)

// TestConcurrentSendRecv hammers the medium from many goroutines at once —
// the shape `go test -race` needs to certify the snapshot-then-deliver
// locking in Send. Every station unicasts to its ring successor while
// draining its own queue, so delivery counts and per-sender FIFO order are
// exactly checkable afterwards.
func TestConcurrentSendRecv(t *testing.T) {
	net := New(nil)
	const stations = 8
	const packets = 200
	sts := make([]*Station, stations)
	for i := range sts {
		s, err := net.Attach(Addr(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = s
	}

	var wg sync.WaitGroup
	for i := range sts {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			dst := Addr((i+1)%stations + 1)
			for k := 0; k < packets; k++ {
				if err := sts[i].Send(Packet{Dst: dst, Type: Word(k), Payload: []Word{Word(i), Word(k)}}); err != nil {
					t.Errorf("station %d send %d: %v", i, k, err)
					return
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			// Single sender per receiver: Types must arrive 0..packets-1.
			for got := 0; got < packets; {
				p, ok := sts[i].Recv()
				if !ok {
					runtime.Gosched()
					continue
				}
				if int(p.Type) != got {
					t.Errorf("station %d: packet %d arrived with type %d", i, got, p.Type)
					return
				}
				got++
			}
		}(i)
	}
	wg.Wait()

	sent, words := net.Stats()
	if want := int64(stations * packets); sent != want {
		t.Errorf("stats report %d packets, want %d", sent, want)
	}
	if want := int64(stations * packets * (HeaderWords + 2)); words != want {
		t.Errorf("stats report %d words, want %d", words, want)
	}
	for i, s := range sts {
		if n := s.Pending(); n != 0 {
			t.Errorf("station %d still has %d packets queued", i, n)
		}
	}
}

// TestConcurrentAttachDetach churns stations on and off the medium while a
// stable station broadcasts: membership changes and delivery must never
// race, and a send from a detached station must fail cleanly rather than
// corrupt the medium.
func TestConcurrentAttachDetach(t *testing.T) {
	net := New(nil)
	talker, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < 300; k++ {
			if err := talker.Send(Packet{Dst: Broadcast, Type: Word(k)}); err != nil {
				t.Errorf("broadcast %d: %v", k, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for addr := Addr(2); ; addr++ {
			select {
			case <-done:
				return
			default:
			}
			s, err := net.Attach(addr)
			if err != nil {
				t.Errorf("attach %d: %v", addr, err)
				return
			}
			for s.Pending() == 0 {
				select {
				case <-done:
				default:
					runtime.Gosched()
					continue
				}
				break
			}
			s.Detach()
			// Membership was snapshotted under the lock, so a send racing
			// the detach may still land in the queue; but a send FROM the
			// detached station must be refused.
			if err := s.Send(Packet{Dst: Broadcast}); !errors.Is(err, ErrNoStation) {
				t.Errorf("detached send: got %v, want ErrNoStation", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentSetRecorder swaps a station's recorder while another
// goroutine sends, receives and reads the recorder on the same station.
// Every read sees the station's recorder or the medium's, every delivery is
// counted on exactly one of them, and once the station's recorder is
// detached, TraceRecorder falls back to the medium's.
func TestConcurrentSetRecorder(t *testing.T) {
	net := New(nil)
	wire, own := trace.New(64), trace.New(64)
	net.SetRecorder(wire)
	s, _ := net.Attach(1)
	peer, _ := net.Attach(2)
	const packets = 500
	for k := 0; k < packets; k++ {
		if err := peer.Send(Packet{Dst: 1, Type: Word(k)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < packets; k++ {
			if k%2 == 0 {
				s.SetRecorder(own)
			} else {
				s.SetRecorder(nil)
			}
			runtime.Gosched()
		}
	}()
	got := 0
	go func() {
		defer wg.Done()
		for k := 0; k < packets; k++ {
			if err := s.Send(Packet{Dst: 2, Type: Word(k)}); err != nil {
				t.Errorf("send %d: %v", k, err)
				return
			}
			if _, ok := s.Recv(); ok {
				got++
			}
			if r := s.TraceRecorder(); r != own && r != wire {
				t.Errorf("TraceRecorder = %p, want the station's %p or the medium's %p", r, own, wire)
				return
			}
		}
	}()
	wg.Wait()

	if got != packets {
		t.Fatalf("received %d packets, want %d", got, packets)
	}
	if n := wire.Counter("ether.recv") + own.Counter("ether.recv"); n != packets {
		t.Errorf("recorders counted %d deliveries, want %d", n, packets)
	}
	s.SetRecorder(own)
	if r := s.TraceRecorder(); r != own {
		t.Errorf("with its own recorder attached, TraceRecorder = %p, want %p", r, own)
	}
	s.SetRecorder(nil)
	if r := s.TraceRecorder(); r != wire {
		t.Errorf("after SetRecorder(nil), TraceRecorder = %p, want the medium's %p", r, wire)
	}
}
