package experiments

import (
	"errors"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
)

// TestAwaitTransferEndsWhenRetriesRunOut stores to a server whose station
// nobody polls. The client's connection runs out of retries inside a poll
// and asks for no further wake, so the wait must see the transfer done
// before it idles: the store fails with the transport's error, where a wait
// that parked would end the run in fleet.ErrStalled.
func TestAwaitTransferEndsWhenRetriesRunOut(t *testing.T) {
	wire := ether.New(nil)
	if _, err := wire.Attach(1); err != nil { // the server, never polled
		t.Fatal(err)
	}
	st, err := wire.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	st.SetClock(clk)
	var storeErr error
	eng := fleet.New(fleet.Medium(wire))
	if err := eng.Add(fleet.MachineConfig{
		Name: "client", Clock: clk, Station: st,
		Program: func(m *fleet.Machine) error {
			cl := fileserver.NewClient(pup.NewEndpoint(st, pup.Config{Seed: 1, MaxRTO: 10 * time.Millisecond, MaxRetries: 3}))
			if err := cl.Connect(1); err != nil {
				return err
			}
			if err := cl.Store("lost", []byte("never stored")); err != nil {
				return err
			}
			storeErr = awaitTransfer(m, cl)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !errors.Is(storeErr, pup.ErrRetriesExhausted) {
		t.Fatalf("store error = %v, want %v", storeErr, pup.ErrRetriesExhausted)
	}
}
