package pup

import (
	"runtime/debug"
	"testing"

	"altoos/internal/ether"
)

// TestDataSendAllocatesOnlyTheWireCopy pins the cost of putting a data
// packet on the wire: the header and data are built in the endpoint's send
// buffer, so the one allocation is Station.Send's copy of the payload.
func TestDataSendAllocatesOnlyTheWireCopy(t *testing.T) {
	_, srv, cli, _ := pair(t, Config{})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	pump(t, srv, cli, 1000, func() bool { return conn.State() == StateOpen })
	data := make([]ether.Word, MaxData)
	for i := range data {
		data[i] = ether.Word(i)
	}
	seq := uint16(0)
	send := func() {
		if err := cli.sendPacket(conn, TypeData, seq, 7, data); err != nil {
			t.Fatal(err)
		}
		seq++
		if _, ok := srv.st.Recv(); !ok {
			t.Fatal("server station received nothing")
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	const batch = 64
	if a := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			send()
		}
	}); a != batch {
		t.Errorf("%d data-packet sends allocate %v times, want %d", batch, a, batch)
	}
}

// raceEnabled is set in race builds (raceflag_test.go).
var raceEnabled bool

// roundTrip opens a connection whose receiver acks every data packet at once
// and returns one full round trip of a MaxData message: Conn.Send (the
// retransmit copy and the wire copy), the server's Poll (dispatch, the
// receive copy, the wire buffer freed, the ack sent), the application's
// Recv and Free, and the client's Poll (the ack frees the retransmit copy).
func roundTrip(tb testing.TB) func() {
	tb.Helper()
	_, srv, cli, _ := pair(tb, Config{AckEvery: 1})
	conn, err := cli.Dial(1)
	if err != nil {
		tb.Fatal(err)
	}
	var acc *Conn
	pump(tb, srv, cli, 1000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		return acc != nil && conn.State() == StateOpen
	})
	data := make([]ether.Word, MaxData)
	for i := range data {
		data[i] = ether.Word(i)
	}
	poll := func(e *Endpoint) {
		if _, err := e.Poll(); err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		if err := conn.Send(data); err != nil {
			tb.Fatal(err)
		}
		poll(srv)
		msg, ok := acc.Recv()
		if !ok {
			tb.Fatal("server received nothing")
		}
		ether.Free(msg)
		poll(cli)
		if conn.Unacked() != 0 {
			tb.Fatalf("%d messages unacked after a round trip", conn.Unacked())
		}
	}
}

// TestRoundTripAllocatesNothing pins the hand-back path: when the
// application frees what it receives, a data send→dispatch→ack round trip
// draws every buffer from the payload pool and allocates nothing. The
// collector is held off for the measurement, since a collection empties the
// pool.
func TestRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	trip := roundTrip(t)
	const batch = 64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			trip()
		}
	}); a != 0 {
		t.Errorf("%d data round trips allocate %v times, want 0", batch, a)
	}
}

// BenchmarkRoundTrip is one data send→dispatch→ack round trip of a MaxData
// message with the receiver freeing what it reads.
func BenchmarkRoundTrip(b *testing.B) {
	trip := roundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}
